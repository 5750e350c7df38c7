// Table-driven fast path for the DISCO update decision.
//
// Every per-packet update solves the same tiny problem: given a counter
// value c and an addend l, find
//
//     j  = the smallest integer > c with f(j) >= f(c) + l,          (eq. 2)
//     p  = (f(c) + l - f(j-1)) / (f(j) - f(j-1)),                   (eq. 3)
//
// and the reference implementation pays three transcendentals (expm1,
// log1p, exp) per decision to do it.  But DISCO's entire premise (eq. 1,
// Theorem 3) is that c stays SMALL -- c <= f^-1(max_flow), a few thousand
// for any realistic SRAM budget -- so f(c) and the interval widths b^c are
// enumerable up front.  This is the same insight behind the paper's IXP2850
// Log&Exp table (src/util/log_table.hpp), applied to the full-precision
// host path: where the NP table quantises mantissas to fit 96 Kb of on-chip
// memory, this table stores the EXACT doubles the reference path computes,
// so decisions are bit-identical to the transcendental path -- same delta,
// same p_d, same RNG consumption (tests/test_decision_table.cpp proves it
// exhaustively).
//
// Lookup strategy: j is the first entry with f(j) >= cutoff, where cutoff
// is the target less a 1e-9 relative landing tolerance.  Since
// 1 + f(j)(b-1) = b^j, the IEEE-754 bits of 1 + x(b-1), shifted right so
// that M mantissa bits remain, are a monotone log_b(x) in buckets of
// relative width 2^-M <= b-1 (key()).  Successive entries differ by the
// ratio b, so a bucket holds at most one of them -- the constructor raises
// M until that holds for every entry.  index_[k] is the first entry whose
// key is >= k; the answer is that entry, or the next one when it still lies
// below the cutoff: one lookup and one compare.  An addend l <= b^c cannot
// cross f(c+1) (the constructor checks this for every c too), so unit
// updates skip the index.  Targets beyond the table's last entry return
// false and the caller falls back to the transcendental path, which is
// bit-identical by construction.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "util/math.hpp"

namespace disco::core {

/// Result of a single counter-update computation, exposed for tests, the
/// fixed-point implementation, and the walkthrough example (paper Fig. 1).
struct UpdateDecision {
  std::uint64_t delta = 0;  ///< deterministic part of the increment
  double p_d = 0.0;         ///< probability of the extra +1
};

/// Precomputed dense table of f(c) and b^c over c in [0, c_max], plus a
/// float-bits index over f, driving a transcendental-free DISCO decision
/// that is bit-identical to the double path.  Immutable after
/// construction, so one table can serve any number of threads and
/// DiscoParams copies concurrently.
class DecisionTable {
 public:
  /// Builds the table for counter values 0..c_max (plus one sentinel entry
  /// at c_max+1 so a decision landing exactly past the last representable
  /// value still resolves in-table).  c_max is clamped to kMaxCmax, and the
  /// table is truncated at the first entry whose f or index key is not
  /// finite (everything beyond is numerically saturated and falls back to
  /// the scalar path anyway).
  DecisionTable(const util::GeometricScale& scale, std::uint64_t c_max);

  /// Process-wide cache keyed by (b, c_max): shard-per-worker deployments
  /// (PipelineMonitor) build dozens of monitors with identical
  /// provisioning, and all of them share one physical table.
  [[nodiscard]] static std::shared_ptr<const DecisionTable> shared(
      const util::GeometricScale& scale, std::uint64_t c_max);

  /// Tables larger than this are pointless: the entries beyond any real
  /// provisioning are either saturated or never reached, and the scalar
  /// fallback covers them bit-identically.
  static constexpr std::uint64_t kMaxCmax = (std::uint64_t{1} << 16) - 2;

  [[nodiscard]] double b() const noexcept { return b_; }
  /// Largest counter value whose decision the table can resolve.
  [[nodiscard]] std::uint64_t c_max() const noexcept { return c_max_; }
  /// Mantissa bits the index keeps: each bucket spans a relative width of
  /// at most 2^-index_bits().
  [[nodiscard]] int index_bits() const noexcept { return 52 - shift_; }
  /// Host memory footprint of the table payload: f and b^c per entry, plus
  /// the index.
  [[nodiscard]] std::size_t storage_bytes() const noexcept {
    return entries_.size() * sizeof(Entry) +
           index_.size() * sizeof(std::uint16_t);
  }

  /// f(c) exactly as the scalar path computes it (expm1(c ln b)/(b-1)),
  /// for c in [0, c_max()+1] -- DiscoParams::estimate reads it here.
  [[nodiscard]] double f(std::uint64_t c) const noexcept { return entries_[c].f; }
  /// Interval width f(c+1) - f(c) = b^c, exactly as the scalar path
  /// computes it (exp(c ln b)).
  [[nodiscard]] double step(std::uint64_t c) const noexcept {
    return entries_[c].step;
  }

  /// Computes the update decision for counter value c (<= c_max()) and
  /// addend l > 0.  Returns true and fills `d` when the decision resolves
  /// within the table; false when the target overruns it (or sits in a
  /// numerically saturated corner), in which case the caller must use the
  /// scalar path -- which produces the identical decision by construction.
  bool decide(std::uint64_t c, double l, UpdateDecision& d) const noexcept {
    const Entry& from = entries_[c];
    const double target = from.f + l;
    if (!std::isfinite(target) || !std::isfinite(target * bm1_)) {
      // Mirrors the scalar path's two saturation exits exactly: f(c)+l
      // beyond double range, or target*(b-1) overflowing inside f^-1.
      return false;
    }
    if (l <= from.step) {  // lands in [f(c), f(c+1)]: j = c + 1
      d.delta = 0;
      d.p_d = std::clamp((target - from.f) / from.step, 0.0, 1.0);
      return true;
    }
    const double cutoff = landing_cutoff(target);
    const std::uint64_t k = key(cutoff);
    if (k >= index_.size()) return false;  // beyond the last entry
    const std::uint64_t lo = index_[k];
    const std::uint64_t j =
        std::max(c + 1, lo + (entries_[lo].f < cutoff ? 1 : 0));
    if (j > c_max_ + 1) return false;  // f(c_max+1) < cutoff: table exhausted
    const Entry& below = entries_[j - 1];
    d.delta = j - c - 1;
    d.p_d = std::clamp((target - below.f) / below.step, 0.0, 1.0);
    return true;
  }

 private:
  struct Entry {
    double f;     // f(c)
    double step;  // b^c = f(c+1) - f(c)
  };

  /// The landing predicate's threshold: j is the first entry with
  /// f(j) >= cutoff.  The relative tolerance forgives float noise at
  /// exact-integer landings, exactly as DiscoParams::decide_real does.
  [[nodiscard]] static double landing_cutoff(double target) noexcept {
    return target - 1e-9 * std::max(1.0, target);
  }

  /// The index key of x >= 0, relative to the key of 0: the bits of
  /// 1 + x(b-1) >> shift_, a monotone non-decreasing function of x.  The
  /// constructor and decide() both go through this one function, so the
  /// buckets the index was built over are the buckets it is read with,
  /// whatever the compiler does to the multiply-add.  decide() asks only
  /// for addends l > b^c >= 1, whose cutoffs are positive.
  [[nodiscard]] std::uint64_t key(double x) const noexcept {
    return (std::bit_cast<std::uint64_t>(1.0 + x * bm1_) >> shift_) -
           key_of_one_;
  }

  double b_;
  double bm1_;  // b - 1
  std::uint64_t c_max_;
  int shift_ = 52;                // 52 - index_bits()
  std::uint64_t key_of_one_ = 0;  // bits(1.0) >> shift_
  std::vector<Entry> entries_;    // entries_[c], c in [0, c_max+1]
  // index_[k] = the first entry whose key is >= k, for k in
  // [0, key(f(c_max+1))].
  std::vector<std::uint16_t> index_;
  static_assert(kMaxCmax + 1 <= std::numeric_limits<std::uint16_t>::max());
};

}  // namespace disco::core
