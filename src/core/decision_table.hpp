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
// Lookup strategy: f is strictly increasing, so j = ceil(f^-1(target))
// becomes a search over the table.  At operating range a packet rarely
// moves the counter more than a step or two, so the common case is resolved
// by probing c+1..c+4 directly; larger jumps (burst-coalesced updates,
// merges) fall through to a gallop + binary search.  Targets beyond the
// table's last entry return false and the caller falls back to the
// transcendental path, which is bit-identical by construction.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
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

/// Precomputed dense table of f(c) and b^c over c in [0, c_max], driving a
/// transcendental-free DISCO decision that is bit-identical to the double
/// path.  Immutable after construction, so one table can serve any number
/// of threads and DiscoParams copies concurrently.
class DecisionTable {
 public:
  /// Builds the table for counter values 0..c_max (plus one sentinel entry
  /// at c_max+1 so a decision landing exactly past the last representable
  /// value still resolves in-table).  c_max is clamped to kMaxCmax, and the
  /// table is truncated at the first non-finite f value (everything beyond
  /// is numerically saturated and falls back to the scalar path anyway).
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
  /// Host memory footprint of the table payload.
  [[nodiscard]] std::size_t storage_bytes() const noexcept {
    return (f_.size() + step_.size()) * sizeof(double);
  }

  /// f(c) exactly as the scalar path computes it (expm1(c ln b)/(b-1)),
  /// for c in [0, c_max()+1] -- DiscoParams::estimate reads it here.
  [[nodiscard]] double f(std::uint64_t c) const noexcept { return f_[c]; }
  /// Interval width f(c+1) - f(c) = b^c, exactly as the scalar path
  /// computes it (exp(c ln b)).
  [[nodiscard]] double step(std::uint64_t c) const noexcept { return step_[c]; }

  /// Computes the update decision for counter value c (<= c_max()) and
  /// addend l > 0.  Returns true and fills `d` when the decision resolves
  /// within the table; false when the target overruns it (or sits in a
  /// numerically saturated corner), in which case the caller must use the
  /// scalar path -- which produces the identical decision by construction.
  bool decide(std::uint64_t c, double l, UpdateDecision& d) const noexcept {
    const double target = f_[c] + l;
    if (!std::isfinite(target) || !std::isfinite(target * bm1_)) {
      // Mirrors the scalar path's two saturation exits exactly: f(c)+l
      // beyond double range, or target*(b-1) overflowing inside f^-1.
      return false;
    }
    const double cutoff = target - 1e-9 * std::max(1.0, target);
    const std::uint64_t limit = c_max_ + 1;  // last valid index

    // Common case: small packets move a warm counter at most a few steps.
    const std::uint64_t probe_end = std::min(c + 4, limit);
    std::uint64_t j = c + 1;
    while (j <= probe_end && f_[j] < cutoff) ++j;
    if (j > probe_end) {
      if (probe_end == limit) return false;  // table exhausted
      // Gallop from the probe frontier, then binary-search the bracket.
      std::uint64_t lo = probe_end;  // f_[lo] < cutoff
      std::uint64_t hi = lo;
      std::uint64_t stride = 4;
      for (;;) {
        if (hi == limit) return false;  // f_[limit] < cutoff: beyond table
        hi = (limit - hi > stride) ? hi + stride : limit;
        stride <<= 1;
        if (f_[hi] >= cutoff) break;
        lo = hi;
      }
      while (hi - lo > 1) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (f_[mid] >= cutoff) hi = mid;
        else lo = mid;
      }
      j = hi;
    }

    d.delta = j - c - 1;
    d.p_d = std::clamp((target - f_[j - 1]) / step_[j - 1], 0.0, 1.0);
    return true;
  }

 private:
  double b_;
  double bm1_;  // b - 1
  std::uint64_t c_max_;
  std::vector<double> f_;     // f_[c] = f(c), c in [0, c_max+1]
  std::vector<double> step_;  // step_[c] = b^c, same index range
};

}  // namespace disco::core
