// DISCO: DIScount COunting (Hu et al., ICDCS 2010) -- the paper's core
// contribution.
//
// A DISCO counter holds a small integer c that is regulated to track
// f^-1(n) of the true accumulated traffic n, where
//
//     f(c) = (b^c - 1) / (b - 1),     b > 1.                    (eq. 1)
//
// For a packet of l bytes (l = 1 for flow *size* counting) the update is
//
//     delta(c,l) = ceil( f^-1(l + f(c)) - c ) - 1               (eq. 2)
//     p_d(c,l)   = (l + f(c) - f(c+delta)) /
//                  (f(c+delta+1) - f(c+delta))                  (eq. 3)
//     c <- c + delta + 1  with probability p_d, else c + delta  (Alg. 1)
//
// and f(c) is an unbiased estimator of n (Theorem 1).  Because c grows like
// log_b(n), a fixed-width SRAM counter of a handful of bits suffices for
// flows of arbitrary practical length.
//
// This header provides:
//   * DiscoParams     -- base b plus a provisioning factory from an SRAM
//                        budget (counter bits + largest expected flow); an
//                        attached DecisionTable (core/decision_table.hpp)
//                        makes decide/update/estimate transcendental-free
//                        with bit-identical results;
//   * DiscoCounter    -- a single counter, double-precision math path;
//   * DiscoArray      -- N counters bit-packed at exactly `bits` per counter
//                        with overflow accounting;
//   * BurstAggregator -- the paper's Section VI optimisation: accumulate a
//                        burst in a small exact on-chip counter and apply it
//                        as one discounted update.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/decision_table.hpp"
#include "util/bitpack.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace disco::core {

/// Parameters of a DISCO deployment: the base b (and derived scale), plus an
/// optional attached DecisionTable fast path.
class DiscoParams {
 public:
  explicit DiscoParams(double b) : scale_(b) {}

  /// Provision for an SRAM budget: smallest b such that `counter_bits`-wide
  /// counters can represent flows up to `max_flow` (paper's evaluation sweeps
  /// counter bits and derives b exactly this way).
  ///
  /// The guarantee is in expectation: Theorem 3 bounds E[c] by f^-1(n), but
  /// individual counter trajectories fluctuate a few values above it.  A
  /// deployment that must never saturate should pass a max_flow with
  /// headroom (e.g. 2x the largest expected flow); the counter cost of that
  /// headroom is only log_b(2).
  static DiscoParams for_budget(std::uint64_t max_flow, int counter_bits) {
    return DiscoParams(util::choose_b(max_flow, counter_bits));
  }

  [[nodiscard]] double b() const noexcept { return scale_.b(); }
  [[nodiscard]] const util::GeometricScale& scale() const noexcept { return scale_; }

  /// Unbiased estimate for counter value c (Theorem 1).  Read from the
  /// attached DecisionTable, which stores exactly scale().f(c); counter
  /// values past the table (or detached params) pay the expm1.
  [[nodiscard]] double estimate(std::uint64_t c) const noexcept {
    if (const DecisionTable* t = table_.get(); t && c <= t->c_max() + 1) {
      return t->f(c);
    }
    return scale_.f(static_cast<double>(c));
  }

  /// Inverse provisioning query: counter value needed to represent traffic n
  /// (upper bound on E[c] by Theorem 3).
  [[nodiscard]] double counter_bound(double n) const noexcept {
    return scale_.f_inv(n);
  }

  // --- decision-table fast path ----------------------------------------------
  /// Attaches a precomputed DecisionTable so decide()/update() resolve
  /// without transcendentals for counter values up to the table's c_max.
  /// Decisions are bit-identical to the unattached path (same delta, same
  /// p_d, same RNG consumption), so attaching a table is purely a
  /// performance choice.  `table` must have been built for this b.
  void attach_table(std::shared_ptr<const DecisionTable> table);

  /// Builds (or fetches from the process-wide cache) a table covering
  /// counter values up to c_max and attaches it.
  void attach_table(std::uint64_t c_max) {
    attach_table(DecisionTable::shared(scale_, c_max));
  }

  void detach_table() noexcept { table_.reset(); }
  [[nodiscard]] const DecisionTable* decision_table() const noexcept {
    return table_.get();
  }

  /// Computes (delta, p_d) for counter value c and packet length l > 0.
  [[nodiscard]] UpdateDecision decide(std::uint64_t c, std::uint64_t l) const noexcept {
    return decide_value(c, static_cast<double>(l));
  }

  /// Merges two DISCO counters of the SAME deployment (same b) into one:
  /// the result estimates the combined traffic, unbiasedly.  Works in
  /// f-space -- merge(c1, c2) applies f(c2) as one discounted update to c1
  /// -- so distributed monitors (shards, epochs, mirrored taps) can
  /// aggregate without ever expanding to full-size counters.  The merge adds
  /// one update's worth of variance, bounded by Theorem 2 as usual.
  [[nodiscard]] std::uint64_t merge(std::uint64_t c1, std::uint64_t c2,
                                    util::Rng& rng) const noexcept;

  /// Two-sided confidence interval for the traffic estimate from counter
  /// value c: [low, high] such that the true n lies inside with probability
  /// ~confidence under the Theorem 2 normal approximation.  `confidence` in
  /// (0, 1); the relative half-width is z * cv_bound(b).
  struct ConfidenceInterval {
    double low = 0.0;
    double estimate = 0.0;
    double high = 0.0;
  };
  [[nodiscard]] ConfidenceInterval confidence_interval(
      std::uint64_t c, double confidence = 0.95) const;

  /// Same interval directly from a traffic estimate f(c) rather than a raw
  /// counter -- the epoch-report accessor: rotate() exports estimates, so
  /// downstream consumers (analysis modules, collectors) can attach
  /// Theorem 2 intervals without inverting back to counter space.  Requires
  /// estimate >= 0 and confidence in (0, 1).
  [[nodiscard]] ConfidenceInterval interval_for_estimate(
      double estimate, double confidence = 0.95) const;

  /// Applies Algorithm 1: returns the new counter value.
  [[nodiscard]] std::uint64_t update(std::uint64_t c, std::uint64_t l,
                                     util::Rng& rng) const noexcept {
    if (l == 0) return c;
    const UpdateDecision d = decide(c, l);
    return c + d.delta + (rng.bernoulli(d.p_d) ? 1 : 0);
  }

 private:
  /// Routes a decision to the attached table when it can resolve it, with
  /// the scalar path as the (bit-identical) fallback for detached params,
  /// counters beyond the table, and targets overrunning it.
  [[nodiscard]] UpdateDecision decide_value(std::uint64_t c, double l) const noexcept {
    if (const DecisionTable* t = table_.get(); t && c <= t->c_max()) {
      UpdateDecision d;
      if (t->decide(c, l, d)) return d;
    }
    return decide_real(c, l);
  }

  /// Algorithm 1's decision via transcendentals, for any real addend.
  [[nodiscard]] UpdateDecision decide_real(std::uint64_t c, double l) const noexcept;

  util::GeometricScale scale_;
  std::shared_ptr<const DecisionTable> table_;
};

/// A single DISCO counter (value + params reference semantics kept simple by
/// storing params by value; DiscoParams is two doubles).
class DiscoCounter {
 public:
  explicit DiscoCounter(DiscoParams params) : params_(params) {}

  /// Count a packet of l bytes (l = 1 for flow size counting).
  void add(std::uint64_t l, util::Rng& rng) noexcept {
    value_ = params_.update(value_, l, rng);
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  [[nodiscard]] double estimate() const noexcept { return params_.estimate(value_); }
  [[nodiscard]] const DiscoParams& params() const noexcept { return params_; }
  void reset() noexcept { value_ = 0; }

 private:
  DiscoParams params_;
  std::uint64_t value_ = 0;
};

/// Fixed-width array of DISCO counters, bit-packed at exactly `bits` bits per
/// counter so SRAM accounting matches the paper's "largest counter bits"
/// methodology.  An update that would exceed the width follows the array's
/// saturation policy: by default it saturates the counter and is counted;
/// with enable_rescale() the whole array is re-derived under a larger base b
/// first (ICE-Buckets-style scale management -- see docs/robustness.md).
class DiscoArray {
 public:
  DiscoArray(std::size_t size, int bits, DiscoParams params)
      : params_(params), store_(size, bits) {}

  /// Provisioned constructor: picks b so that `bits` covers `max_flow`.
  DiscoArray(std::size_t size, int bits, std::uint64_t max_flow)
      : DiscoArray(size, bits, DiscoParams::for_budget(max_flow, bits)) {}

  [[nodiscard]] std::size_t size() const noexcept { return store_.size(); }
  [[nodiscard]] int bits() const noexcept { return store_.width(); }
  [[nodiscard]] const DiscoParams& params() const noexcept { return params_; }
  [[nodiscard]] std::size_t storage_bits() const noexcept { return store_.storage_bits(); }
  [[nodiscard]] std::uint64_t overflow_count() const noexcept { return overflows_; }

  /// Attaches a decision table sized to this array's counter width, so
  /// every reachable counter value resolves through the fast path (see
  /// core/decision_table.hpp; decisions stay bit-identical).
  void attach_decision_table() { params_.attach_table(store_.max_value()); }

  // --- saturation policy ------------------------------------------------------
  /// Switches the array from saturate-and-count to RescaleB: when an update
  /// would exceed the counter width, the array is re-provisioned for
  /// `growth` x its current representable maximum (a larger b, same bits)
  /// and every counter is remapped with randomized rounding, keeping
  /// estimates unbiased.  At most `max_rescales` re-derivations happen; past
  /// the cap -- or if provisioning fails (b would exceed choose_b's range)
  /// -- the array falls back to saturating.  Each rescale raises the
  /// Theorem 2 CV bound, which is exactly the graceful accuracy-for-range
  /// trade the robustness layer documents.
  void enable_rescale(double growth, unsigned max_rescales) noexcept {
    rescale_enabled_ = growth > 1.0 && max_rescales > 0;
    rescale_growth_ = growth;
    max_rescales_ = max_rescales;
  }
  [[nodiscard]] std::uint64_t rescale_count() const noexcept { return rescales_; }

  /// Restores a rescaled deployment's effective base (checkpoint/restore
  /// path): rebuilds params for `b` (re-deriving the attached decision
  /// table, if any) and resets the rescale-event count.  The raw counter
  /// values restored afterwards are interpreted under this b.
  void restore_scale(double b, std::uint64_t rescales) {
    if (b != params_.b()) {
      const bool had_table = params_.decision_table() != nullptr;
      params_ = DiscoParams(b);
      if (had_table) params_.attach_table(store_.max_value());
    }
    rescales_ = rescales;
  }

  void add(std::size_t i, std::uint64_t l, util::Rng& rng) noexcept {
    const std::uint64_t c = store_.get(i);
    const std::uint64_t next = params_.update(c, l, rng);
    if (next <= store_.max_value()) [[likely]] {
      store_.set(i, next);
      return;
    }
    saturate_or_rescale(i, next, rng);
  }

  [[nodiscard]] std::uint64_t value(std::size_t i) const noexcept { return store_.get(i); }
  [[nodiscard]] double estimate(std::size_t i) const noexcept {
    return params_.estimate(store_.get(i));
  }

  /// Restores a raw counter value (checkpoint/restore path).  The value must
  /// fit the configured width.
  void set_value(std::size_t i, std::uint64_t v) {
    if (v > store_.max_value()) {
      throw std::out_of_range("DiscoArray::set_value: value exceeds counter width");
    }
    store_.set(i, v);
  }

  /// Largest counter value currently held -- determines the bits a
  /// fixed-width deployment of this workload actually needed.
  [[nodiscard]] std::uint64_t max_value() const noexcept {
    std::uint64_t m = 0;
    for (std::size_t i = 0; i < store_.size(); ++i) m = std::max(m, store_.get(i));
    return m;
  }

  /// Clears counter values and the overflow count for a new epoch.  A
  /// rescaled b is a deployment property, not epoch state: it persists (as
  /// does rescale_count()), exactly as reprovisioned hardware would.
  /// Counters at index >= `used` must already be zero: only the words of
  /// the prefix [0, used) are rewritten, so a monitor that handed out
  /// `used` slots this epoch pays O(used), not O(size()).  A RescaleB remap
  /// keeps zero counters at zero, so the precondition survives rescales.
  void reset(std::size_t used) noexcept {
    store_.fill_zero(used);
    overflows_ = 0;
  }

  /// Pulls slot i's word toward the cache (batched-ingest prefetch path).
  void prefetch(std::size_t i) const noexcept { store_.prefetch(i); }

 private:
  /// Cold overflow path (disco.cpp): applies the saturation policy when the
  /// update at slot `i` realised a counter `next` that exceeds the width.
  /// Under RescaleB this re-derives the array and remaps the ALREADY-DECIDED
  /// `next` into the new scale with randomized rounding.  Remapping (rather
  /// than re-drawing the update) matters for unbiasedness: this path only
  /// runs on the conditional branch where the first draw came out high, so a
  /// re-draw would keep low outcomes and re-randomize high ones -- a
  /// systematic negative bias.  When rescaling is exhausted or impossible it
  /// clamps to the top value and counts the overflow, consuming no
  /// randomness beyond the original decision.
  void saturate_or_rescale(std::size_t i, std::uint64_t next,
                           util::Rng& rng) noexcept;

  /// One RescaleB event: re-provisions for rescale_growth_ x the current
  /// representable maximum and remaps every counter with randomized
  /// rounding (E[f_new(c')] = f_old(c), so estimates stay unbiased).
  /// Returns false -- permanently disabling rescale -- when choose_b cannot
  /// provision the grown budget at this width.
  bool rescale_once(util::Rng& rng) noexcept;

  DiscoParams params_;
  util::BitPackedArray store_;
  std::uint64_t overflows_ = 0;
  bool rescale_enabled_ = false;
  double rescale_growth_ = 2.0;
  unsigned max_rescales_ = 16;
  std::uint64_t rescales_ = 0;
};

/// Section VI burst optimisation: back-to-back packets of one flow are first
/// accumulated exactly in a small on-chip counter; when the burst ends (or
/// the small counter would overflow) the total is applied as a single
/// discounted update.  Fewer SRAM round-trips *and* lower estimation variance
/// (one large update replaces several small ones).
class BurstAggregator {
 public:
  /// `scratch_bits` bounds the exact on-chip accumulator (paper: "a small
  /// naive on-chip counter").
  BurstAggregator(DiscoParams params, int scratch_bits = 16)
      : params_(params),
        scratch_limit_((std::uint64_t{1} << scratch_bits) - 1) {}

  /// Adds a packet to the current burst.  Returns the number of SRAM counter
  /// updates performed (0 while accumulating, 1 on forced flush).
  int add(std::uint64_t l, std::uint64_t& counter, util::Rng& rng) noexcept {
    if (l >= scratch_limit_ - pending_) {
      pending_ += l;
      flush(counter, rng);
      return 1;
    }
    pending_ += l;
    return 0;
  }

  /// Ends the burst: applies any pending bytes as one update.
  int flush(std::uint64_t& counter, util::Rng& rng) noexcept {
    if (pending_ == 0) return 0;
    counter = params_.update(counter, pending_, rng);
    pending_ = 0;
    return 1;
  }

  [[nodiscard]] std::uint64_t pending() const noexcept { return pending_; }

 private:
  DiscoParams params_;
  std::uint64_t scratch_limit_;
  std::uint64_t pending_ = 0;
};

}  // namespace disco::core
