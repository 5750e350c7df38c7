// Additive-error counter array -- the alternate estimator frontier.
//
// DISCO regulates a logarithmic counter and pays a MULTIPLICATIVE error
// (CV bounded by Theorem 2's e(b)).  Additive-error counters (Ben Basat,
// Einziger, Friedman, "Faster and More Accurate Measurement through
// Additive-Error Counters", INFOCOM 2019; PAPERS.md) take the other trade:
// counters advance by l * p for a global sampling probability p = 2^-s,
// and the estimate c / p carries an ADDITIVE error of order 2^s * sqrt(N)
// -- tiny relative error for elephants, a fixed absolute noise floor for
// mice.  The update is a shift, a compare, and one randomized rounding: no
// f-space search at all, which is why FlowMonitor exposes it as a
// selectable estimator (Config.estimator) for workloads that tolerate
// additive error.
//
// Scale management is global, like the paper's MAX-SPEED mode run in
// reverse: all counters start EXACT (s = 0).  When an increment would
// overflow the fixed width, every counter is halved with randomized
// rounding and s grows by one -- an unbiased remap (E[halved] = c/2), so
// estimates stay unbiased through any number of scale-ups.  This is the
// additive analogue of DiscoArray's RescaleB, and it reuses that telemetry
// surface: each halve-all shows up as one rescale_count() event.
//
// Error model (core/theory.hpp, additive_error_sd): each update and each
// halving rounds to the 2^s grid with mean-zero error of variance at most
// (2^s)^2 / 4, so after N roundings the estimate's standard deviation is
// at most 2^s * sqrt(N) / 2.  tests/test_additive.cpp pins both the
// unbiasedness and this envelope on seeded Zipf workloads.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "util/bitpack.hpp"
#include "util/rng.hpp"

namespace disco::core {

/// Fixed-width array of additive-error counters, bit-packed at exactly
/// `bits` bits per counter (same SRAM accounting as DiscoArray).
class AdditiveErrorArray {
 public:
  AdditiveErrorArray(std::size_t size, int bits) : store_(size, bits) {}

  [[nodiscard]] std::size_t size() const noexcept { return store_.size(); }
  [[nodiscard]] int bits() const noexcept { return store_.width(); }
  [[nodiscard]] std::size_t storage_bits() const noexcept {
    return store_.storage_bits();
  }

  /// Current scale exponent s: counters hold multiples of unit() = 2^s.
  [[nodiscard]] unsigned scale() const noexcept { return scale_; }

  /// The counting grid 2^s -- the quantum of the additive error model.
  [[nodiscard]] double unit() const noexcept {
    return static_cast<double>(std::uint64_t{1} << scale_);
  }

  /// Halve-all events since construction (cumulative, monotone: feeds the
  /// same pressure watermark DiscoArray's rescale_count does).
  [[nodiscard]] std::uint64_t rescale_count() const noexcept { return halvings_; }

  /// Additive counters never saturate -- they rescale instead.  The
  /// accessor exists so CounterBank can treat both estimator families
  /// uniformly.
  [[nodiscard]] std::uint64_t overflow_count() const noexcept { return 0; }

  /// Counts a packet/burst of l bytes into slot i.  Consumes exactly one
  /// draw for the grid rounding (plus halve-all draws on the overflow cold
  /// path), mirroring DiscoArray::add's one-draw-per-update contract.
  void add(std::size_t i, std::uint64_t l, util::Rng& rng) noexcept {
    if (l == 0) return;
    const double u = rng.next_double();
    std::uint64_t inc = l >> scale_;
    const std::uint64_t rem = l - (inc << scale_);
    // Randomized rounding to the 2^s grid: round up with probability
    // rem / 2^s, so E[inc * 2^s] = l exactly.
    if (rem != 0 &&
        u * static_cast<double>(std::uint64_t{1} << scale_) <
            static_cast<double>(rem)) {
      ++inc;
    }
    while (inc > store_.max_value() - store_.get(i)) [[unlikely]] {
      halve_all(rng);
      inc = shift_down(inc, 1, rng);
    }
    store_.set(i, store_.get(i) + inc);
  }

  [[nodiscard]] std::uint64_t value(std::size_t i) const noexcept {
    return store_.get(i);
  }

  /// Unbiased estimate of the true accumulated traffic: c * 2^s.
  [[nodiscard]] double estimate(std::size_t i) const noexcept {
    return static_cast<double>(store_.get(i)) * unit();
  }

  /// Restores a raw counter value (eviction zeroing, tests).  The value
  /// must fit the configured width; it is interpreted at the CURRENT scale.
  void set_value(std::size_t i, std::uint64_t v) {
    if (v > store_.max_value()) {
      throw std::out_of_range(
          "AdditiveErrorArray::set_value: value exceeds counter width");
    }
    store_.set(i, v);
  }

  /// Largest counter value currently held (provisioning diagnostics).
  [[nodiscard]] std::uint64_t max_value() const noexcept {
    std::uint64_t m = 0;
    for (std::size_t i = 0; i < store_.size(); ++i) {
      m = std::max(m, store_.get(i));
    }
    return m;
  }

  /// Clears counters AND returns to the exact scale (s = 0) for a new
  /// epoch: unlike a rescaled b, the additive scale is pure workload state,
  /// so a fresh epoch starts exact again.  rescale_count() stays cumulative.
  void reset() noexcept { reset(size()); }

  /// reset() for an array whose counters at index >= `used` are already
  /// zero (a halve-all keeps zero counters at zero): only the prefix
  /// [0, used) is rewritten.
  void reset(std::size_t used) noexcept {
    store_.fill_zero(used);
    scale_ = 0;
  }

  /// Merges two arrays of the SAME geometry into one whose counters
  /// estimate the summed traffic, unbiasedly: the lower-scale operand is
  /// brought to the common scale with randomized rounding, and the whole
  /// merge retries one scale higher if any slot would overflow.  Cold
  /// control-plane path (collector / shard aggregation); draw count varies.
  [[nodiscard]] static AdditiveErrorArray merge(const AdditiveErrorArray& a,
                                                const AdditiveErrorArray& b,
                                                util::Rng& rng);

  /// Pulls slot i's word toward the cache (batched-ingest prefetch path).
  void prefetch(std::size_t i) const noexcept { store_.prefetch(i); }

 private:
  /// Halves every counter with randomized rounding and bumps the scale:
  /// E[new * 2^(s+1)] = old * 2^s, so estimates stay unbiased.
  void halve_all(util::Rng& rng) noexcept;

  /// v / 2^k with randomized rounding per halving step (E = v / 2^k).
  [[nodiscard]] static std::uint64_t shift_down(std::uint64_t v, unsigned k,
                                                util::Rng& rng) noexcept;

  util::BitPackedArray store_;
  unsigned scale_ = 0;
  std::uint64_t halvings_ = 0;
};

}  // namespace disco::core
