// Runtime telemetry primitives: the instrumentation the hot paths carry.
//
// Design goals, in order:
//   1. Negligible cost when not enabled.  All mutating operations are gated
//      on a process-wide runtime flag (one relaxed atomic load + predictable
//      branch); benches that do not pass --telemetry measure the same hot
//      path as before.  That flag is the only switch; docs/telemetry.md
//      (Cost model) has what it costs.
//   2. Thread-safe when enabled.  Counters/gauges are relaxed atomics;
//      the histogram is an array of relaxed atomic buckets.  Telemetry is
//      monitoring, not accounting: relaxed ordering is deliberate, and a
//      snapshot taken concurrently with updates is approximate in the usual
//      monitoring sense (per-metric torn-free, cross-metric unsynchronised).
//
// The metric vocabulary is the conventional triple:
//   Counter           -- monotonically increasing event count
//   Gauge             -- instantaneous level (table occupancy, queue depth)
//   LatencyHistogram  -- log-scale distribution of nonnegative integer
//                        samples with quantile queries.  Despite the name it
//                        records any uint64 sample (nanoseconds, probe
//                        counts, batch sizes, ...).
//   ScopeTimer        -- RAII nanosecond timer feeding a LatencyHistogram
//
// Instances are normally obtained from telemetry::Registry (registry.hpp)
// so they appear in snapshots; free-standing instances work too.
#pragma once

#include <atomic>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>

#include "util/atomic.hpp"

namespace disco::telemetry {

namespace detail {
extern util::atomic<bool> g_enabled;
}  // namespace detail

/// Process-wide runtime switch.  Off by default: telemetry is opt-in
/// (benches via --telemetry, tools via --metrics, tests explicitly).
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// Monotonic event counter.  inc() is dropped while telemetry is disabled;
/// value() always reads.
///
/// The mutating slow paths of Counter/Gauge/LatencyHistogram live in
/// metrics.cpp: only the enabled() test is inlined at the call site, so the
/// instrumentation adds one load-and-branch to the caller's code -- small
/// enough not to perturb inlining and unrolling of hot loops.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    if (enabled()) [[unlikely]] inc_slow(n);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  void inc_slow(std::uint64_t n) noexcept;

  util::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level.  Signed: deltas may transiently undershoot zero.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    if (enabled()) [[unlikely]] set_slow(v);
  }
  void add(std::int64_t n) noexcept {
    if (enabled()) [[unlikely]] add_slow(n);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  void set_slow(std::int64_t v) noexcept;
  void add_slow(std::int64_t n) noexcept;

  util::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket log-scale histogram (HdrHistogram-lite): values 0..15 get
/// exact buckets; larger values get 4 sub-buckets per octave.  Quantiles
/// report a bucket's inclusive upper bound, so they never under-report and
/// overestimate by less than one sub-bucket width: at most 25% (sub-bucket
/// 0 of an octave), 14.3% (sub-bucket 3).  256 buckets cover the full
/// uint64 range in 2 KB -- small enough to embed one per metric family.
class LatencyHistogram {
 public:
  static constexpr std::size_t kNumBuckets = 16 + 4 * 60;  // 256

  /// Bucket index of a sample: exact below 16, log-linear above.
  [[nodiscard]] static constexpr std::size_t bucket_index(std::uint64_t v) noexcept {
    if (v < 16) return static_cast<std::size_t>(v);
    const int octave = static_cast<int>(std::bit_width(v)) - 1;  // 4..63
    const auto sub = static_cast<std::size_t>((v >> (octave - 2)) & 3);
    return 16 + static_cast<std::size_t>(octave - 4) * 4 + sub;
  }

  /// Inclusive upper bound of a bucket (the value quantiles report).
  [[nodiscard]] static constexpr std::uint64_t bucket_upper(std::size_t index) noexcept {
    if (index < 16) return index;
    const std::size_t octave = 4 + (index - 16) / 4;
    const std::size_t sub = (index - 16) % 4;
    // lower = (4+sub) << (octave-2); upper = lower + width - 1.  The top
    // bucket's upper bound wraps to exactly UINT64_MAX, which is correct.
    return (static_cast<std::uint64_t>(5 + sub) << (octave - 2)) - 1;
  }

  void record(std::uint64_t v) noexcept {
    if (enabled()) [[unlikely]] record_slow(v);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t index) const noexcept {
    return buckets_[index].load(std::memory_order_relaxed);
  }

  /// q-quantile (q in [0, 1]) as the upper bound of the bucket holding the
  /// ceil(q * count)-th smallest sample.  0 when empty.  Error is bounded by
  /// the bucket width: exact below 16, < 25% overestimate above (never
  /// under-reports).
  [[nodiscard]] double quantile(double q) const noexcept;

  void reset() noexcept;

 private:
  void record_slow(std::uint64_t v) noexcept;

  std::array<util::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  util::atomic<std::uint64_t> count_{0};
  util::atomic<std::uint64_t> sum_{0};
};

/// RAII timer: records the scope's wall time in nanoseconds into a
/// LatencyHistogram.  The clock is only read while telemetry is enabled.
class ScopeTimer {
 public:
  explicit ScopeTimer(LatencyHistogram& hist) noexcept {
    if (enabled()) {
      hist_ = &hist;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopeTimer() {
    if (hist_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      hist_->record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
    }
  }
  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

 private:
  LatencyHistogram* hist_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace disco::telemetry
