#include "telemetry/metrics.hpp"

namespace disco::telemetry {

namespace detail {
util::atomic<bool> g_enabled{false};
}  // namespace detail

// Out-of-line mutators: call sites inline only the enabled() test (see the
// header), so the disabled hot path stays one load-and-branch.

void Counter::inc_slow(std::uint64_t n) noexcept {
  value_.fetch_add(n, std::memory_order_relaxed);
}

void Gauge::set_slow(std::int64_t v) noexcept {
  value_.store(v, std::memory_order_relaxed);
}

void Gauge::add_slow(std::int64_t n) noexcept {
  value_.fetch_add(n, std::memory_order_relaxed);
}

void LatencyHistogram::record_slow(std::uint64_t v) noexcept {
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

double LatencyHistogram::quantile(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-quantile sample, 1-based; q = 0 maps to the first sample.
  auto target = static_cast<std::uint64_t>(q * static_cast<double>(total));
  if (static_cast<double>(target) < q * static_cast<double>(total)) ++target;
  if (target == 0) target = 1;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    cumulative += bucket_count(i);
    if (cumulative >= target) return static_cast<double>(bucket_upper(i));
  }
  // Snapshot race (count incremented before its bucket): report the largest
  // populated bucket instead of falling off the end.
  for (std::size_t i = kNumBuckets; i-- > 0;) {
    if (bucket_count(i) != 0) return static_cast<double>(bucket_upper(i));
  }
  return 0.0;
}

void LatencyHistogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

}  // namespace disco::telemetry
