#include "telemetry/registry.hpp"

#include <algorithm>

namespace disco::telemetry {

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  const util::MutexLock lock(mutex_);
  return find_or_create(counters_, name);
}

Gauge& Registry::gauge(std::string_view name) {
  const util::MutexLock lock(mutex_);
  return find_or_create(gauges_, name);
}

LatencyHistogram& Registry::histogram(std::string_view name) {
  const util::MutexLock lock(mutex_);
  return find_or_create(histograms_, name);
}

Snapshot Registry::snapshot() const {
  const util::MutexLock lock(mutex_);
  Snapshot snapshot;
  snapshot.metrics.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, counter] : counters_) {
    MetricSnapshot m;
    m.name = name;
    m.type = MetricType::kCounter;
    m.value = static_cast<std::int64_t>(counter->value());
    snapshot.metrics.push_back(std::move(m));
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricSnapshot m;
    m.name = name;
    m.type = MetricType::kGauge;
    m.value = gauge->value();
    snapshot.metrics.push_back(std::move(m));
  }
  for (const auto& [name, hist] : histograms_) {
    MetricSnapshot m;
    m.name = name;
    m.type = MetricType::kHistogram;
    m.histogram.count = hist->count();
    m.histogram.sum = hist->sum();
    m.histogram.p50 = hist->quantile(0.50);
    m.histogram.p95 = hist->quantile(0.95);
    m.histogram.p99 = hist->quantile(0.99);
    for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      const std::uint64_t n = hist->bucket_count(i);
      if (n != 0) {
        m.histogram.buckets.push_back({LatencyHistogram::bucket_upper(i), n});
      }
    }
    snapshot.metrics.push_back(std::move(m));
  }
  std::sort(snapshot.metrics.begin(), snapshot.metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return snapshot;
}

void Registry::reset_values() {
  const util::MutexLock lock(mutex_);
  for (const auto& [name, counter] : counters_) counter->reset();
  for (const auto& [name, gauge] : gauges_) gauge->reset();
  for (const auto& [name, hist] : histograms_) hist->reset();
}

}  // namespace disco::telemetry
