// Process-wide metric registry.
//
// Components ask the registry for named metrics once (at construction) and
// keep the returned reference for the hot path; the registry owns every
// metric, so addresses are stable for the life of the process and two
// components asking for the same name share one metric (a family aggregated
// across instances -- the Prometheus default-registry model).  Lookup takes
// a mutex; it is a setup-time operation, never per-packet.
//
// Naming convention: dotted paths, `<subsystem>.<metric>[_total]`, e.g.
//   flow_monitor.ingest_total            (Counter)
//   pipeline.worker_3.ingest_total       (Counter, per-shard family member)
//   flow_table.probe_length              (LatencyHistogram)
// The catalogue of metrics emitted by this repo lives in docs/telemetry.md.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "util/thread_annotations.hpp"

namespace disco::telemetry {

class Registry {
 public:
  /// The process-wide registry every built-in instrumentation point uses.
  [[nodiscard]] static Registry& global();

  /// Finds or creates the named metric.  References stay valid for the
  /// registry's lifetime.  One name should keep one type; if it is reused
  /// with a different type, each type's metric exists independently (the
  /// snapshot will contain both entries).
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] LatencyHistogram& histogram(std::string_view name);

  /// Copies every metric's current value, sorted by name.  Histogram entries
  /// carry p50/p95/p99 and their non-empty buckets.
  [[nodiscard]] Snapshot snapshot() const;

  /// Zeroes every registered metric (names stay registered).  For test
  /// isolation and epoch-style resets; not thread-safe against concurrent
  /// updates in the sense that in-flight increments may survive.
  void reset_values();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  /// Finds or creates a metric in one of the maps below.  The maps own the
  /// metrics through unique_ptr, so the returned reference survives later
  /// rebalancing of the map itself.
  template <typename Map>
  [[nodiscard]] auto& find_or_create(Map& map, std::string_view name)
      DISCO_REQUIRES(mutex_) {
    auto it = map.find(name);
    if (it == map.end()) {
      it = map.emplace(std::string(name),
                       std::make_unique<typename Map::mapped_type::element_type>())
               .first;
    }
    return *it->second;
  }

  mutable util::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      DISCO_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      DISCO_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>> histograms_
      DISCO_GUARDED_BY(mutex_);
};

}  // namespace disco::telemetry
