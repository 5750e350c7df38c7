// Snapshot data model and exporters.
//
// A Snapshot is a plain-data copy of every registered metric at one moment
// -- the boundary between the lock-free hot-path primitives (metrics.hpp)
// and anything that wants to look at them (CLI dumps, tests, future
// scrapers).  An empty snapshot still exports valid JSON, so consumers need
// no special case for a run that registered nothing.
//
// Two renderings are provided:
//   to_text  -- one metric per line, for eyeballing
//   to_json  -- stable machine-readable form (schema in docs/telemetry.md)
// plus snapshot_from_json, the inverse of to_json, used by tests for
// round-trip validation and by tooling that post-processes dumps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace disco::telemetry {

enum class MetricType { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* to_string(MetricType type) noexcept;

struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  struct Bucket {
    std::uint64_t upper = 0;  ///< inclusive upper bound of the bucket
    std::uint64_t count = 0;
    friend bool operator==(const Bucket&, const Bucket&) = default;
  };
  std::vector<Bucket> buckets;  ///< non-empty buckets, ascending upper bound
  friend bool operator==(const HistogramSnapshot&, const HistogramSnapshot&) = default;
};

struct MetricSnapshot {
  std::string name;
  MetricType type = MetricType::kCounter;
  std::int64_t value = 0;       ///< counter/gauge value (unused for histograms)
  HistogramSnapshot histogram;  ///< populated for histograms only
  friend bool operator==(const MetricSnapshot&, const MetricSnapshot&) = default;
};

struct Snapshot {
  std::vector<MetricSnapshot> metrics;  ///< sorted by name
  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

/// One metric per line: `<type> <name> <value or histogram summary>`.
[[nodiscard]] std::string to_text(const Snapshot& snapshot);

/// Pretty-printed JSON object: {"metrics": [...]}.
[[nodiscard]] std::string to_json(const Snapshot& snapshot);

/// Parses the output of to_json back into a Snapshot.  Accepts any JSON with
/// the expected shape (field order and whitespace are free).  Throws
/// std::runtime_error on malformed input.
[[nodiscard]] Snapshot snapshot_from_json(const std::string& json);

}  // namespace disco::telemetry
