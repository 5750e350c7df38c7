// Telemetry subsystem: primitives, registry snapshots, exporters, and the
// instrumentation wired through the monitor stack.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"

namespace disco {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::LatencyHistogram;
using telemetry::MetricType;
using telemetry::Registry;
using telemetry::ScopeTimer;
using telemetry::Snapshot;

/// Enables telemetry for one test and restores the disabled default after,
/// so tests stay independent of execution order.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::set_enabled(true);
    Registry::global().reset_values();
  }
  void TearDown() override { telemetry::set_enabled(false); }
};

TEST_F(TelemetryTest, CounterCountsAndResets) {
  Counter c;
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(TelemetryTest, CounterIsDroppedWhileDisabled) {
  Counter c;
  Gauge g;
  g.set(7);
  LatencyHistogram h;
  h.record(9);
  telemetry::set_enabled(false);
  c.inc(100);
  g.set(42);
  g.add(5);
  h.record(123);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 7);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 9u);
  telemetry::set_enabled(true);
  c.inc(1);
  EXPECT_EQ(c.value(), 1u);
}

TEST_F(TelemetryTest, CounterIsAtomicUnderThreads) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIncsPerThread = 100'000;
  Counter c;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kIncsPerThread; ++i) c.inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kIncsPerThread);
}

TEST_F(TelemetryTest, GaugeSetAndSignedAdd) {
  Gauge g;
  g.set(10);
  g.add(5);
  g.add(-3);
  EXPECT_EQ(g.value(), 12);
  g.set(-4);
  EXPECT_EQ(g.value(), -4);
}

TEST_F(TelemetryTest, HistogramBucketIndexRoundTrips) {
  // Every sample must land in a bucket whose range contains it.
  for (std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{15}, std::uint64_t{16},
        std::uint64_t{100}, std::uint64_t{1000}, std::uint64_t{123456789},
        std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    const std::size_t index = LatencyHistogram::bucket_index(v);
    ASSERT_LT(index, LatencyHistogram::kNumBuckets);
    EXPECT_GE(LatencyHistogram::bucket_upper(index), v) << "value " << v;
    if (index > 0) {
      EXPECT_LT(LatencyHistogram::bucket_upper(index - 1), v) << "value " << v;
    }
  }
  // Upper bounds are strictly increasing -- the quantile walk relies on it.
  for (std::size_t i = 1; i < LatencyHistogram::kNumBuckets; ++i) {
    EXPECT_GT(LatencyHistogram::bucket_upper(i), LatencyHistogram::bucket_upper(i - 1));
  }
}

TEST_F(TelemetryTest, HistogramQuantilesOfUniformRange) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 500'500u);
  // Quantiles report bucket upper bounds: never below the true quantile,
  // and less than one sub-bucket width (25%) above it.
  EXPECT_GE(h.quantile(0.50), 500.0);
  EXPECT_LE(h.quantile(0.50), 500.0 * 1.25);
  EXPECT_GE(h.quantile(0.95), 950.0);
  EXPECT_LE(h.quantile(0.95), 950.0 * 1.25);
  EXPECT_GE(h.quantile(0.99), 990.0);
  EXPECT_LE(h.quantile(0.99), 990.0 * 1.25);
  // Degenerate quantiles stay within the recorded range.
  EXPECT_GE(h.quantile(0.0), 1.0);
  EXPECT_LE(h.quantile(1.0), 1023.0);
}

TEST_F(TelemetryTest, HistogramSmallValuesAreExact) {
  LatencyHistogram h;
  for (int i = 0; i < 10; ++i) h.record(3);
  h.record(7);
  EXPECT_EQ(h.quantile(0.5), 3.0);
  EXPECT_EQ(h.quantile(1.0), 7.0);
}

TEST_F(TelemetryTest, ScopeTimerRecordsNanoseconds) {
  LatencyHistogram h;
  {
    const ScopeTimer timer(h);
    // Any nonzero amount of work; the assertion is only on count.
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  EXPECT_EQ(h.count(), 1u);
}

TEST_F(TelemetryTest, ScopeTimerIsInertWhileDisabled) {
  LatencyHistogram h;
  telemetry::set_enabled(false);
  { const ScopeTimer timer(h); }
  telemetry::set_enabled(true);
  EXPECT_EQ(h.count(), 0u);
}

TEST_F(TelemetryTest, RegistrySharesMetricsByName) {
  Registry registry;
  Counter& a = registry.counter("x.events_total");
  Counter& b = registry.counter("x.events_total");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_NE(&a, &registry.counter("y.events_total"));
}

TEST_F(TelemetryTest, RegistrySnapshotIsSortedAndComplete) {
  Registry registry;
  registry.counter("b.count").inc(2);
  registry.gauge("a.level").set(-7);
  registry.histogram("c.dist").record(100);
  const Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "a.level");
  EXPECT_EQ(snap.metrics[0].type, MetricType::kGauge);
  EXPECT_EQ(snap.metrics[0].value, -7);
  EXPECT_EQ(snap.metrics[1].name, "b.count");
  EXPECT_EQ(snap.metrics[1].value, 2);
  EXPECT_EQ(snap.metrics[2].name, "c.dist");
  EXPECT_EQ(snap.metrics[2].histogram.count, 1u);
  ASSERT_EQ(snap.metrics[2].histogram.buckets.size(), 1u);
  EXPECT_GE(snap.metrics[2].histogram.buckets[0].upper, 100u);
}

TEST_F(TelemetryTest, SnapshotJsonRoundTrip) {
  Registry registry;
  registry.counter("flow_monitor.ingest_total").inc(123456);
  registry.gauge("flow_monitor.table_occupancy").set(512);
  auto& h = registry.histogram("flow_table.probe_length");
  util::Rng rng(3);
  for (int i = 0; i < 5000; ++i) h.record(rng.uniform_u64(1, 40));
  const Snapshot original = registry.snapshot();
  const std::string json = telemetry::to_json(original);
  const Snapshot parsed = telemetry::snapshot_from_json(json);
  EXPECT_EQ(parsed, original);
}

TEST_F(TelemetryTest, JsonParserRejectsGarbage) {
  EXPECT_THROW(telemetry::snapshot_from_json("not json"), std::runtime_error);
  EXPECT_THROW(telemetry::snapshot_from_json("{}"), std::runtime_error);
  EXPECT_THROW(telemetry::snapshot_from_json(
                   R"({"metrics": [{"name": "x", "type": "widget"}]})"),
               std::runtime_error);
  EXPECT_THROW(telemetry::snapshot_from_json(
                   R"({"metrics": [{"name": "x", "type": "counter"}]})"),
               std::runtime_error);
}

TEST_F(TelemetryTest, EmptySnapshotStillExportsValidJson) {
  const Snapshot empty;
  const std::string json = telemetry::to_json(empty);
  const Snapshot parsed = telemetry::snapshot_from_json(json);
  EXPECT_TRUE(parsed.metrics.empty());
  EXPECT_EQ(telemetry::to_text(empty), "");
}

TEST_F(TelemetryTest, TextExportListsEveryMetric) {
  Registry registry;
  registry.counter("a.total").inc(5);
  registry.histogram("b.dist").record(9);
  const std::string text = telemetry::to_text(registry.snapshot());
  EXPECT_NE(text.find("counter a.total 5"), std::string::npos);
  EXPECT_NE(text.find("histogram b.dist count=1 sum=9"), std::string::npos);
}

TEST_F(TelemetryTest, RegistryResetValuesKeepsNames) {
  Registry registry;
  registry.counter("a.total").inc(5);
  registry.histogram("b.dist").record(9);
  registry.reset_values();
  const Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.metrics.size(), 2u);
  EXPECT_EQ(snap.metrics[0].value, 0);
  EXPECT_EQ(snap.metrics[1].histogram.count, 0u);
}

// --- instrumentation through the monitor stack ------------------------------

flowtable::FiveTuple random_tuple(util::Rng& rng) {
  flowtable::FiveTuple t;
  t.src_ip = static_cast<std::uint32_t>(rng.next());
  t.dst_ip = static_cast<std::uint32_t>(rng.next());
  t.src_port = static_cast<std::uint16_t>(rng.uniform_u64(1024, 65535));
  t.dst_port = 443;
  t.protocol = 6;
  return t;
}

TEST_F(TelemetryTest, PipelineMonitorPerWorkerCountersSumToTotal) {
  pipeline::PipelineMonitor::Config config;
  config.base = {.max_flows = 4096, .counter_bits = 10};
  config.workers = 8;
  config.producers = 2;
  pipeline::PipelineMonitor monitor(config);
  // Draw packets from a flow pool well under capacity so no shard rejects
  // and every ingest must be accounted somewhere.
  util::Rng pool_rng(555);
  std::vector<flowtable::FiveTuple> pool;
  for (int i = 0; i < 2000; ++i) pool.push_back(random_tuple(pool_rng));
  constexpr unsigned kProducers = 2;
  constexpr std::uint64_t kPacketsPerProducer = 10000;
  std::vector<std::thread> producers;
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&monitor, &pool, p] {
      util::Rng rng(900 + p);
      for (std::uint64_t i = 0; i < kPacketsPerProducer; ++i) {
        const auto& tuple = pool[rng.uniform_u64(0, pool.size() - 1)];
        ASSERT_TRUE(monitor.ingest(p, tuple, 100));  // Block: lossless
      }
    });
  }
  for (auto& t : producers) t.join();
  monitor.drain();

  const std::uint64_t total = monitor.packets_seen();
  EXPECT_EQ(total, kProducers * kPacketsPerProducer);
  std::uint64_t worker_sum = 0;
  for (unsigned w = 0; w < monitor.worker_count(); ++w) {
    worker_sum += Registry::global()
                      .counter("pipeline.worker_" + std::to_string(w) +
                               ".ingest_total")
                      .value();
  }
  EXPECT_EQ(worker_sum, total);
}

TEST_F(TelemetryTest, MonitorStackPopulatesGlobalSnapshot) {
  pipeline::PipelineMonitor::Config config;
  config.base = {.max_flows = 1024, .counter_bits = 10};
  config.workers = 2;
  pipeline::PipelineMonitor monitor(config);
  util::Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    (void)monitor.ingest(0, random_tuple(rng), 64);
  }
  monitor.drain();

  const Snapshot snap = Registry::global().snapshot();
  auto value_of = [&](const std::string& name) -> std::int64_t {
    for (const auto& m : snap.metrics) {
      if (m.name == name) return m.value;
    }
    ADD_FAILURE() << "metric not found: " << name;
    return -1;
  };
  EXPECT_GT(value_of("pipeline.worker_0.ingest_total") +
                value_of("pipeline.worker_1.ingest_total"),
            0);
  // The flow-table probe histogram fills as a side effect of ingest.
  bool found_probe_hist = false;
  for (const auto& m : snap.metrics) {
    if (m.name == "flow_table.probe_length") {
      found_probe_hist = true;
      EXPECT_EQ(m.type, MetricType::kHistogram);
      EXPECT_GT(m.histogram.count, 0u);
      EXPECT_GE(m.histogram.p50, 1.0);
    }
  }
  EXPECT_TRUE(found_probe_hist);
}

}  // namespace
}  // namespace disco
