// Concurrency stress tests for the telemetry Registry: the structure whose
// maps are DISCO_GUARDED_BY(mutex_).  Many threads register (colliding and
// distinct names), increment, snapshot, and reset concurrently; reference
// stability and exact counting must survive.  Run under TSan in CI, this is
// the dynamic companion to the static thread-safety annotations.
#include "telemetry/registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace disco::telemetry {
namespace {

// Telemetry is opt-in process-wide; enable it for the duration of each test
// (same pattern as test_telemetry.cpp).
class RegistryStress : public ::testing::Test {
 protected:
  void SetUp() override { set_enabled(true); }
  void TearDown() override { set_enabled(false); }
};

TEST_F(RegistryStress, ConcurrentLookupsOfOneNameShareOneCounter) {
  Registry registry;
  const unsigned threads = 8;
  const int lookups = 2000;
  std::vector<Counter*> first(threads, nullptr);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < lookups; ++i) {
        Counter& c = registry.counter("stress.shared_total");
        if (first[t] == nullptr) first[t] = &c;
        // Address must be stable across repeated lookups from this thread.
        ASSERT_EQ(&c, first[t]);
        c.inc();
      }
    });
  }
  for (auto& w : workers) w.join();
  // Every thread resolved the same metric object...
  for (unsigned t = 1; t < threads; ++t) ASSERT_EQ(first[t], first[0]);
  // ...and no increment was lost.
  EXPECT_EQ(first[0]->value(),
            static_cast<std::uint64_t>(threads) * lookups);
}

TEST_F(RegistryStress, DistinctNamesStayIndependentUnderChurn) {
  Registry registry;
  const unsigned threads = 8;
  const int metrics_per_thread = 50;
  const int increments = 200;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int m = 0; m < metrics_per_thread; ++m) {
        Counter& c = registry.counter("stress.t" + std::to_string(t) +
                                      ".m" + std::to_string(m));
        for (int i = 0; i < increments; ++i) c.inc();
      }
    });
  }
  for (auto& w : workers) w.join();
  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.metrics.size(),
            static_cast<std::size_t>(threads) * metrics_per_thread);
  for (const auto& m : snap.metrics) {
    EXPECT_EQ(m.value, increments) << m.name;
  }
}

TEST_F(RegistryStress, SnapshotsDuringRegistrationSeeConsistentState) {
  // Writers register-and-bump while a reader snapshots continuously: no
  // crash, no torn map state, and every observed value is a multiple of
  // the per-metric increment pattern (each metric is bumped to completion
  // before its writer moves on, so values are 0..increments).
  Registry registry;
  std::atomic<bool> stop{false};
  const int increments = 100;

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const Snapshot snap = registry.snapshot();
      for (const auto& m : snap.metrics) {
        ASSERT_GE(m.value, 0);
        ASSERT_LE(m.value, increments);
      }
    }
  });
  std::vector<std::thread> writers;
  for (unsigned t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      for (int m = 0; m < 100; ++m) {
        Counter& c = registry.counter("churn.t" + std::to_string(t) +
                                      ".m" + std::to_string(m));
        for (int i = 0; i < increments; ++i) c.inc();
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(registry.snapshot().metrics.size(), 400u);
}

TEST_F(RegistryStress, ResetRacesWithIncrementsWithoutCorruption) {
  // reset_values is documented as epoch-style: concurrent in-flight
  // increments may survive, but the value must always be a sane count
  // (never torn/garbage) and references stay valid.
  Registry registry;
  Counter& c = registry.counter("stress.reset_total");
  std::atomic<bool> stop{false};
  std::thread resetter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      registry.reset_values();
      std::this_thread::yield();
    }
  });
  const int increments = 200000;
  for (int i = 0; i < increments; ++i) c.inc();
  stop.store(true);
  resetter.join();
  EXPECT_LE(c.value(), static_cast<std::uint64_t>(increments));
  // Reference still valid and functional after all the resets.
  registry.reset_values();
  c.inc();
  EXPECT_EQ(c.value(), 1u);
}

TEST_F(RegistryStress, MixedMetricTypesUnderConcurrentRegistration) {
  Registry registry;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < 6; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 300; ++i) {
        registry.counter("mixed.counter_total").inc();
        registry.gauge("mixed.gauge").set(static_cast<std::int64_t>(t));
        registry.histogram("mixed.latency").record(100 + i);
      }
    });
  }
  for (auto& w : workers) w.join();
  const Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].value, 6 * 300);
  EXPECT_EQ(snap.metrics[2].histogram.count, 6u * 300u);
}

}  // namespace
}  // namespace disco::telemetry
