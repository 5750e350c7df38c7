// Tests for flow-table deletion (backward-shift) and the monitor's
// NetFlow-style idle eviction.
#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "flowtable/flow_table.hpp"
#include "flowtable/monitor.hpp"
#include "util/rng.hpp"

namespace disco::flowtable {
namespace {

FiveTuple tuple(std::uint32_t i) {
  return FiveTuple{0xc0000000u + i * 7919, 0x0a0a0a0au,
                   static_cast<std::uint16_t>(i), 443, 6};
}

TEST(FlowTableErase, MissingKeyIsNoOp) {
  FlowTable table(16);
  EXPECT_FALSE(table.erase(tuple(1)).has_value());
}

TEST(FlowTableErase, FreesSlotForReuse) {
  FlowTable table(4);
  for (std::uint32_t i = 0; i < 4; ++i) ASSERT_TRUE(table.insert_or_get(tuple(i)));
  EXPECT_FALSE(table.insert_or_get(tuple(9)).has_value());  // full
  const auto freed = table.erase(tuple(2));
  ASSERT_TRUE(freed.has_value());
  EXPECT_EQ(table.size(), 3u);
  const auto slot = table.insert_or_get(tuple(9));
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(*slot, *freed);  // recycled slot
  EXPECT_FALSE(table.find(tuple(2)).has_value());
  EXPECT_TRUE(table.find(tuple(9)).has_value());
}

TEST(FlowTableErase, BackwardShiftKeepsClusterSearchable) {
  // Build a probe cluster, delete from its middle, and verify every
  // remaining key still resolves (the classic tombstone-free deletion trap).
  FlowTable table(512);
  std::vector<FiveTuple> keys;
  for (std::uint32_t i = 0; i < 400; ++i) {
    keys.push_back(tuple(i));
    ASSERT_TRUE(table.insert_or_get(keys.back()).has_value());
  }
  // Delete every third key.
  for (std::size_t i = 0; i < keys.size(); i += 3) {
    ASSERT_TRUE(table.erase(keys[i]).has_value()) << i;
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const bool deleted = (i % 3 == 0);
    EXPECT_EQ(table.find(keys[i]).has_value(), !deleted) << i;
  }
}

TEST(FlowTableErase, RandomizedChurnAgainstUnorderedMap) {
  FlowTable table(300);
  std::unordered_map<FiveTuple, std::uint32_t> shadow;
  util::Rng rng(7);
  for (int op = 0; op < 40000; ++op) {
    const auto key = tuple(static_cast<std::uint32_t>(rng.uniform_u64(0, 500)));
    if (rng.bernoulli(0.6)) {
      const auto slot = table.insert_or_get(key);
      const auto it = shadow.find(key);
      if (it != shadow.end()) {
        ASSERT_TRUE(slot.has_value());
        ASSERT_EQ(*slot, it->second) << "op=" << op;
      } else if (shadow.size() < 300) {
        ASSERT_TRUE(slot.has_value());
        shadow.emplace(key, *slot);
      } else {
        ASSERT_FALSE(slot.has_value());
      }
    } else {
      const auto erased = table.erase(key);
      ASSERT_EQ(erased.has_value(), shadow.erase(key) > 0) << "op=" << op;
    }
    ASSERT_EQ(table.size(), shadow.size());
  }
  // Final sweep: every shadow key resolves to its recorded slot.
  for (const auto& [key, slot] : shadow) {
    const auto found = table.find(key);
    ASSERT_TRUE(found.has_value());
    ASSERT_EQ(*found, slot);
  }
}

TEST(FlowTableErase, ForEachSkipsFreedSlots) {
  FlowTable table(8);
  for (std::uint32_t i = 0; i < 5; ++i) (void)table.insert_or_get(tuple(i));
  (void)table.erase(tuple(1));
  (void)table.erase(tuple(3));
  std::unordered_set<std::uint16_t> seen;
  table.for_each([&](std::uint32_t, const FiveTuple& key) {
    seen.insert(key.src_port);
  });
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_FALSE(seen.contains(1));
  EXPECT_FALSE(seen.contains(3));
}

// --- monitor idle eviction ----------------------------------------------------

FlowMonitor::Config monitor_config() {
  FlowMonitor::Config c;
  c.max_flows = 16;
  c.counter_bits = 12;
  c.max_flow_bytes = 1 << 24;
  c.max_flow_packets = 1 << 16;
  c.seed = 1;
  return c;
}

TEST(MonitorEviction, IdleFlowsExportedAndRemoved) {
  FlowMonitor monitor(monitor_config());
  // Flow 0 active at t = 0 only; flow 1 active through t = 10s.
  for (int i = 0; i < 100; ++i) (void)monitor.ingest(tuple(0), 500, 0);
  for (int i = 0; i < 100; ++i) {
    (void)monitor.ingest(tuple(1), 500, static_cast<std::uint64_t>(i) * 100'000'000);
  }
  const auto evicted = monitor.evict_idle(10'000'000'000ull, 5'000'000'000ull);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].flow, tuple(0));
  EXPECT_NEAR(evicted[0].bytes, 50000.0, 50000.0 * 0.3);
  EXPECT_FALSE(monitor.query(tuple(0)).has_value());
  EXPECT_TRUE(monitor.query(tuple(1)).has_value());
}

TEST(MonitorEviction, EvictedSlotReusedCleanly) {
  auto config = monitor_config();
  config.max_flows = 2;
  FlowMonitor monitor(config);
  (void)monitor.ingest(tuple(0), 1000, 0);
  (void)monitor.ingest(tuple(1), 1000, 0);
  EXPECT_FALSE(monitor.ingest(tuple(2), 1000, 1));  // full
  (void)monitor.evict_idle(10'000'000'000ull, 1'000'000'000ull);
  // Both idle flows evicted; new flows start from zero counters.
  ASSERT_TRUE(monitor.ingest(tuple(2), 700, 10'000'000'001ull));
  const auto est = monitor.query(tuple(2));
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->bytes, 700.0, 700.0 * 0.5);
  EXPECT_NEAR(est->packets, 1.0, 0.6);
}

TEST(MonitorEviction, NothingIdleNothingEvicted) {
  FlowMonitor monitor(monitor_config());
  for (std::uint32_t i = 0; i < 5; ++i) (void)monitor.ingest(tuple(i), 100, 1000);
  EXPECT_TRUE(monitor.evict_idle(1500, 1000).empty());
  EXPECT_EQ(monitor.totals().flows, 5u);
}

}  // namespace
}  // namespace disco::flowtable
