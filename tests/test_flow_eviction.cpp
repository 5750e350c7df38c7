// Tests for flow-table deletion (backward-shift), which the monitor's
// admission under table pressure uses to evict its victim.
#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "flowtable/flow_table.hpp"
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

}  // namespace
}  // namespace disco::flowtable
