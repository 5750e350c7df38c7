// Unit tests for the open-addressing flow table.
#include "flowtable/flow_table.hpp"

#include <gtest/gtest.h>

#include <unordered_map>

#include "util/rng.hpp"

namespace disco::flowtable {
namespace {

FiveTuple tuple(std::uint32_t i) {
  return FiveTuple{0x0a000000u + i, 0xc0a80001u,
                   static_cast<std::uint16_t>(i * 7 + 1),
                   static_cast<std::uint16_t>(443), 6};
}

TEST(FiveTuple, EqualityAndHash) {
  const FiveTuple a = tuple(1);
  FiveTuple b = tuple(1);
  EXPECT_EQ(a, b);
  EXPECT_EQ(hash_tuple(a), hash_tuple(b));
  b.dst_port = 80;
  EXPECT_NE(a, b);
  EXPECT_NE(hash_tuple(a), hash_tuple(b));  // avalanche makes this near-sure
}

TEST(FlowTable, RejectsBadConfig) {
  EXPECT_THROW(FlowTable(0), std::invalid_argument);
}

TEST(FlowTable, InsertAssignsDenseSequentialSlots) {
  FlowTable table(100);
  for (std::uint32_t i = 0; i < 50; ++i) {
    const auto slot = table.insert_or_get(tuple(i));
    ASSERT_TRUE(slot.has_value());
    EXPECT_EQ(*slot, i);
  }
  EXPECT_EQ(table.size(), 50u);
}

TEST(FlowTable, ReinsertReturnsSameSlot) {
  FlowTable table(10);
  const auto first = table.insert_or_get(tuple(3));
  const auto second = table.insert_or_get(tuple(3));
  ASSERT_TRUE(first && second);
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, FindWithoutInsert) {
  FlowTable table(10);
  EXPECT_FALSE(table.find(tuple(1)).has_value());
  (void)table.insert_or_get(tuple(1));
  const auto slot = table.find(tuple(1));
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(*slot, 0u);
}

TEST(FlowTable, RejectsWhenFullAndCounts) {
  FlowTable table(4);
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(table.insert_or_get(tuple(i)).has_value());
  }
  EXPECT_FALSE(table.insert_or_get(tuple(99)).has_value());
  EXPECT_EQ(table.rejected_flows(), 1u);
  // Existing flows still resolve after rejections.
  EXPECT_TRUE(table.insert_or_get(tuple(2)).has_value());
}

TEST(FlowTable, KeysMatchSlotOrder) {
  FlowTable table(10);
  for (std::uint32_t i = 0; i < 5; ++i) (void)table.insert_or_get(tuple(i * 3));
  const auto& keys = table.keys();
  ASSERT_EQ(keys.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(keys[i], tuple(i * 3));
  }
}

TEST(FlowTable, AgreesWithUnorderedMapUnderChurn) {
  FlowTable table(2000);
  std::unordered_map<FiveTuple, std::uint32_t> shadow;
  util::Rng rng(5);
  for (int op = 0; op < 50000; ++op) {
    const auto key = tuple(static_cast<std::uint32_t>(rng.uniform_u64(0, 1500)));
    const auto slot = table.insert_or_get(key);
    ASSERT_TRUE(slot.has_value());
    const auto [it, inserted] = shadow.emplace(key, *slot);
    if (!inserted) { ASSERT_EQ(it->second, *slot); }
  }
  EXPECT_EQ(table.size(), shadow.size());
}

TEST(FlowTable, ProbeLengthStaysModestBelowMaxLoad) {
  FlowTable table(10000);
  for (std::uint32_t i = 0; i < 10000; ++i) (void)table.insert_or_get(tuple(i));
  // At 75% load linear probing averages a handful of probes.
  EXPECT_LT(table.mean_probe_length(), 4.0);
}

TEST(FlowTable, StorageAccountingNonZero) {
  FlowTable table(100);
  EXPECT_GT(table.storage_bits(), 100u * 8u);
}

}  // namespace
}  // namespace disco::flowtable
