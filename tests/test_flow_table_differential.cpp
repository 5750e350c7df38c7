// Differential suite: the SIMD tag-probe engine vs. the scalar reference.
//
// BasicFlowTable is templated on its scan engine (flowtable/tag_probe.hpp)
// precisely so this suite can run both engines side by side in ONE binary
// and demand bit-identical tables: identical group masks => identical probe
// decisions => identical slots, sizes, rejections, probe statistics, and
// backward-shift deletions.  Every randomized trial also checks both tables
// against a std::unordered_map mirror, so "identical" can never mean
// "identically wrong".
//
// On builds without SIMD (non-x86, -DDISCO_SIMD=OFF) the UseSimd=true
// instantiation degrades to the scalar engine and this suite pins
// scalar-vs-scalar -- still worth running, since CI's scalar-probe job
// executes exactly that configuration under UBSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "flowtable/flow_table.hpp"
#include "util/rng.hpp"

namespace disco::flowtable {
namespace {

using SimdTable = BasicFlowTable<FiveTuple, true>;
using ScalarTable = BasicFlowTable<FiveTuple, false>;

FiveTuple make_tuple(std::uint32_t i) {
  return FiveTuple{0x0a000000u + i, 0xc0a80001u,
                   static_cast<std::uint16_t>(1024 + (i & 0x3fff)), 443, 17};
}

/// Asserts the two tables hold the same flows in the same slots: sizes and
/// the full (slot, key) relation from for_each.
template <typename A, typename B>
void expect_same_flows(const A& simd, const B& scalar) {
  ASSERT_EQ(simd.size(), scalar.size());
  ASSERT_EQ(simd.bucket_count(), scalar.bucket_count());
  std::vector<std::pair<std::uint32_t, FiveTuple>> a, b;
  simd.for_each([&](std::uint32_t slot, const FiveTuple& key) {
    a.emplace_back(slot, key);
  });
  scalar.for_each([&](std::uint32_t slot, const FiveTuple& key) {
    b.emplace_back(slot, key);
  });
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    EXPECT_EQ(a[i].second, b[i].second);
  }
}

/// Asserts every observable of the two tables matches: counters, sizes, and
/// the full (slot, key) relation from for_each.
template <typename A, typename B>
void expect_tables_identical(const A& simd, const B& scalar) {
  EXPECT_EQ(simd.rejected_flows(), scalar.rejected_flows());
  EXPECT_EQ(simd.total_probes(), scalar.total_probes());
  EXPECT_EQ(simd.total_lookups(), scalar.total_lookups());
  expect_same_flows(simd, scalar);
}

// The core fuzz: randomized insert/find/erase interleavings over a key pool
// larger than capacity (so the table saturates and rejects), with erase
// weight high enough that slots recycle and backward-shift clusters churn.
// Every operation's return value must match across engines AND against an
// unordered_map mirror of flow -> slot.
TEST(FlowTableDifferential, RandomizedInterleavingsAreBitIdentical) {
  constexpr std::size_t kCapacity = 256;
  constexpr std::uint32_t kPool = 600;  // > capacity: forces rejections
  constexpr int kOps = 20000;

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SimdTable simd(kCapacity);
    ScalarTable scalar(kCapacity);
    std::unordered_map<std::uint32_t, std::uint32_t> mirror;  // flow -> slot
    util::Rng rng(0xd1f * seed);

    for (int op = 0; op < kOps; ++op) {
      const auto flow = static_cast<std::uint32_t>(rng.uniform_u64(0, kPool - 1));
      const FiveTuple key = make_tuple(flow);
      const double what = rng.next_double();
      if (what < 0.5) {
        const auto a = simd.insert_or_get(key);
        const auto b = scalar.insert_or_get(key);
        ASSERT_EQ(a, b) << "seed " << seed << " op " << op;
        if (a) {
          auto [it, inserted] = mirror.emplace(flow, *a);
          if (!inserted) {
            ASSERT_EQ(it->second, *a)
                << "existing flow returned a different slot";
          }
        } else {
          ASSERT_EQ(mirror.count(flow), 0u)
              << "tracked flow was rejected";
          ASSERT_EQ(mirror.size(), kCapacity) << "rejected below capacity";
        }
      } else if (what < 0.8) {
        const auto a = simd.find(key);
        const auto b = scalar.find(key);
        ASSERT_EQ(a, b) << "seed " << seed << " op " << op;
        const auto it = mirror.find(flow);
        if (it == mirror.end()) {
          ASSERT_FALSE(a.has_value());
        } else {
          ASSERT_TRUE(a.has_value());
          ASSERT_EQ(*a, it->second);
        }
      } else {
        const auto a = simd.erase(key);
        const auto b = scalar.erase(key);
        ASSERT_EQ(a, b) << "seed " << seed << " op " << op;
        const auto it = mirror.find(flow);
        if (it == mirror.end()) {
          ASSERT_FALSE(a.has_value());
        } else {
          ASSERT_EQ(*a, it->second);
          mirror.erase(it);
        }
      }
    }

    expect_tables_identical(simd, scalar);
    ASSERT_EQ(simd.size(), mirror.size());
    // Post-trial sweep: every mirrored flow findable at its slot, every
    // non-mirrored pool flow absent -- in both engines.
    for (std::uint32_t flow = 0; flow < kPool; ++flow) {
      const FiveTuple key = make_tuple(flow);
      const auto a = simd.find(key);
      const auto b = scalar.find(key);
      ASSERT_EQ(a, b);
      const auto it = mirror.find(flow);
      if (it == mirror.end()) {
        ASSERT_FALSE(a.has_value()) << "ghost flow " << flow;
      } else {
        ASSERT_TRUE(a.has_value()) << "lost flow " << flow;
        ASSERT_EQ(*a, it->second);
      }
    }
    expect_tables_identical(simd, scalar);  // sweep lookups counted equally
  }
}

// Backward-shift torture: a tiny table (one or two probe groups) packed to
// capacity so every cluster spans group boundaries and wraps the array,
// then erased in random order with reinserts in between.  This is where a
// tag that failed to move with its bucket -- or a wrap-mirror that went
// stale -- breaks probe sequences.
TEST(FlowTableDifferential, BackwardShiftDeletionUnderWrapAround) {
  constexpr std::size_t kCapacity = 23;  // 32 buckets: two probe groups
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SimdTable simd(kCapacity);
    ScalarTable scalar(kCapacity);
    ASSERT_EQ(simd.bucket_count(), 32u);
    util::Rng rng(0xbacc + seed);

    std::vector<std::uint32_t> live;
    std::uint32_t next_flow = 0;
    // Fill to capacity, then alternate erase-one / insert-one 500 times so
    // clusters continually re-form across the wrap point.
    for (std::size_t i = 0; i < kCapacity; ++i) {
      const FiveTuple key = make_tuple(next_flow);
      ASSERT_EQ(simd.insert_or_get(key), scalar.insert_or_get(key));
      live.push_back(next_flow++);
    }
    for (int round = 0; round < 500; ++round) {
      const auto victim_idx =
          static_cast<std::size_t>(rng.uniform_u64(0, live.size() - 1));
      const std::uint32_t victim = live[victim_idx];
      live[victim_idx] = live.back();
      live.pop_back();
      const FiveTuple vkey = make_tuple(victim);
      const auto ea = simd.erase(vkey);
      const auto eb = scalar.erase(vkey);
      ASSERT_EQ(ea, eb);
      ASSERT_TRUE(ea.has_value());

      const FiveTuple nkey = make_tuple(next_flow);
      const auto ia = simd.insert_or_get(nkey);
      const auto ib = scalar.insert_or_get(nkey);
      ASSERT_EQ(ia, ib);
      ASSERT_TRUE(ia.has_value());
      // Slot recycling: the table is at capacity, so the insert must reuse
      // the slot the erase just freed.
      EXPECT_EQ(*ia, *ea);
      live.push_back(next_flow++);

      // Every live flow must remain reachable after the shift.
      for (const std::uint32_t flow : live) {
        const auto fa = simd.find(make_tuple(flow));
        ASSERT_EQ(fa, scalar.find(make_tuple(flow)));
        ASSERT_TRUE(fa.has_value()) << "flow " << flow << " lost after "
                                    << "erasing " << victim;
      }
    }
    expect_tables_identical(simd, scalar);
  }
}

/// One operation of a mixed insert/find/erase sequence, applied to `table`;
/// returns the slot the operation reported.
template <typename Table>
std::optional<std::uint32_t> apply_op(Table& table, double what,
                                      const FiveTuple& key) {
  if (what < 0.5) return table.insert_or_get(key);
  if (what < 0.75) return table.find(key);
  return table.erase(key);
}

// clear() must restore both engines to an identical pristine state (tags,
// mirror region, slot lists) while preserving the probe statistics.  It
// resets only the tags, so erase churn first scrambles the bucket array it
// leaves behind; afterwards each engine must answer a mixed sequence op for
// op exactly like a freshly built table of its own engine.
TEST(FlowTableDifferential, ClearResetsBothEnginesIdentically) {
  SimdTable simd(64);
  ScalarTable scalar(64);
  for (std::uint32_t i = 0; i < 64; ++i) {
    ASSERT_EQ(simd.insert_or_get(make_tuple(i)),
              scalar.insert_or_get(make_tuple(i)));
  }
  util::Rng churn(0xc1ea);
  for (int op = 0; op < 400; ++op) {
    const FiveTuple key =
        make_tuple(static_cast<std::uint32_t>(churn.uniform_u64(0, 95)));
    if (churn.bernoulli(0.5)) {
      ASSERT_EQ(simd.erase(key), scalar.erase(key));
    } else {
      ASSERT_EQ(simd.insert_or_get(key), scalar.insert_or_get(key));
    }
  }
  simd.clear();
  scalar.clear();
  expect_tables_identical(simd, scalar);
  EXPECT_EQ(simd.size(), 0u);
  for (std::uint32_t i = 0; i < 64; ++i) {
    const auto a = simd.insert_or_get(make_tuple(i));
    ASSERT_EQ(a, scalar.insert_or_get(make_tuple(i)));
    ASSERT_TRUE(a.has_value());
  }
  expect_tables_identical(simd, scalar);

  simd.clear();
  scalar.clear();
  SimdTable fresh_simd(64);
  ScalarTable fresh_scalar(64);
  const std::uint64_t probes_before = simd.total_probes();
  const std::uint64_t lookups_before = simd.total_lookups();
  const std::uint64_t rejected_before = simd.rejected_flows();
  util::Rng mixed(0x5eed);
  for (int op = 0; op < 4000; ++op) {
    const FiveTuple key =
        make_tuple(static_cast<std::uint32_t>(mixed.uniform_u64(0, 95)));
    const double what = mixed.next_double();
    const auto a = apply_op(simd, what, key);
    ASSERT_EQ(a, apply_op(fresh_simd, what, key)) << "op " << op;
    const auto b = apply_op(scalar, what, key);
    ASSERT_EQ(b, apply_op(fresh_scalar, what, key)) << "op " << op;
    ASSERT_EQ(a, b) << "op " << op;
  }
  expect_same_flows(simd, fresh_simd);
  expect_same_flows(scalar, fresh_scalar);
  expect_tables_identical(simd, scalar);
  EXPECT_EQ(simd.total_probes() - probes_before, fresh_simd.total_probes());
  EXPECT_EQ(simd.total_lookups() - lookups_before, fresh_simd.total_lookups());
  EXPECT_EQ(simd.rejected_flows() - rejected_before,
            fresh_simd.rejected_flows());
}

// The caller-supplied-hash overloads (the batched-prefetch ingest path)
// must behave exactly like the hashing ones.
TEST(FlowTableDifferential, ExplicitHashOverloadsMatchImplicit) {
  SimdTable simd(128);
  ScalarTable scalar(128);
  util::Rng rng(0x4a5);
  for (int op = 0; op < 4000; ++op) {
    const auto flow = static_cast<std::uint32_t>(rng.uniform_u64(0, 199));
    const FiveTuple key = make_tuple(flow);
    const std::uint64_t hash = SimdTable::hash_of(key);
    ASSERT_EQ(hash, ScalarTable::hash_of(key));
    simd.prefetch(hash);  // must be a pure hint: no observable effect
    if ((op & 3) == 0) {
      ASSERT_EQ(simd.find(key, hash), scalar.find(key));
    } else {
      ASSERT_EQ(simd.insert_or_get(key, hash), scalar.insert_or_get(key));
    }
  }
  expect_tables_identical(simd, scalar);
}

}  // namespace
}  // namespace disco::flowtable
