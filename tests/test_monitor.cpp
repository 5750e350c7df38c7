// Unit tests for the FlowMonitor facade.
#include "flowtable/monitor.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "trace/synthetic.hpp"
#include "util/math.hpp"

namespace disco::flowtable {
namespace {

FiveTuple tuple(std::uint32_t i) {
  return FiveTuple{0x0a000000u + i, 0xc0a80001u,
                   static_cast<std::uint16_t>(1024 + i), 443, 17};
}

FlowMonitor::Config small_config() {
  FlowMonitor::Config c;
  c.max_flows = 512;
  c.counter_bits = 12;
  c.max_flow_bytes = 1 << 24;
  c.max_flow_packets = 1 << 16;
  c.seed = 99;
  return c;
}

TEST(FlowMonitor, QueryUnknownFlowIsEmpty) {
  FlowMonitor monitor(small_config());
  EXPECT_FALSE(monitor.query(tuple(0)).has_value());
}

TEST(FlowMonitor, TracksBytesAndPackets) {
  FlowMonitor monitor(small_config());
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(monitor.ingest(tuple(1), 500));
  const auto est = monitor.query(tuple(1));
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->bytes, 500.0 * 1000, 500.0 * 1000 * 0.25);
  EXPECT_NEAR(est->packets, 1000.0, 1000.0 * 0.25);
  EXPECT_EQ(monitor.packets_seen(), 1000u);
}

TEST(FlowMonitor, RejectsWhenTableFull) {
  auto config = small_config();
  config.max_flows = 8;
  FlowMonitor monitor(config);
  for (std::uint32_t i = 0; i < 8; ++i) ASSERT_TRUE(monitor.ingest(tuple(i), 100));
  EXPECT_FALSE(monitor.ingest(tuple(100), 100));
  EXPECT_EQ(monitor.table().rejected_flows(), 1u);
  EXPECT_EQ(monitor.packets_seen(), 8u);  // rejected packet not counted
}

TEST(FlowMonitor, TopKOrderingAndSize) {
  FlowMonitor monitor(small_config());
  // Flow volumes 1x, 5x, 25x.
  for (int i = 0; i < 20; ++i) (void)monitor.ingest(tuple(0), 200);
  for (int i = 0; i < 100; ++i) (void)monitor.ingest(tuple(1), 200);
  for (int i = 0; i < 500; ++i) (void)monitor.ingest(tuple(2), 200);
  const auto top = monitor.top_k(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].flow, tuple(2));
  EXPECT_EQ(top[1].flow, tuple(1));
  EXPECT_GE(top[0].bytes, top[1].bytes);
  // k larger than population clips.
  EXPECT_EQ(monitor.top_k(50).size(), 3u);
}

TEST(FlowMonitor, TotalsApproximateTruth) {
  FlowMonitor monitor(small_config());
  util::Rng rng(3);
  const auto flows = trace::scenario1().make_flows(100, rng);
  std::uint64_t truth_bytes = 0;
  std::uint64_t truth_packets = 0;
  for (const auto& f : flows) {
    for (auto l : f.lengths) (void)monitor.ingest(tuple(f.id), l);
    truth_bytes += f.bytes();
    truth_packets += f.packets();
  }
  const auto totals = monitor.totals();
  EXPECT_EQ(totals.flows, 100u);
  EXPECT_NEAR(totals.bytes, static_cast<double>(truth_bytes),
              static_cast<double>(truth_bytes) * 0.1);
  EXPECT_NEAR(totals.packets, static_cast<double>(truth_packets),
              static_cast<double>(truth_packets) * 0.1);
}

TEST(FlowMonitor, MemoryReportScalesWithBudget) {
  auto config = small_config();
  const FlowMonitor monitor(config);
  const auto memory = monitor.memory();
  EXPECT_EQ(memory.volume_counter_bits,
            config.max_flows * static_cast<std::size_t>(config.counter_bits));
  EXPECT_EQ(memory.size_counter_bits, memory.volume_counter_bits);
  EXPECT_GT(memory.flow_table_bits, 0u);
  EXPECT_EQ(memory.total(), memory.volume_counter_bits +
                                memory.size_counter_bits + memory.flow_table_bits);
}

TEST(FlowMonitor, DeterministicUnderSeed) {
  auto run = [](std::uint64_t seed) {
    auto config = small_config();
    config.seed = seed;
    FlowMonitor monitor(config);
    for (int i = 0; i < 5000; ++i) {
      (void)monitor.ingest(tuple(static_cast<std::uint32_t>(i % 37)),
                           64 + static_cast<std::uint32_t>(i % 1400));
    }
    return monitor.totals().bytes;
  };
  EXPECT_DOUBLE_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));
}

// The batch API's contract is exact equivalence with the same bursts fed
// one per call -- accepted count, counters, pressure tallies and both RNG
// streams -- under every admission x saturation x estimator combination.
// More distinct flows than max_flows make the admission path run, and a
// max_flow_bytes / max_flow_packets well under the heaviest flow makes the
// saturation path run, so no cell passes without exercising its policy.
using IngestCase = std::tuple<AdmissionPolicy, SaturationPolicy, EstimatorKind>;

class IngestBatch : public ::testing::TestWithParam<IngestCase> {};

TEST_P(IngestBatch, MatchesSequentialBursts) {
  const auto [admission, saturation, estimator] = GetParam();
  auto config = small_config();
  config.max_flow_bytes = 1 << 16;
  config.max_flow_packets = 1 << 6;
  config.pressure.admission = admission;
  config.pressure.saturation = saturation;
  config.estimator = estimator;
  constexpr std::uint32_t kFlows = 800;  // > max_flows = 512

  std::vector<FlowBurst> bursts;
  util::Rng source(7);
  for (int i = 0; i < 3000; ++i) {
    bursts.push_back(FlowBurst{
        tuple(static_cast<std::uint32_t>(source.uniform_u64(0, kFlows - 1))),
        source.uniform_u64(64, 90'000), source.uniform_u64(1, 60)});
  }

  FlowMonitor batched(config);
  FlowMonitor sequential(config);
  const std::size_t accepted_batched = batched.ingest_batch(bursts);
  std::size_t accepted_seq = 0;
  for (const FlowBurst& b : bursts) accepted_seq += sequential.ingest_batch({&b, 1});

  EXPECT_EQ(accepted_batched, accepted_seq);
  EXPECT_EQ(batched.packets_seen(), sequential.packets_seen());
  const PressureStats& pb = batched.pressure();
  const PressureStats& ps = sequential.pressure();
  EXPECT_EQ(pb.flows_rejected, ps.flows_rejected);
  EXPECT_EQ(pb.flows_evicted, ps.flows_evicted);
  EXPECT_EQ(pb.counters_saturated, ps.counters_saturated);
  EXPECT_EQ(pb.rescale_events, ps.rescale_events);
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    const auto eb = batched.query(tuple(i));
    const auto es = sequential.query(tuple(i));
    ASSERT_EQ(eb.has_value(), es.has_value()) << "flow " << i;
    if (eb) {
      ASSERT_EQ(eb->bytes, es->bytes) << "flow " << i;
      ASSERT_EQ(eb->packets, es->packets) << "flow " << i;
    }
  }

  // Each cell must have run its policies, or equality proves nothing.
  if (admission == AdmissionPolicy::Drop) {
    EXPECT_GT(pb.flows_rejected, 0u);
    EXPECT_EQ(pb.flows_evicted, 0u);
  } else {
    EXPECT_GT(pb.flows_evicted, 0u);
  }
  // Additive counters always rescale (by halving) instead of saturating.
  if (saturation == SaturationPolicy::RescaleB ||
      estimator == EstimatorKind::AdditiveError) {
    EXPECT_GT(pb.rescale_events, 0u);
  } else {
    EXPECT_GT(pb.counters_saturated, 0u);
  }

  // Both RNG streams still in lockstep: one more identical ingest on each
  // side must stay bit-identical.
  EXPECT_EQ(batched.ingest(tuple(3), 999), sequential.ingest(tuple(3), 999));
  const auto eb = batched.query(tuple(3));
  const auto es = sequential.query(tuple(3));
  ASSERT_EQ(eb.has_value(), es.has_value());
  if (eb) {
    EXPECT_EQ(eb->bytes, es->bytes);
  }
  EXPECT_EQ(batched.pressure().flows_evicted, sequential.pressure().flows_evicted);
}

// A burst's carried hash only saves the probe a hash: bursts that carry
// hash_tuple(flow) and the same bursts carrying 0 (hashed by the monitor)
// must give bit-equal estimates, packet counts and rejections, after one
// batch and after a second.  A tight table makes rejections happen.
TEST(FlowMonitor, CarriedHashesMatchRecomputedHashes) {
  auto config = small_config();
  config.max_flows = 300;
  constexpr std::uint32_t kFlows = 400;  // > max_flows: some are rejected
  std::vector<FlowBurst> plain;
  util::Rng source(17);
  for (int i = 0; i < 4000; ++i) {
    plain.push_back(FlowBurst{
        tuple(static_cast<std::uint32_t>(source.uniform_u64(0, kFlows - 1))),
        source.uniform_u64(64, 9'000), source.uniform_u64(1, 6)});
  }
  std::vector<FlowBurst> carried = plain;
  for (FlowBurst& b : carried) b.hash = hash_tuple(b.flow);

  FlowMonitor with(config);
  FlowMonitor without(config);
  const std::span<const FlowBurst> all_carried(carried);
  const std::span<const FlowBurst> all_plain(plain);
  const std::size_t half = plain.size() / 2;
  for (std::size_t from = 0; from < plain.size(); from += half) {
    EXPECT_EQ(with.ingest_batch(all_carried.subspan(from, half)),
              without.ingest_batch(all_plain.subspan(from, half)));
    EXPECT_EQ(with.packets_seen(), without.packets_seen());
    EXPECT_EQ(with.table().rejected_flows(), without.table().rejected_flows());
    EXPECT_EQ(with.pressure().flows_rejected,
              without.pressure().flows_rejected);
    for (std::uint32_t i = 0; i < kFlows; ++i) {
      const auto a = with.query(tuple(i));
      const auto b = without.query(tuple(i));
      ASSERT_EQ(a.has_value(), b.has_value()) << "flow " << i;
      if (a) {
        ASSERT_EQ(a->bytes, b->bytes) << "flow " << i;
        ASSERT_EQ(a->packets, b->packets) << "flow " << i;
      }
    }
  }
  EXPECT_GT(with.table().rejected_flows(), 0u);
}

std::string ingest_case_name(const ::testing::TestParamInfo<IngestCase>& info) {
  static const char* const kAdmission[] = {"Drop", "RandomizedAdmission",
                                           "EvictSmallest"};
  static const char* const kSaturation[] = {"Saturate", "RescaleB"};
  const auto [admission, saturation, estimator] = info.param;
  return std::string(kAdmission[static_cast<int>(admission)]) + "_" +
         kSaturation[static_cast<int>(saturation)] + "_" +
         (estimator == EstimatorKind::Disco ? "Disco" : "AdditiveError");
}

INSTANTIATE_TEST_SUITE_P(
    FlowMonitor, IngestBatch,
    ::testing::Combine(::testing::Values(AdmissionPolicy::Drop,
                                         AdmissionPolicy::RandomizedAdmission,
                                         AdmissionPolicy::EvictSmallest),
                       ::testing::Values(SaturationPolicy::Saturate,
                                         SaturationPolicy::RescaleB),
                       ::testing::Values(EstimatorKind::Disco,
                                         EstimatorKind::AdditiveError)),
    ingest_case_name);

}  // namespace
}  // namespace disco::flowtable
