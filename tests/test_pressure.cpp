// Policy-matrix tests for the bounded-memory robustness layer
// (flowtable/pressure.hpp, docs/robustness.md): every admission x saturation
// combination across FlowMonitor and PipelineMonitor must (a) never exceed
// the flow budget, (b) reconcile its PressureStats with ground truth, and
// (c) keep heavy-flow estimates accurate under eviction churn.  The
// DISCO_FAULTS sections additionally drive the same paths through injected
// allocation failures and ring-full backpressure (src/util/fault.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "flowtable/monitor.hpp"
#include "pipeline/pipeline.hpp"
#include "util/fault.hpp"

namespace disco::flowtable {
namespace {

FiveTuple tuple(std::uint32_t i) {
  return FiveTuple{0x0a000000u + i, 0xc0a80001u,
                   static_cast<std::uint16_t>(1024 + (i & 0x3fff)), 443, 17};
}

FlowMonitor::Config policy_config(AdmissionPolicy admission,
                                  SaturationPolicy saturation) {
  FlowMonitor::Config c;
  c.max_flows = 64;
  c.counter_bits = 12;
  c.max_flow_bytes = 1 << 24;
  c.max_flow_packets = 1 << 16;
  c.seed = 0x5eed;
  c.pressure.admission = admission;
  c.pressure.saturation = saturation;
  return c;
}

/// One two-packet burst of `bytes` for `flow`, as a one-element batch.
std::size_t ingest_pair(FlowMonitor& monitor, const FiveTuple& flow,
                        std::uint64_t bytes) {
  const FlowBurst burst{flow, bytes, 2};
  return monitor.ingest_batch({&burst, 1});
}

struct PolicyCase {
  AdmissionPolicy admission;
  SaturationPolicy saturation;
};

constexpr PolicyCase kMatrix[] = {
    {AdmissionPolicy::Drop, SaturationPolicy::Saturate},
    {AdmissionPolicy::Drop, SaturationPolicy::RescaleB},
    {AdmissionPolicy::RandomizedAdmission, SaturationPolicy::Saturate},
    {AdmissionPolicy::RandomizedAdmission, SaturationPolicy::RescaleB},
    {AdmissionPolicy::EvictSmallest, SaturationPolicy::Saturate},
    {AdmissionPolicy::EvictSmallest, SaturationPolicy::RescaleB},
};

// The one invariant every policy satisfies on a distinct-flow trace:
//   live flows == accepted - rejected - evicted
// (Drop never evicts; RAP and EvictSmallest free one slot per admission
// beyond capacity, so occupancy pins at the budget).
void check_reconciliation(std::size_t live, std::uint64_t offered,
                          std::uint64_t accepted, const PressureStats& p) {
  EXPECT_EQ(accepted + p.flows_rejected, offered);
  EXPECT_EQ(live, accepted - p.flows_evicted);
}

TEST(PressureMatrix, FlowMonitorBudgetNeverExceeded) {
  for (const PolicyCase& pc : kMatrix) {
    FlowMonitor monitor(policy_config(pc.admission, pc.saturation));
    constexpr std::uint32_t kOffered = 512;
    std::uint64_t accepted = 0;
    for (std::uint32_t i = 0; i < kOffered; ++i) {
      if (monitor.ingest(tuple(i), 200 + i)) ++accepted;
      ASSERT_LE(monitor.table().size(), monitor.config().max_flows)
          << "admission=" << static_cast<int>(pc.admission);
    }
    check_reconciliation(monitor.table().size(), kOffered, accepted,
                         monitor.pressure());
    if (pc.admission == AdmissionPolicy::Drop) {
      EXPECT_EQ(monitor.pressure().flows_evicted, 0u);
      EXPECT_EQ(accepted, monitor.config().max_flows);
    } else {
      // Policies that evict keep the table pinned at the budget.
      EXPECT_EQ(monitor.table().size(), monitor.config().max_flows);
    }
    if (pc.admission == AdmissionPolicy::EvictSmallest) {
      // Deterministic admission: every offered flow gets in.
      EXPECT_EQ(accepted, kOffered);
      EXPECT_EQ(monitor.pressure().flows_evicted,
                kOffered - monitor.config().max_flows);
    }
  }
}

TEST(PressureMatrix, PipelineBudgetAndReconciliation) {
  for (const PolicyCase& pc : kMatrix) {
    pipeline::PipelineMonitor::Config config;
    config.base = policy_config(pc.admission, pc.saturation);
    config.base.max_flows = 256;
    config.workers = 2;
    config.producers = 1;
    config.backpressure = pipeline::Backpressure::Block;
    pipeline::PipelineMonitor monitor(config);
    const std::size_t per_shard =
        pipeline::PipelineMonitor::shard_config(config, 0).max_flows;
    constexpr std::uint32_t kOffered = 2048;
    std::uint64_t accepted = 0;
    for (std::uint32_t i = 0; i < kOffered; ++i) {
      if (monitor.ingest(0, tuple(i), 300)) ++accepted;
    }
    monitor.drain();
    EXPECT_EQ(accepted, kOffered);  // Block backpressure is lossless
    EXPECT_LE(monitor.totals().flows, per_shard * config.workers);
    // Pipeline ingest() success means "enqueued", not "admitted": table
    // pressure resolves later, on the worker.  With every offered flow
    // distinct, each is either live, rejected at a full shard, or was
    // admitted and then evicted for a later flow.
    const auto p = monitor.pressure();
    EXPECT_EQ(monitor.totals().flows + p.flows_rejected + p.flows_evicted,
              kOffered);
    monitor.stop();
  }
}

TEST(PressureMatrix, EpochReportCarriesPressure) {
  FlowMonitor monitor(policy_config(AdmissionPolicy::Drop,
                                    SaturationPolicy::Saturate));
  for (std::uint32_t i = 0; i < 256; ++i) (void)monitor.ingest(tuple(i), 100);
  const auto report = monitor.rotate();
  EXPECT_EQ(report.pressure.flows_rejected, 256u - monitor.config().max_flows);
  EXPECT_EQ(report.pressure.flows_rejected,
            monitor.pressure().flows_rejected);
}

// RAP's newcomer takes over the victim's counters: the victim's freed slot
// is the next one the table hands out, and only EvictSmallest zeroes it.  A
// counter never decreases, so the inheritance check is exact.
TEST(PressureMatrix, RapNewcomerInheritsVictimCounters) {
  const FiveTuple a = tuple(1);
  const FiveTuple b = tuple(2);
  for (const AdmissionPolicy admission :
       {AdmissionPolicy::RandomizedAdmission, AdmissionPolicy::EvictSmallest}) {
    SCOPED_TRACE("admission=" + std::to_string(static_cast<int>(admission)));
    auto config = policy_config(admission, SaturationPolicy::Saturate);
    config.max_flows = 1;
    FlowMonitor monitor(config);
    for (int i = 0; i < 100; ++i) ASSERT_TRUE(monitor.ingest(a, 1000));
    const auto victim = monitor.query(a);
    ASSERT_TRUE(victim.has_value());
    // RAP admits B with p = 1500 / (1500 + f(c_A)), about 1.5% a burst.
    int offered = 0;
    while (monitor.pressure().flows_evicted == 0 && offered < 10'000) {
      (void)monitor.ingest(b, 1500);
      ++offered;
    }
    ASSERT_EQ(monitor.pressure().flows_evicted, 1u);
    EXPECT_FALSE(monitor.query(a).has_value());
    const auto newcomer = monitor.query(b);
    ASSERT_TRUE(newcomer.has_value());
    if (admission == AdmissionPolicy::RandomizedAdmission) {
      EXPECT_GE(newcomer->bytes, victim->bytes);
      EXPECT_GE(newcomer->packets, victim->packets);
    } else {
      EXPECT_EQ(offered, 1);  // the first burst evicts A
      EXPECT_LT(newcomer->bytes, victim->bytes);
      EXPECT_LT(newcomer->packets, victim->packets);
    }
  }
}

// --- saturation policies ----------------------------------------------------

FlowMonitor::Config tiny_budget_config(SaturationPolicy saturation) {
  FlowMonitor::Config c;
  c.max_flows = 16;
  c.counter_bits = 8;
  c.max_flow_bytes = 1 << 16;   // provisioned for 64 KiB flows...
  c.max_flow_packets = 1 << 16;
  c.seed = 0xfeed;
  c.pressure.saturation = saturation;
  return c;
}

TEST(SaturationPolicy, SaturateClampsAndCounts) {
  FlowMonitor monitor(tiny_budget_config(SaturationPolicy::Saturate));
  // ...then driven 16x past the budget: the volume counter must clamp.
  for (int i = 0; i < 1024; ++i) (void)monitor.ingest(tuple(1), 1024);
  EXPECT_GT(monitor.pressure().counters_saturated, 0u);
  EXPECT_EQ(monitor.pressure().rescale_events, 0u);
  const auto est = monitor.query(tuple(1));
  ASSERT_TRUE(est.has_value());
  // A clamped counter under-reports -- that is the policy's documented trade.
  EXPECT_LT(est->bytes, 1024.0 * 1024.0);
}

TEST(SaturationPolicy, RescaleBExtendsRangeUnbiasedly) {
  FlowMonitor monitor(tiny_budget_config(SaturationPolicy::RescaleB));
  constexpr double kTrue = 1024.0 * 1024.0;  // 16x the provisioned budget
  for (int i = 0; i < 1024; ++i) (void)monitor.ingest(tuple(1), 1024);
  EXPECT_GT(monitor.pressure().rescale_events, 0u);
  const auto est = monitor.query(tuple(1));
  ASSERT_TRUE(est.has_value());
  // The grown scale keeps tracking: the estimate must reach well past the
  // original 64 KiB ceiling and land near the true volume (the CV bound
  // after a few growth-2x rescales is still ~0.2 at 8-bit counters).
  EXPECT_GT(est->bytes, 2.0 * (1 << 16));
  EXPECT_NEAR(est->bytes, kTrue, 0.5 * kTrue);
}

TEST(SaturationPolicy, RescaledScalePersistsAcrossRotate) {
  FlowMonitor monitor(tiny_budget_config(SaturationPolicy::RescaleB));
  for (int i = 0; i < 1024; ++i) (void)monitor.ingest(tuple(1), 1024);
  const std::uint64_t rescales = monitor.pressure().rescale_events;
  ASSERT_GT(rescales, 0u);
  (void)monitor.rotate();
  // The grown b is a deployment property: the same over-budget flow in the
  // next epoch must NOT trigger a fresh cascade of rescales.
  for (int i = 0; i < 1024; ++i) (void)monitor.ingest(tuple(2), 1024);
  EXPECT_EQ(monitor.pressure().rescale_events, rescales);
}

// --- accuracy under eviction churn ------------------------------------------

TEST(PressureAccuracy, HeavyFlowsSurviveChurnWithinCvBound) {
  // 16 heavy flows and a horde of mice fight over a 64-slot table under RAP.
  // Heavy flows must end up tracked, with estimates within the Theorem 2
  // normal-approximation envelope of their true volume.
  auto config = policy_config(AdmissionPolicy::RandomizedAdmission,
                              SaturationPolicy::Saturate);
  config.max_flows = 64;
  FlowMonitor monitor(config);

  constexpr std::uint32_t kHeavy = 16;
  constexpr int kRounds = 200;
  constexpr std::uint64_t kHeavyBurst = 2000;
  std::uint32_t mouse = 1000;
  for (int round = 0; round < kRounds; ++round) {
    for (std::uint32_t h = 0; h < kHeavy; ++h) {
      (void)ingest_pair(monitor, tuple(h), kHeavyBurst);
    }
    for (int m = 0; m < 8; ++m) {
      (void)monitor.ingest(tuple(mouse++), 120);
    }
  }

  const double b =
      core::DiscoParams::for_budget(config.max_flow_bytes, config.counter_bits).b();
  const double cv = std::sqrt((b - 1.0) / 2.0);
  const double true_bytes = static_cast<double>(kHeavyBurst) * kRounds;
  int tracked = 0;
  for (std::uint32_t h = 0; h < kHeavy; ++h) {
    const auto est = monitor.query(tuple(h));
    if (!est) continue;
    ++tracked;
    // 6 sigma, plus 10% slack for counter inheritance on re-admission.
    EXPECT_NEAR(est->bytes, true_bytes, (6.0 * cv + 0.1) * true_bytes)
        << "heavy flow " << h;
  }
  // RAP's guarantee is probabilistic; with pinned seeds this is a fixed
  // outcome and virtually all heavy flows should hold a slot.
  EXPECT_GE(tracked, static_cast<int>(kHeavy) - 1);
}

TEST(PressureAccuracy, EvictSmallestKeepsTopFlows) {
  auto config = policy_config(AdmissionPolicy::EvictSmallest,
                              SaturationPolicy::Saturate);
  config.max_flows = 64;
  FlowMonitor monitor(config);
  constexpr std::uint32_t kHeavy = 16;
  std::uint32_t mouse = 1000;
  for (int round = 0; round < 100; ++round) {
    for (std::uint32_t h = 0; h < kHeavy; ++h) {
      (void)ingest_pair(monitor, tuple(h), 4000);
    }
    for (int m = 0; m < 4; ++m) (void)monitor.ingest(tuple(mouse++), 80);
  }
  const auto top = monitor.top_k(kHeavy);
  int heavy_in_top = 0;
  for (const auto& e : top) {
    if (e.flow.src_ip - 0x0a000000u < kHeavy) ++heavy_in_top;
  }
  EXPECT_GE(heavy_in_top, static_cast<int>(kHeavy) - 2);
}

// --- fault-injection sections (compiled only with -DDISCO_FAULTS=ON) --------

#if DISCO_FAULTS

class FaultFixture : public ::testing::Test {
 protected:
  void TearDown() override { util::fault::disarm_all(); }
};

TEST_F(FaultFixture, AllocFailureCountdownRejectsExactly) {
  util::fault::Plan plan;
  plan.fail_count = 3;  // first 3 slot allocations fail, the rest pass
  util::fault::arm(util::fault::Point::kAllocFailure, plan);

  FlowMonitor monitor(policy_config(AdmissionPolicy::Drop,
                                    SaturationPolicy::Saturate));
  std::uint64_t accepted = 0;
  for (std::uint32_t i = 0; i < 10; ++i) {
    if (monitor.ingest(tuple(i), 100)) ++accepted;
  }
  EXPECT_EQ(accepted, 7u);
  EXPECT_EQ(monitor.pressure().flows_rejected, 3u);
  EXPECT_EQ(util::fault::trips(util::fault::Point::kAllocFailure), 3u);
  // Re-ingesting a rejected flow after disarm must succeed (full recovery).
  util::fault::disarm_all();
  EXPECT_TRUE(monitor.ingest(tuple(0), 100));
}

TEST_F(FaultFixture, AllocFailureNeverBreaksBudgetUnderEviction) {
  // Probabilistic allocation failure while an evicting policy churns: the
  // budget invariant must hold even when the post-eviction re-insert fails
  // (the slot is then simply lost until the next admission).
  util::fault::Plan plan;
  plan.probability = 0.2;
  plan.seed = 42;
  util::fault::arm(util::fault::Point::kAllocFailure, plan);

  FlowMonitor monitor(policy_config(AdmissionPolicy::EvictSmallest,
                                    SaturationPolicy::Saturate));
  for (std::uint32_t i = 0; i < 512; ++i) {
    (void)monitor.ingest(tuple(i), 200);
    ASSERT_LE(monitor.table().size(), monitor.config().max_flows);
  }
  EXPECT_GT(util::fault::trips(util::fault::Point::kAllocFailure), 0u);
}

TEST_F(FaultFixture, RingFullDropsAreCountedExactly) {
  util::fault::Plan plan;
  plan.start_after = 100;
  plan.period = 4;  // every 4th push attempt past the first 100 fails
  util::fault::arm(util::fault::Point::kRingFull, plan);

  pipeline::PipelineMonitor::Config config;
  config.base = policy_config(AdmissionPolicy::Drop, SaturationPolicy::Saturate);
  config.base.max_flows = 4096;
  config.workers = 1;
  config.backpressure = pipeline::Backpressure::Drop;
  pipeline::PipelineMonitor monitor(config);

  constexpr std::uint32_t kPackets = 1000;
  std::uint64_t accepted = 0;
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    if (monitor.ingest(0, tuple(i), 100)) ++accepted;
  }
  monitor.drain();
  const std::uint64_t trips = util::fault::trips(util::fault::Point::kRingFull);
  EXPECT_GT(trips, 0u);
  EXPECT_EQ(monitor.dropped(), trips);
  EXPECT_EQ(accepted + monitor.dropped(), kPackets);
  // Every accepted packet must be applied downstream despite the faults.
  EXPECT_EQ(monitor.packets_seen(), accepted);
  monitor.stop();
}

// The same with runs: a failed reservation drops whole runs, and both the
// return values and dropped() count their packets.  One worker (runs formed
// in the ring span) and four (runs bucketed by worker).
TEST_F(FaultFixture, RingFullDropsCountRunsInPackets) {
  std::vector<pipeline::PipelineMonitor::PacketEvent> trace;
  for (std::uint32_t run = 0; trace.size() < 20000; ++run) {
    for (std::uint32_t p = 0; p < 1 + run % 16; ++p) {
      trace.push_back({tuple(run % 64), 100 + p});
    }
  }
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    util::fault::Plan plan;
    plan.start_after = 20;
    plan.period = 4;
    util::fault::arm(util::fault::Point::kRingFull, plan);

    pipeline::PipelineMonitor::Config config;
    config.base = policy_config(AdmissionPolicy::Drop, SaturationPolicy::Saturate);
    config.base.max_flows = 4096;
    config.workers = workers;
    config.backpressure = pipeline::Backpressure::Drop;
    pipeline::PipelineMonitor monitor(config);

    std::uint64_t accepted = 0;
    std::size_t n = 0;
    for (std::size_t off = 0; off < trace.size(); off += n) {
      n = std::min(n % 300 + 37, trace.size() - off);  // uneven calls
      const std::size_t got = monitor.ingest_batch(0, trace.data() + off, n);
      ASSERT_LE(got, n);
      accepted += got;
    }
    monitor.drain();
    const std::uint64_t trips = util::fault::trips(util::fault::Point::kRingFull);
    EXPECT_GT(trips, 0u);
    EXPECT_GE(monitor.dropped(), trips);  // each trip drops at least one run
    EXPECT_EQ(accepted + monitor.dropped(), trace.size());
    EXPECT_EQ(monitor.packets_seen(), accepted);
    monitor.stop();
  }
}

#endif  // DISCO_FAULTS

}  // namespace
}  // namespace disco::flowtable
