// Statistical regression suite for the cross-site merge (src/collect).
//
// A fleet of REAL monitors -- heterogeneous counter widths (so each site
// runs a different effective base b) plus an additive-error site -- splits
// one deterministic workload; the Collector merges their epoch reports.
// The suite pins the two properties the aggregation tier sells:
//
//   * unbiasedness survives the merge: the mean signed error of the merged
//     global estimate across seeded trials is zero within 3 standard
//     errors (Theorem 1 is per-update, and summing unbiased estimators
//     with ANY mix of error models stays unbiased);
//   * the aggregate intervals are honest: Theorem-2 confidence intervals
//     on merged totals and merged top-k flows cover the exact ground truth
//     at no less than ~the nominal rate (the variance bound is
//     conservative, so empirical coverage should exceed it).
//
// Everything is seeded: failures reproduce exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "collect/collector.hpp"
#include "flowtable/monitor.hpp"

namespace disco::collect {
namespace {

constexpr int kTrials = 50;
constexpr std::uint32_t kFlows = 32;
constexpr std::uint32_t kPacketLen = 800;

FiveTuple tuple(std::uint32_t i) {
  return FiveTuple{0x0a000000u + i, 0xc0a80001u,
                   static_cast<std::uint16_t>(1024 + i), 443, 6};
}

/// True packet count of flow i (deterministic, skewed).
std::uint64_t true_packets(std::uint32_t i) { return 40 + 22ull * i * i / 7; }

double true_total_bytes() {
  double total = 0.0;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    total += static_cast<double>(true_packets(i)) * kPacketLen;
  }
  return total;
}

/// One heterogeneous fleet trial: three sites with different error models
/// split every flow's packets round-robin, rotate, and merge.
Collector::GlobalTotals run_trial(int trial, std::vector<GlobalEstimate>* top,
                                  double confidence = 0.95) {
  flowtable::FlowMonitor::Config wide;   // fine-grained DISCO counters
  wide.max_flows = 256;
  wide.counter_bits = 12;
  wide.max_flow_bytes = 1 << 26;
  wide.max_flow_packets = 1 << 16;
  flowtable::FlowMonitor::Config narrow = wide;  // coarser: larger b
  narrow.counter_bits = 9;
  flowtable::FlowMonitor::Config additive = wide;  // different model entirely
  additive.estimator = flowtable::EstimatorKind::AdditiveError;

  std::vector<flowtable::FlowMonitor> sites;
  wide.seed = static_cast<std::uint64_t>(trial) * 1009 + 1;
  narrow.seed = static_cast<std::uint64_t>(trial) * 1009 + 2;
  additive.seed = static_cast<std::uint64_t>(trial) * 1009 + 3;
  sites.emplace_back(wide);
  sites.emplace_back(narrow);
  sites.emplace_back(additive);

  for (std::uint32_t i = 0; i < kFlows; ++i) {
    const std::uint64_t packets = true_packets(i);
    for (std::uint64_t p = 0; p < packets; ++p) {
      (void)sites[p % sites.size()].ingest(tuple(i), kPacketLen);
    }
  }

  CollectorConfig config;
  config.confidence = confidence;
  Collector collector(config);
  for (std::uint32_t s = 0; s < sites.size(); ++s) {
    (void)collector.ingest(s, sites[s].rotate());
  }
  collector.finalize_all();
  if (top != nullptr) *top = collector.top_k(8);
  return collector.totals();
}

TEST(CollectStatistical, MergedTotalsAreUnbiasedAcrossHeterogeneousFleet) {
  const double truth = true_total_bytes();
  std::vector<double> errors;
  errors.reserve(kTrials);
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto totals = run_trial(trial, nullptr);
    errors.push_back(totals.bytes - truth);
  }
  const double n = static_cast<double>(errors.size());
  double mean = 0.0;
  for (double e : errors) mean += e;
  mean /= n;
  double var = 0.0;
  for (double e : errors) var += (e - mean) * (e - mean);
  var /= (n - 1.0);
  const double stderr_mean = std::sqrt(var / n);
  // Unbiasedness at 3 standard errors (~99.7% under the CLT).  Guard the
  // degenerate all-exact case with a tiny absolute floor.
  EXPECT_LE(std::abs(mean), 3.0 * stderr_mean + 1e-6 * truth)
      << "mean signed error " << mean << " vs stderr " << stderr_mean;
}

TEST(CollectStatistical, AggregateIntervalsCoverTruthAtNominalRate) {
  const double truth = true_total_bytes();
  int covered = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto totals = run_trial(trial, nullptr);
    ASSERT_LT(totals.bytes_low, totals.bytes_high);
    if (totals.bytes_low <= truth && truth <= totals.bytes_high) ++covered;
  }
  // Nominal 95%; the Theorem-2 variance bound is conservative, so the
  // empirical rate should not dip below 90% over 50 seeded trials.
  EXPECT_GE(covered, static_cast<int>(0.90 * kTrials))
      << covered << "/" << kTrials << " trials covered";
}

TEST(CollectStatistical, TopKIntervalsCoverPerFlowTruth) {
  int checks = 0;
  int covered = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<GlobalEstimate> top;
    (void)run_trial(trial, &top);
    ASSERT_FALSE(top.empty());
    for (const auto& flow : top) {
      ASSERT_TRUE(flow.interval_valid);
      EXPECT_EQ(flow.sites, 3u);  // every site saw every flow
      const std::uint32_t id = flow.flow.src_ip & 0xffffu;
      const double flow_truth =
          static_cast<double>(true_packets(id)) * kPacketLen;
      ++checks;
      if (flow.bytes_low <= flow_truth && flow_truth <= flow.bytes_high) {
        ++covered;
      }
    }
  }
  EXPECT_GE(covered, static_cast<int>(0.90 * checks))
      << covered << "/" << checks << " per-flow intervals covered";
}

TEST(CollectStatistical, HigherConfidenceWidensIntervals) {
  const auto t95 = run_trial(0, nullptr, 0.95);
  const auto t999 = run_trial(0, nullptr, 0.999);
  EXPECT_DOUBLE_EQ(t95.bytes, t999.bytes);  // estimate itself unchanged
  EXPECT_LT(t95.bytes_high - t95.bytes_low, t999.bytes_high - t999.bytes_low);
}

}  // namespace
}  // namespace disco::collect
