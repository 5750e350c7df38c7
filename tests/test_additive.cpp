// AdditiveErrorArray: unit coverage plus the statistical regressions that
// pin its accuracy claims (unbiasedness through halve-all rescales and
// merges, and the additive_error_sd envelope from core/theory.hpp), in the
// style of the DISCO pressure-layer suites: fixed seeds, fixed workloads,
// deterministic outcomes.  Ends with FlowMonitor end-to-end coverage of
// Config.estimator == AdditiveError.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/additive.hpp"
#include "core/theory.hpp"
#include "flowtable/monitor.hpp"
#include "util/rng.hpp"

namespace disco::core {
namespace {

// --- unit behaviour ---------------------------------------------------------

TEST(AdditiveErrorArray, ExactAtScaleZero) {
  // Before the first overflow the scale is 0, the grid is 1 byte, and every
  // update lands exactly: the additive estimator starts as a plain counter.
  AdditiveErrorArray array(4, 20);
  util::Rng rng(0x1);
  array.add(0, 1000, rng);
  array.add(0, 337, rng);
  array.add(2, 65535, rng);
  EXPECT_EQ(array.scale(), 0u);
  EXPECT_EQ(array.unit(), 1.0);
  EXPECT_EQ(array.rescale_count(), 0u);
  EXPECT_EQ(array.overflow_count(), 0u);
  EXPECT_DOUBLE_EQ(array.estimate(0), 1337.0);
  EXPECT_DOUBLE_EQ(array.estimate(1), 0.0);
  EXPECT_DOUBLE_EQ(array.estimate(2), 65535.0);
  EXPECT_EQ(array.max_value(), 65535u);
}

TEST(AdditiveErrorArray, AddDrawsExactlyOnceAndZeroIsFree) {
  // The hot-path contract CounterBank relies on: one draw per positive
  // update (mirroring DiscoArray::add), none for l == 0.
  AdditiveErrorArray array(1, 16);
  util::Rng rng(0x2c0ffee);
  util::Rng shadow(0x2c0ffee);
  array.add(0, 4096, rng);
  (void)shadow.next_double();
  EXPECT_EQ(rng.next(), shadow.next());
  array.add(0, 0, rng);  // no-op: no draw
  EXPECT_EQ(rng.next(), shadow.next());
}

TEST(AdditiveErrorArray, SetValueRejectsOverWidth) {
  AdditiveErrorArray array(2, 8);
  array.set_value(0, 255);
  EXPECT_EQ(array.value(0), 255u);
  EXPECT_THROW(array.set_value(0, 256), std::out_of_range);
}

TEST(AdditiveErrorArray, ResetRestoresExactScale) {
  // reset() starts a new epoch: counters zeroed AND the scale re-exacted
  // (unlike DiscoArray, whose rescaled b is permanent).  The halve-all
  // tally stays cumulative -- it feeds the monitor's pressure watermark.
  AdditiveErrorArray array(1, 8);
  util::Rng rng(0x7);
  array.add(0, 100000, rng);  // forces several halvings into 8 bits
  ASSERT_GT(array.scale(), 0u);
  const std::uint64_t halvings = array.rescale_count();
  ASSERT_GE(halvings, 1u);
  array.reset();
  EXPECT_EQ(array.scale(), 0u);
  EXPECT_EQ(array.value(0), 0u);
  EXPECT_EQ(array.rescale_count(), halvings);
  array.add(0, 200, rng);
  EXPECT_DOUBLE_EQ(array.estimate(0), 200.0);  // exact again post-reset
}

TEST(AdditiveErrorArray, MergeRejectsGeometryMismatch) {
  util::Rng rng(0x9);
  const AdditiveErrorArray a(4, 8);
  const AdditiveErrorArray b(8, 8);
  const AdditiveErrorArray c(4, 10);
  EXPECT_THROW((void)AdditiveErrorArray::merge(a, b, rng), std::invalid_argument);
  EXPECT_THROW((void)AdditiveErrorArray::merge(a, c, rng), std::invalid_argument);
}

TEST(AdditiveErrorArray, MergeRetriesAtHigherScaleOnOverflow) {
  // Two near-full scale-0 arrays cannot merge at scale 0 (250 + 250 > 255),
  // so the merge must retry one scale up and still land near the sum.
  util::Rng rng(0x11);
  AdditiveErrorArray a(1, 8);
  AdditiveErrorArray b(1, 8);
  a.set_value(0, 250);
  b.set_value(0, 250);
  const AdditiveErrorArray merged = AdditiveErrorArray::merge(a, b, rng);
  EXPECT_GE(merged.scale(), 1u);
  // Each operand rounds once per halving step: at scale 1 the estimate can
  // move by at most unit() per operand.
  EXPECT_NEAR(merged.estimate(0), 500.0, 2.0 * merged.unit());
}

TEST(Theory, AdditiveErrorSdFormula) {
  // sd = unit * sqrt(roundings) / 2 -- each grid rounding is mean-zero with
  // variance at most unit^2 / 4.
  EXPECT_DOUBLE_EQ(theory::additive_error_sd(1.0, 0), 0.0);
  EXPECT_DOUBLE_EQ(theory::additive_error_sd(2.0, 4), 2.0);
  EXPECT_DOUBLE_EQ(theory::additive_error_sd(512.0, 100), 2560.0);
}

// --- statistical regressions (pinned seeds) ---------------------------------

TEST(AdditiveRegression, HalvingKeepsEstimatesUnbiasedWithin3Sigma) {
  // The additive analogue of RescaleBEstimatesUnbiasedWithin3Sigma
  // (test_disco_properties.cpp): 400 independent trials of one 8-bit
  // counter driven to 64 KiB in 1 KiB bursts, far past its 255-count width,
  // so every trial rescales repeatedly.  Randomized-rounding halvings
  // promise E[halved] = c/2, so the mean estimate must sit within 3 sigma
  // of the true volume -- a halve-all that truncated would bias low and
  // trip this.
  constexpr int kTrials = 400;
  constexpr std::uint64_t kTrue = 1 << 16;
  constexpr std::uint64_t kBurst = 1024;
  constexpr std::uint64_t kBursts = kTrue / kBurst;

  double sum = 0.0;
  double final_unit = 0.0;
  std::uint64_t max_halvings = 0;
  for (int t = 0; t < kTrials; ++t) {
    util::Rng rng(0xadd1 + static_cast<std::uint64_t>(t));
    AdditiveErrorArray array(1, 8);
    for (std::uint64_t sent = 0; sent < kTrue; sent += kBurst) {
      array.add(0, kBurst, rng);
    }
    EXPECT_GE(array.rescale_count(), 1u);
    sum += array.estimate(0);
    final_unit = array.unit();
    max_halvings = std::max(max_halvings, array.rescale_count());
  }
  const double mean = sum / kTrials;
  // Conservative per-trial roundings bound at the FINAL (largest) unit: one
  // per add, plus one counter rounding and one increment rounding per
  // halve-all.
  const double sigma =
      theory::additive_error_sd(final_unit, kBursts + 2 * max_halvings);
  EXPECT_NEAR(mean, static_cast<double>(kTrue),
              3.0 * sigma / std::sqrt(static_cast<double>(kTrials)));
}

TEST(AdditiveRegression, MergeIsUnbiasedWithin3Sigma) {
  // 300 trials: two single-slot arrays at (typically) different scales are
  // merged; the mean merged estimate must match the summed traffic.  The
  // scale-alignment shift_down is where a floor instead of a randomized
  // rounding would bias low.
  constexpr int kTrials = 300;
  constexpr std::uint64_t kTrueA = 50000;  // rescales an 8-bit counter
  constexpr std::uint64_t kTrueB = 200;    // stays exact at scale 0

  double sum = 0.0;
  double final_unit = 0.0;
  std::uint64_t max_halvings = 0;
  for (int t = 0; t < kTrials; ++t) {
    util::Rng rng(0x3e16e + static_cast<std::uint64_t>(t));
    AdditiveErrorArray a(1, 8);
    AdditiveErrorArray b(1, 8);
    for (int i = 0; i < 50; ++i) a.add(0, kTrueA / 50, rng);
    for (int i = 0; i < 4; ++i) b.add(0, kTrueB / 4, rng);
    ASSERT_GT(a.scale(), b.scale());
    const AdditiveErrorArray merged = AdditiveErrorArray::merge(a, b, rng);
    EXPECT_EQ(merged.rescale_count(), a.rescale_count() + b.rescale_count());
    sum += merged.estimate(0);
    final_unit = std::max(final_unit, merged.unit());
    max_halvings = std::max(max_halvings, merged.rescale_count());
  }
  const double mean = sum / kTrials;
  const double sigma =
      theory::additive_error_sd(final_unit, 54 + 2 * max_halvings + 2);
  EXPECT_NEAR(mean, static_cast<double>(kTrueA + kTrueB),
              3.0 * sigma / std::sqrt(static_cast<double>(kTrials)));
}

TEST(AdditiveRegression, ZipfErrorsWithinTheoryEnvelope) {
  // Zipf(1.0) burst trace (the RapZipfHeavyHitters workload shape) into one
  // AdditiveErrorArray: every top-100 flow's absolute error must sit inside
  // 6x the additive_error_sd envelope computed from its own rounding count,
  // and the aggregate estimate must track total traffic.  Pinned seed =>
  // deterministic outcome; a regression in add()'s rounding or halve_all
  // moves these errors by orders of magnitude, not fractions.
  constexpr std::uint32_t kFlows = 4096;
  constexpr std::uint32_t kBursts = 200000;
  constexpr std::uint64_t kBurstBytes = 999;  // never a multiple of 2^s

  std::vector<double> cdf(kFlows);
  double h = 0.0;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    h += 1.0 / static_cast<double>(i + 1);
    cdf[i] = h;
  }
  for (double& x : cdf) x /= h;

  AdditiveErrorArray array(kFlows, 16);
  util::Rng rng(0x21bf);
  util::Rng trace_rng(0x217f);
  std::vector<double> truth(kFlows, 0.0);
  std::vector<std::uint64_t> adds(kFlows, 0);
  for (std::uint32_t burst = 0; burst < kBursts; ++burst) {
    const double u = trace_rng.next_double();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    const auto flow = static_cast<std::uint32_t>(it - cdf.begin());
    truth[flow] += static_cast<double>(kBurstBytes);
    array.add(flow, kBurstBytes, rng);
    ++adds[flow];
  }
  ASSERT_GE(array.rescale_count(), 1u);  // 16-bit counters must have halved

  double est_total = 0.0, true_total = 0.0;
  std::uint64_t total_roundings = 0;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    est_total += array.estimate(i);
    true_total += truth[i];
    total_roundings += adds[i] + array.rescale_count();
  }
  for (std::uint32_t i = 0; i < 100; ++i) {
    const double sd = theory::additive_error_sd(
        array.unit(), adds[i] + array.rescale_count());
    EXPECT_LE(std::abs(array.estimate(i) - truth[i]), 6.0 * sd)
        << "flow " << i << ": est " << array.estimate(i) << " truth "
        << truth[i] << " unit " << array.unit();
  }
  // Per-flow errors are independent draws, so the total's sd adds in
  // quadrature -- the same envelope with the summed rounding count.
  EXPECT_NEAR(est_total, true_total,
              6.0 * theory::additive_error_sd(array.unit(), total_roundings));
}

// --- FlowMonitor integration ------------------------------------------------

flowtable::FiveTuple tuple_of(std::uint32_t i) {
  return flowtable::FiveTuple{0x0a000000u + i, 0xc0a80001u,
                              static_cast<std::uint16_t>(1024 + (i & 0x3fff)),
                              443, 17};
}

TEST(AdditiveMonitor, ExactEstimatesBeforeFirstRescale) {
  // With 16-bit counters and per-flow totals under 2^16, additive mode is a
  // plain exact counter: queries and totals must equal ground truth to the
  // bit, something DISCO mode can never promise.
  flowtable::FlowMonitor::Config config;
  config.max_flows = 1024;
  config.counter_bits = 16;
  config.estimator = flowtable::EstimatorKind::AdditiveError;
  config.seed = 0xadd;
  flowtable::FlowMonitor monitor(config);

  constexpr std::uint32_t kFlows = 300;
  constexpr int kBurstsPerFlow = 20;
  for (int r = 0; r < kBurstsPerFlow; ++r) {
    for (std::uint32_t i = 0; i < kFlows; ++i) {
      const flowtable::FlowBurst burst{tuple_of(i), 1400, 3, 0};
      ASSERT_EQ(monitor.ingest_batch({&burst, 1}), 1u);
    }
  }
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    const auto est = monitor.query(tuple_of(i));
    ASSERT_TRUE(est.has_value());
    EXPECT_DOUBLE_EQ(est->bytes, 1400.0 * kBurstsPerFlow);
    EXPECT_DOUBLE_EQ(est->packets, 3.0 * kBurstsPerFlow);
  }
  const auto totals = monitor.totals();
  EXPECT_DOUBLE_EQ(totals.bytes, 1400.0 * kBurstsPerFlow * kFlows);
  EXPECT_DOUBLE_EQ(totals.packets, 3.0 * kBurstsPerFlow * kFlows);
  EXPECT_EQ(totals.flows, kFlows);
}

TEST(AdditiveMonitor, RotateReportsErrorUnitInsteadOfBase) {
  flowtable::FlowMonitor::Config config;
  config.max_flows = 256;
  config.counter_bits = 12;  // 4095 max: one elephant flow forces halvings
  config.estimator = flowtable::EstimatorKind::AdditiveError;
  config.seed = 0xadd2;
  flowtable::FlowMonitor monitor(config);

  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(monitor.ingest(tuple_of(0), 1400));
  }
  auto report = monitor.rotate();
  // Additive mode: no DISCO base -- b == 1.0 marks the estimates exact-in-
  // expectation for the modules layer (confidence intervals degenerate),
  // and the additive grid rides in volume_error_unit.
  EXPECT_DOUBLE_EQ(report.volume_b, 1.0);
  EXPECT_DOUBLE_EQ(report.size_b, 1.0);
  // 200 * 1400 = 280000 >> 4095: the volume array must have halved, so its
  // grid is a real power of two > 1.  Sizes (200 packets) stayed exact.
  EXPECT_GE(report.volume_error_unit, 2.0);
  EXPECT_DOUBLE_EQ(report.size_error_unit, 1.0);
  ASSERT_EQ(report.flows.size(), 1u);
  EXPECT_NEAR(report.flows[0].bytes, 280000.0,
              6.0 * theory::additive_error_sd(
                        report.volume_error_unit,
                        200 + 2 * monitor.pressure().rescale_events));
  EXPECT_GT(monitor.pressure().rescale_events, 0u);

  // Next epoch starts exact again (reset() re-exacts the scale).
  ASSERT_TRUE(monitor.ingest(tuple_of(1), 100));
  const auto report2 = monitor.rotate();
  EXPECT_DOUBLE_EQ(report2.volume_error_unit, 1.0);
  ASSERT_EQ(report2.flows.size(), 1u);
  EXPECT_DOUBLE_EQ(report2.flows[0].bytes, 100.0);
}

TEST(AdditiveMonitor, SnapshotThrows) {
  // The v3 snapshot format stores an effective DISCO base; additive mode
  // has none and must refuse loudly rather than write a lying snapshot.
  flowtable::FlowMonitor::Config config;
  config.estimator = flowtable::EstimatorKind::AdditiveError;
  flowtable::FlowMonitor monitor(config);
  ASSERT_TRUE(monitor.ingest(tuple_of(0), 100));
  std::ostringstream out;
  EXPECT_THROW(monitor.snapshot(out), std::runtime_error);
}

}  // namespace
}  // namespace disco::core
