// Unit tests for the DISCO core: update rule (Algorithm 1), unbiased
// estimation (Theorem 1), arrays, and burst aggregation.
#include "core/disco.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace disco::core {
namespace {

TEST(DiscoParams, EstimateOfZeroCounterIsZero) {
  DiscoParams params(1.01);
  EXPECT_DOUBLE_EQ(params.estimate(0), 0.0);
}

TEST(DiscoParams, EstimateOfOneIsOne) {
  // f(1) = 1 for every base: the smallest flow costs one counter unit.
  for (double b : {1.001, 1.02, 1.5}) {
    DiscoParams params(b);
    EXPECT_NEAR(params.estimate(1), 1.0, 1e-9) << "b=" << b;
  }
}

TEST(DiscoParams, DecideProbabilityInRange) {
  DiscoParams params(1.02);
  for (std::uint64_t c : {0ull, 1ull, 10ull, 100ull, 500ull}) {
    for (std::uint64_t l : {1ull, 40ull, 81ull, 1420ull, 65535ull}) {
      const UpdateDecision d = params.decide(c, l);
      EXPECT_GE(d.p_d, 0.0) << "c=" << c << " l=" << l;
      EXPECT_LE(d.p_d, 1.0) << "c=" << c << " l=" << l;
    }
  }
}

TEST(DiscoParams, DecideExpectationEqualsLength) {
  // E[f(c')] - f(c) must equal l exactly -- the substance of Theorem 1,
  // checked deterministically from the (delta, p_d) pair.
  DiscoParams params(1.013);
  const auto& scale = params.scale();
  for (std::uint64_t c : {0ull, 3ull, 57ull, 300ull}) {
    for (std::uint64_t l : {1ull, 59ull, 642ull, 1500ull}) {
      const UpdateDecision d = params.decide(c, l);
      const double f_lo = scale.f(static_cast<double>(c + d.delta));
      const double f_hi = scale.f(static_cast<double>(c + d.delta + 1));
      const double expected = (1.0 - d.p_d) * f_lo + d.p_d * f_hi;
      const double fc = scale.f(static_cast<double>(c));
      EXPECT_NEAR(expected - fc, static_cast<double>(l),
                  1e-6 * static_cast<double>(l) + 1e-9)
          << "c=" << c << " l=" << l;
    }
  }
}

TEST(DiscoParams, ExactLandingGetsProbabilityOne) {
  // If l + f(c) lands exactly on f(j), the update must reach j surely.
  DiscoParams params(2.0);  // f(c) = 2^c - 1: integer landings easy to build
  // c=0, l = f(3) = 7: target exactly f(3).
  const UpdateDecision d = params.decide(0, 7);
  EXPECT_EQ(d.delta + 1, 3u);
  EXPECT_NEAR(d.p_d, 1.0, 1e-9);
}

TEST(DiscoParams, UpdateNeverDecreasesCounter) {
  DiscoParams params(1.005);
  util::Rng rng(99);
  std::uint64_t c = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t next = params.update(c, 1 + (i % 1500), rng);
    ASSERT_GE(next, c);
    c = next;
  }
}

TEST(DiscoParams, NumericSaturationIsANoOpNotUb) {
  // A counter far past any provisioned budget overflows f(c) in doubles;
  // the decision must degrade to a no-op, never undefined behaviour.
  DiscoParams params(1.5);  // ln(1.5)*5000 >> 709: f(c) = inf
  const UpdateDecision d = params.decide(5000, 1500);
  EXPECT_EQ(d.delta, 0u);
  EXPECT_DOUBLE_EQ(d.p_d, 0.0);
  util::Rng rng(1);
  EXPECT_EQ(params.update(5000, 1500, rng), 5000u);
}

TEST(DiscoParams, ZeroLengthIsNoOp) {
  DiscoParams params(1.01);
  util::Rng rng(1);
  EXPECT_EQ(params.update(42, 0, rng), 42u);
}

TEST(DiscoParams, LargerPacketsGiveSmallerRelativeIncrements) {
  // The discount property (paper Fig. 1): counter increments grow much more
  // slowly than packet sizes once the counter is warm.
  DiscoParams params(1.01);
  const UpdateDecision small = params.decide(400, 100);
  const UpdateDecision large = params.decide(400, 1000);
  // 10x the bytes must cost far less than 10x the increment.
  const double inc_small = static_cast<double>(small.delta) + small.p_d;
  const double inc_large = static_cast<double>(large.delta) + large.p_d;
  EXPECT_LT(inc_large, 10.0 * inc_small);
  EXPECT_GT(inc_large, inc_small);
}

TEST(DiscoParams, ForBudgetCoversMaxFlow) {
  const auto params = DiscoParams::for_budget(std::uint64_t{1} << 30, 12);
  const double c_max = static_cast<double>((1 << 12) - 1);
  EXPECT_GE(params.scale().f(c_max), std::exp2(30) * (1 - 1e-9));
}

TEST(DiscoCounter, Fig1WalkthroughCompresses) {
  // The paper's Fig. 1: packets 81, 1420, 142, 691 (total 2334).  DISCO's
  // counter must end far below 2334 while estimating near it.
  DiscoParams params(DiscoParams::for_budget(1 << 20, 10));
  DiscoCounter counter(params);
  util::Rng rng(2334);
  for (std::uint64_t l : {81ull, 1420ull, 142ull, 691ull}) counter.add(l, rng);
  EXPECT_LT(counter.value(), 2334u / 4);  // strong compression
  EXPECT_GT(counter.value(), 0u);
  EXPECT_NEAR(counter.estimate(), 2334.0, 2334.0 * 0.5);  // single run, loose
}

TEST(DiscoCounter, UnbiasedOverManyRuns) {
  // Theorem 1 end-to-end: average estimate over repetitions converges to the
  // true byte count.
  const DiscoParams params(1.02);
  const std::vector<std::uint64_t> packet_lens = {81, 1420, 142, 691, 40, 1500, 333};
  std::uint64_t truth = 0;
  for (auto l : packet_lens) truth += l;

  util::Rng rng(7);
  const int runs = 4000;
  double sum = 0.0;
  for (int r = 0; r < runs; ++r) {
    DiscoCounter c(params);
    for (auto l : packet_lens) c.add(l, rng);
    sum += c.estimate();
  }
  const double mean = sum / runs;
  // cv bound for b=1.02 is ~0.099; tolerance 4 sigma / sqrt(runs).
  EXPECT_NEAR(mean, static_cast<double>(truth),
              4.0 * 0.1 * static_cast<double>(truth) / std::sqrt(runs));
}

TEST(DiscoCounter, ResetClearsState) {
  DiscoCounter c(DiscoParams(1.05));
  util::Rng rng(5);
  c.add(1000, rng);
  EXPECT_GT(c.value(), 0u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(c.estimate(), 0.0);
}

TEST(DiscoArray, TracksIndependentFlows) {
  DiscoArray array(8, 10, DiscoParams::for_budget(1 << 20, 10));
  util::Rng rng(17);
  for (int rep = 0; rep < 100; ++rep) {
    array.add(2, 100, rng);
    array.add(5, 1000, rng);
  }
  EXPECT_EQ(array.value(0), 0u);
  EXPECT_GT(array.value(5), array.value(2));
  EXPECT_NEAR(array.estimate(2), 10000.0, 10000.0 * 0.6);
  EXPECT_NEAR(array.estimate(5), 100000.0, 100000.0 * 0.6);
}

TEST(DiscoArray, ProvisionedArrayDoesNotOverflow) {
  // Feeding exactly the provisioned maximum must stay within the bit budget.
  const std::uint64_t max_flow = 1 << 22;
  DiscoArray array(2, 10, max_flow);
  util::Rng rng(23);
  std::uint64_t sent = 0;
  while (sent < max_flow) {
    array.add(0, 1500, rng);
    sent += 1500;
  }
  EXPECT_EQ(array.overflow_count(), 0u);
  EXPECT_LE(array.value(0), (std::uint64_t{1} << 10) - 1);
}

TEST(DiscoArray, UnderProvisionedArrayReportsOverflow) {
  // A 4-bit counter with b sized for 100 bytes cannot absorb 1e6 bytes.
  DiscoArray array(1, 4, DiscoParams::for_budget(100, 4));
  util::Rng rng(29);
  for (int i = 0; i < 1000; ++i) array.add(0, 1500, rng);
  EXPECT_GT(array.overflow_count(), 0u);
  EXPECT_EQ(array.value(0), 15u);  // saturated at 2^4 - 1
}

TEST(DiscoArray, MaxValueAndStorageAccounting) {
  DiscoArray array(100, 9, DiscoParams(1.05));
  EXPECT_EQ(array.storage_bits(), 900u);
  util::Rng rng(31);
  array.add(7, 5000, rng);
  EXPECT_EQ(array.max_value(), array.value(7));
}

TEST(DiscoArray, UsedPrefixResetZeroesEveryCounterAfterRescale) {
  // reset(used) rewrites only the words holding slots [0, used), relying on
  // every counter past `used` still being zero -- which a RescaleB remap
  // must preserve.  5-bit counters straddle word boundaries.
  DiscoArray array(40, 5, DiscoParams::for_budget(1000, 5));
  array.enable_rescale(2.0, 8);
  util::Rng rng(41);
  constexpr std::size_t kUsed = 13;
  for (int rep = 0; rep < 50; ++rep) {
    for (std::size_t i = 0; i < kUsed; ++i) array.add(i, 200 * (i + 1), rng);
  }
  ASSERT_GE(array.rescale_count(), 1u);
  ASSERT_GT(array.max_value(), 0u);
  for (std::size_t i = kUsed; i < array.size(); ++i) {
    ASSERT_EQ(array.value(i), 0u) << "slot " << i << " written before reset";
  }
  array.reset(kUsed);
  for (std::size_t i = 0; i < array.size(); ++i) {
    EXPECT_EQ(array.value(i), 0u) << "slot " << i;
  }
  EXPECT_EQ(array.overflow_count(), 0u);
  EXPECT_GE(array.rescale_count(), 1u);  // the rescaled b outlives the epoch
}

TEST(DiscoParams, MergeSaturatesInsteadOfOverflowingAtExtremeCounters) {
  // Regression: f(646) with b = 3 is ~8.4e307, so merging two such
  // counters makes target = f(c1) + f(c2) finite but target * (b - 1)
  // infinite -- f_inv(target) is then non-finite, and the decision loop
  // used to cast that to an integer (undefined behaviour).  The guarded
  // path must saturate: no movement, no UB, deterministically.
  const DiscoParams params(3.0);
  util::Rng rng(53);
  EXPECT_EQ(params.merge(646, 646, rng), 646u);
  // Fully infinite targets saturate the same way.
  EXPECT_EQ(params.merge(700, 700, rng), 700u);
  // And an ordinary in-range merge still moves the counter: absorbing
  // f(20) into c = 10 must land well above 10.
  EXPECT_GT(params.merge(10, 20, rng), 10u);
}

TEST(BurstAggregator, AccumulatesUntilFlush) {
  DiscoParams params(1.01);
  BurstAggregator burst(params);
  util::Rng rng(37);
  std::uint64_t counter = 0;
  EXPECT_EQ(burst.add(100, counter, rng), 0);
  EXPECT_EQ(burst.add(200, counter, rng), 0);
  EXPECT_EQ(counter, 0u);  // nothing hit SRAM yet
  EXPECT_EQ(burst.pending(), 300u);
  EXPECT_EQ(burst.flush(counter, rng), 1);
  EXPECT_GT(counter, 0u);
  EXPECT_EQ(burst.pending(), 0u);
}

TEST(BurstAggregator, ScratchOverflowForcesFlush) {
  DiscoParams params(1.01);
  BurstAggregator burst(params, /*scratch_bits=*/8);  // limit 255 bytes
  util::Rng rng(41);
  std::uint64_t counter = 0;
  int flushes = 0;
  for (int i = 0; i < 10; ++i) flushes += burst.add(100, counter, rng);
  EXPECT_GT(flushes, 0);
  EXPECT_GT(counter, 0u);
}

TEST(BurstAggregator, AggregationPreservesUnbiasedness) {
  // One aggregated update of (a+b) and two updates of a then b must both
  // estimate a+b; aggregated variance is lower, mean identical.
  const DiscoParams params(1.02);
  util::Rng rng(43);
  const int runs = 4000;
  double sum = 0.0;
  for (int r = 0; r < runs; ++r) {
    BurstAggregator burst(params);
    std::uint64_t counter = 0;
    burst.add(700, counter, rng);
    burst.add(800, counter, rng);
    burst.flush(counter, rng);
    sum += params.estimate(counter);
  }
  EXPECT_NEAR(sum / runs, 1500.0, 1500.0 * 0.4 / std::sqrt(runs) * 4.0);
}

TEST(BurstAggregator, FlushOnEmptyIsNoOp) {
  BurstAggregator burst(DiscoParams(1.1));
  util::Rng rng(47);
  std::uint64_t counter = 5;
  EXPECT_EQ(burst.flush(counter, rng), 0);
  EXPECT_EQ(counter, 5u);
}

}  // namespace
}  // namespace disco::core
