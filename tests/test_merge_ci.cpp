// Tests for DISCO counter merging (distributed aggregation), the
// Theorem 2-based confidence intervals, and the aggregate intervals of
// core/estimate_merge.hpp.
#include <gtest/gtest.h>

#include <cmath>

#include "core/disco.hpp"
#include "core/estimate_merge.hpp"
#include "core/theory.hpp"
#include "util/math.hpp"

namespace disco::core {
namespace {

TEST(Merge, ZeroCountersAreIdentity) {
  DiscoParams params(1.01);
  util::Rng rng(1);
  EXPECT_EQ(params.merge(0, 0, rng), 0u);
  EXPECT_EQ(params.merge(42, 0, rng), 42u);
  EXPECT_EQ(params.merge(0, 42, rng), 42u);
}

TEST(Merge, ResultAtLeastMaxInput) {
  DiscoParams params(1.02);
  util::Rng rng(2);
  for (std::uint64_t c1 : {1ull, 50ull, 300ull}) {
    for (std::uint64_t c2 : {1ull, 50ull, 300ull}) {
      const std::uint64_t m = params.merge(c1, c2, rng);
      ASSERT_GE(m, std::max(c1, c2)) << c1 << "," << c2;
    }
  }
}

TEST(Merge, UnbiasedCombination) {
  // E[f(merge(c1, c2))] = f(c1) + f(c2): the merged counter estimates the
  // union traffic.
  const DiscoParams params(1.02);
  util::Rng rng(3);
  const std::uint64_t c1 = 200;
  const std::uint64_t c2 = 180;
  const double expected = params.estimate(c1) + params.estimate(c2);
  const int runs = 20000;
  double sum = 0.0;
  for (int r = 0; r < runs; ++r) {
    sum += params.estimate(params.merge(c1, c2, rng));
  }
  EXPECT_NEAR(sum / runs, expected, expected * 0.01);
}

TEST(Merge, DistributedCountingMatchesCentralizedInExpectation) {
  // Split one flow's packets across two "shards", merge the counters, and
  // compare with counting centrally: both must estimate the total traffic.
  const DiscoParams params(1.015);
  util::Rng rng(4);
  const int runs = 3000;
  double sum_merged = 0.0;
  double sum_central = 0.0;
  const std::uint64_t truth = 200000;
  for (int r = 0; r < runs; ++r) {
    std::uint64_t shard_a = 0;
    std::uint64_t shard_b = 0;
    std::uint64_t central = 0;
    std::uint64_t sent = 0;
    bool flip = false;
    while (sent < truth) {
      const std::uint64_t l = 500;
      (flip ? shard_a : shard_b) = params.update(flip ? shard_a : shard_b, l, rng);
      central = params.update(central, l, rng);
      flip = !flip;
      sent += l;
    }
    sum_merged += params.estimate(params.merge(shard_a, shard_b, rng));
    sum_central += params.estimate(central);
  }
  EXPECT_NEAR(sum_merged / runs, static_cast<double>(truth), truth * 0.01);
  EXPECT_NEAR(sum_central / runs, static_cast<double>(truth), truth * 0.01);
}

TEST(Merge, ChainAggregationStaysUnbiased) {
  // Merging many shard counters sequentially (epoch aggregation).
  const DiscoParams params(1.05);
  util::Rng rng(5);
  const std::vector<std::uint64_t> shards = {30, 45, 12, 60, 25};
  double expected = 0.0;
  for (auto c : shards) expected += params.estimate(c);
  const int runs = 8000;
  double sum = 0.0;
  for (int r = 0; r < runs; ++r) {
    std::uint64_t acc = 0;
    for (auto c : shards) acc = params.merge(acc, c, rng);
    sum += params.estimate(acc);
  }
  EXPECT_NEAR(sum / runs, expected, expected * 0.02);
}

TEST(ConfidenceInterval, RejectsBadConfidence) {
  DiscoParams params(1.01);
  EXPECT_THROW((void)params.confidence_interval(10, 0.0), std::invalid_argument);
  EXPECT_THROW((void)params.confidence_interval(10, 1.0), std::invalid_argument);
}

TEST(ConfidenceInterval, BracketsEstimateSymmetrically) {
  DiscoParams params(1.01);
  const auto ci = params.confidence_interval(500, 0.95);
  EXPECT_LT(ci.low, ci.estimate);
  EXPECT_GT(ci.high, ci.estimate);
  EXPECT_NEAR(ci.estimate - ci.low, ci.high - ci.estimate, 1e-6 * ci.estimate);
  // Relative half-width = z(0.975) * sqrt((b-1)/(b+1)) ~ 1.96 * 0.0705.
  EXPECT_NEAR((ci.high - ci.estimate) / ci.estimate, 1.96 * 0.0705, 0.002);
}

TEST(ConfidenceInterval, WidensWithConfidence) {
  DiscoParams params(1.02);
  const auto narrow = params.confidence_interval(300, 0.80);
  const auto wide = params.confidence_interval(300, 0.99);
  EXPECT_LT(narrow.high - narrow.low, wide.high - wide.low);
}

TEST(ConfidenceInterval, EmpiricalCoverageAtLeastNominal) {
  // The bound-based interval is conservative: empirical coverage of the true
  // traffic must be >= the nominal level.
  const DiscoParams params(1.02);
  util::Rng rng(6);
  const std::uint64_t truth = 100000;
  int covered = 0;
  const int runs = 2000;
  for (int r = 0; r < runs; ++r) {
    std::uint64_t c = 0;
    std::uint64_t sent = 0;
    while (sent < truth) {
      c = params.update(c, 500, rng);
      sent += 500;
    }
    const auto ci = params.confidence_interval(c, 0.95);
    if (static_cast<double>(truth) >= ci.low &&
        static_cast<double>(truth) <= ci.high) {
      ++covered;
    }
  }
  EXPECT_GE(static_cast<double>(covered) / runs, 0.95);
}

TEST(MixedEstimateAccumulator, AggregateIntervalIsTighterThanNaiveSum) {
  const double b = 1.05;
  const ErrorModel model = error_model(b, 0.0);
  MixedEstimateAccumulator acc;
  for (int i = 0; i < 100; ++i) acc.add(1000.0, model, 1.0);
  const auto ci = acc.interval(0.95);
  EXPECT_DOUBLE_EQ(ci.estimate, 100'000.0);
  EXPECT_LT(ci.low, ci.estimate);
  EXPECT_GT(ci.high, ci.estimate);
  // Var(sum) <= e^2 * sum(est^2): the half-width shrinks ~sqrt(n) versus
  // treating the aggregate as one estimate.
  const double half = ci.high - ci.estimate;
  const double naive_half =
      theory::normal_quantile(0.975) * theory::cv_bound(b) * 100'000.0;
  EXPECT_LT(half, naive_half / 5.0);
}

TEST(MixedEstimateAccumulator, ExactBaseDegeneratesToPoint) {
  MixedEstimateAccumulator acc;
  acc.add(42.0, error_model(1.0, 0.0), 1.0);
  const auto ci = acc.interval(0.95);
  EXPECT_DOUBLE_EQ(ci.low, 42.0);
  EXPECT_DOUBLE_EQ(ci.high, 42.0);
}

TEST(MixedEstimateAccumulator, MixedFleetModelSumsBothTerms) {
  // A merged report of a DISCO and an additive site keeps the max of both
  // b and the error unit; each of its records carries both variance terms.
  const double b = 1.01;
  const double unit = 16.0;
  const ErrorModel model = error_model(b, unit);
  MixedEstimateAccumulator acc;
  acc.add(5000.0, model, 9.0);
  const double e = theory::cv_bound(b);
  const double sd = theory::additive_error_sd(unit, 9);
  EXPECT_DOUBLE_EQ(acc.variance_bound(), e * e * 5000.0 * 5000.0 + sd * sd);

  // A single site's report declares one family only.
  MixedEstimateAccumulator disco_only;
  disco_only.add(5000.0, error_model(b, 0.0), 9.0);
  EXPECT_DOUBLE_EQ(disco_only.variance_bound(), e * e * 5000.0 * 5000.0);
  MixedEstimateAccumulator additive_only;
  additive_only.add(5000.0, error_model(1.0, unit), 9.0);
  EXPECT_DOUBLE_EQ(additive_only.variance_bound(), sd * sd);
}

}  // namespace
}  // namespace disco::core
