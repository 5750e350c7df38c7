// Property-based suites for the DISCO core: invariants that must hold across
// the whole (b, l, workload) parameter space, exercised with parameterized
// gtest sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "core/disco.hpp"
#include "core/theory.hpp"
#include "flowtable/monitor.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace disco::core {
namespace {

// --- Property: per-update expectation identity across the parameter grid ----

class DecideGrid
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(DecideGrid, ExpectationIdentityHolds) {
  const auto [b, l] = GetParam();
  DiscoParams params(b);
  const auto& scale = params.scale();
  // Walk the counter up with this packet size; at every state the decision
  // must satisfy E[f(c')] = f(c) + l.
  std::uint64_t c = 0;
  util::Rng rng(std::hash<double>{}(b) ^ l);
  for (int step = 0; step < 200; ++step) {
    const UpdateDecision d = params.decide(c, l);
    ASSERT_GE(d.p_d, 0.0);
    ASSERT_LE(d.p_d, 1.0);
    const double f_lo = scale.f(static_cast<double>(c + d.delta));
    const double f_hi = scale.f(static_cast<double>(c + d.delta + 1));
    const double fc = scale.f(static_cast<double>(c));
    const double expectation = (1.0 - d.p_d) * f_lo + d.p_d * f_hi - fc;
    ASSERT_NEAR(expectation, static_cast<double>(l),
                std::max(1e-9, 1e-6 * static_cast<double>(l)))
        << "b=" << b << " l=" << l << " c=" << c;
    c = params.update(c, l, rng);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BaseByLength, DecideGrid,
    ::testing::Combine(::testing::Values(1.0005, 1.002, 1.01, 1.05, 1.2, 2.0),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{40},
                                         std::uint64_t{64}, std::uint64_t{576},
                                         std::uint64_t{1500},
                                         std::uint64_t{9000})));

// --- Property: unbiasedness across mixed-length workloads -------------------

class UnbiasednessGrid : public ::testing::TestWithParam<double> {};

TEST_P(UnbiasednessGrid, MixedWorkloadMeanConvergesToTruth) {
  const double b = GetParam();
  DiscoParams params(b);
  util::Rng rng(static_cast<std::uint64_t>(b * 1e6));
  util::Rng len_rng(4242);  // one fixed workload shared by all runs

  std::vector<std::uint64_t> lens;
  std::uint64_t truth = 0;
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t l = len_rng.uniform_u64(40, 1500);
    lens.push_back(l);
    truth += l;
  }

  const int runs = 2500;
  double sum = 0.0;
  for (int r = 0; r < runs; ++r) {
    std::uint64_t c = 0;
    for (auto l : lens) c = params.update(c, l, rng);
    sum += params.estimate(c);
  }
  const double mean = sum / runs;
  // Tolerance: 5 sigma with sigma <= bound * truth / sqrt(runs).
  const double sigma =
      theory::cv_bound(b) * static_cast<double>(truth) / std::sqrt(runs);
  EXPECT_NEAR(mean, static_cast<double>(truth),
              5.0 * sigma + 1e-6 * static_cast<double>(truth))
      << "b=" << b;
}

INSTANTIATE_TEST_SUITE_P(Bases, UnbiasednessGrid,
                         ::testing::Values(1.001, 1.005, 1.02, 1.1, 1.5));

// --- Property: flow size counting degenerates to ANLS (Section IV-C) --------

TEST(FlowSizeDegeneration, UnitUpdatesNeverSkipCounterValues) {
  // With l = 1, f(c) + 1 <= f(c+1) for any b > 1, so delta must be 0: the
  // counter moves by at most one -- exactly ANLS behaviour.
  for (double b : {1.001, 1.02, 1.3, 2.0}) {
    DiscoParams params(b);
    for (std::uint64_t c = 0; c < 500; c += 7) {
      const UpdateDecision d = params.decide(c, 1);
      ASSERT_EQ(d.delta, 0u) << "b=" << b << " c=" << c;
      // p_d = 1 / b^c, the ANLS sampling probability.
      const double expected_p = std::exp(-static_cast<double>(c) * std::log(b));
      ASSERT_NEAR(d.p_d, expected_p, expected_p * 1e-6 + 1e-12)
          << "b=" << b << " c=" << c;
    }
  }
}

// --- Property: counter growth is concave in the flow length -----------------

TEST(ConcaveGrowth, CounterBitsGrowSubLinearly) {
  // Doubling the traffic must add a roughly constant number of counter
  // values (log growth), not double the counter.
  DiscoParams params(1.01);
  util::Rng rng(55);
  std::vector<double> counters;
  for (std::uint64_t target = 1 << 10; target <= (1 << 20); target <<= 1) {
    double mean_c = 0.0;
    const int runs = 30;
    for (int r = 0; r < runs; ++r) {
      std::uint64_t c = 0;
      std::uint64_t sent = 0;
      while (sent < target) {
        c = params.update(c, 512, rng);
        sent += 512;
      }
      mean_c += static_cast<double>(c);
    }
    counters.push_back(mean_c / runs);
  }
  // Successive differences (per doubling) must shrink or stay flat-ish:
  // geometric counter spacing => equal steps per doubling asymptotically.
  for (std::size_t i = 2; i < counters.size(); ++i) {
    const double step_prev = counters[i - 1] - counters[i - 2];
    const double step_cur = counters[i] - counters[i - 1];
    EXPECT_LT(step_cur, step_prev * 1.25) << "i=" << i;
  }
  // And the final counter is dramatically below the traffic it represents.
  EXPECT_LT(counters.back(), (1 << 20) / 100.0);
}

// --- Property: determinism ----------------------------------------------------

TEST(Determinism, SameSeedSameTrajectory) {
  DiscoParams params(1.013);
  util::Rng a(9001);
  util::Rng b_rng(9001);
  std::uint64_t ca = 0;
  std::uint64_t cb = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t l = 40 + (i * 131) % 1460;
    ca = params.update(ca, l, a);
    cb = params.update(cb, l, b_rng);
    ASSERT_EQ(ca, cb) << "i=" << i;
  }
}

// --- Property: provisioning honours the bit budget across the grid -----------

class BudgetGrid
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(BudgetGrid, ProvisionedCounterRespectsBudgetContract) {
  // The provisioning contract is in expectation (Theorem 3 bounds E[c], not
  // every trajectory): at exactly max_flow the counter sits at the budget
  // edge and random fluctuation can cross it occasionally, while a workload
  // with headroom must never overflow.
  const auto [bits, max_flow] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(bits) * max_flow);

  // Full load: overflows must be rare events, not systematic.
  DiscoArray full(1, bits, max_flow);
  std::uint64_t sent = 0;
  while (sent < max_flow) {
    const std::uint64_t l = std::min<std::uint64_t>(1500, max_flow - sent);
    full.add(0, l, rng);
    sent += l;
  }
  const auto updates = static_cast<double>(max_flow / 1500 + 1);
  EXPECT_LT(static_cast<double>(full.overflow_count()), 0.01 * updates + 64.0)
      << "bits=" << bits << " max_flow=" << max_flow;

  // Half load (2x headroom): zero overflows, every run.
  DiscoArray headroom(1, bits, max_flow);
  sent = 0;
  while (sent < max_flow / 2) {
    headroom.add(0, 1500, rng);
    sent += 1500;
  }
  EXPECT_EQ(headroom.overflow_count(), 0u)
      << "bits=" << bits << " max_flow=" << max_flow;
}

INSTANTIATE_TEST_SUITE_P(
    BitsByFlow, BudgetGrid,
    ::testing::Combine(::testing::Values(8, 10, 12),
                       ::testing::Values(std::uint64_t{100000},
                                         std::uint64_t{1} << 22,
                                         std::uint64_t{1} << 25)));


// --- Statistical regressions for the pressure layer (pinned seeds) ----------
//
// These pin the robustness layer's accuracy claims (docs/robustness.md) as
// regressions: fixed seeds, fixed workloads, deterministic outcomes.

TEST(PressureRegression, RapZipfHeavyHittersWithinTwiceUnboundedError) {
  // Zipf(1.0) burst trace: burst f sampled with P(flow i) ~ 1/i over 20k
  // flows, replayed into an UNBOUNDED monitor (every flow tracked; pure
  // DISCO estimation error) and into a 4k-budget monitor under RAP.  The
  // top-100 weighted relative error of the bounded monitor must stay within
  // 2x the unbounded baseline -- i.e. admission churn may at most double the
  // paper's native error on the flows that matter.
  constexpr std::uint32_t kFlows = 20000;
  constexpr std::uint32_t kBursts = 150000;
  constexpr std::uint64_t kBurstBytes = 1000;

  std::vector<double> cdf(kFlows);
  double h = 0.0;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    h += 1.0 / static_cast<double>(i + 1);
    cdf[i] = h;
  }
  for (double& x : cdf) x /= h;

  using flowtable::FlowMonitor;
  auto make_tuple = [](std::uint32_t i) {
    return flowtable::FiveTuple{0x0a000000u + i, 0xc0a80001u,
                                static_cast<std::uint16_t>(1024 + (i & 0x3fff)),
                                443, 17};
  };
  FlowMonitor::Config bounded_config;
  bounded_config.max_flows = 4096;
  bounded_config.seed = 0x2a9;
  bounded_config.pressure.admission = flowtable::AdmissionPolicy::RandomizedAdmission;
  FlowMonitor bounded(bounded_config);
  FlowMonitor::Config unbounded_config = bounded_config;
  unbounded_config.max_flows = kFlows;
  unbounded_config.pressure.admission = flowtable::AdmissionPolicy::Drop;
  FlowMonitor unbounded(unbounded_config);

  std::vector<double> truth(kFlows, 0.0);
  util::Rng trace_rng(0x217f);  // the pinned workload
  for (std::uint32_t burst = 0; burst < kBursts; ++burst) {
    const double u = trace_rng.next_double();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    const auto flow = static_cast<std::uint32_t>(it - cdf.begin());
    truth[flow] += static_cast<double>(kBurstBytes);
    (void)bounded.ingest(make_tuple(flow), kBurstBytes);
    (void)unbounded.ingest(make_tuple(flow), kBurstBytes);
  }

  // Weighted relative error over the top-100 true heavy hitters: absolute
  // estimate error weighted by (i.e. summed against) true volume.  An
  // untracked flow contributes its full volume as error.
  auto weighted_error = [&](FlowMonitor& monitor) {
    double err = 0.0, mass = 0.0;
    for (std::uint32_t i = 0; i < 100; ++i) {
      const auto est = monitor.query(make_tuple(i));
      const double e = est ? est->bytes : 0.0;
      err += std::abs(e - truth[i]);
      mass += truth[i];
    }
    return err / mass;
  };
  const double base = weighted_error(unbounded);
  const double rap = weighted_error(bounded);
  EXPECT_LT(base, 0.10);  // sanity: the baseline is the native DISCO error
  EXPECT_LE(rap, 2.0 * base)
      << "RAP churn more than doubled the heavy-hitter error (base=" << base
      << ", rap=" << rap << ")";
}

TEST(PressureRegression, RescaleBEstimatesUnbiasedWithin3Sigma) {
  // 400 independent trials of one 8-bit counter provisioned for 64 KiB and
  // driven to 256 KiB under RescaleB (two growth-2x rescales).  Randomized-
  // rounding remaps promise E[f_new(c')] = f_old(c), so the mean estimate
  // must sit within 3 sigma of the true volume -- a rescale that clamped or
  // floored would bias low and trip this.
  constexpr int kTrials = 400;
  constexpr std::uint64_t kBudget = 1 << 16;
  constexpr std::uint64_t kTrue = 4 * kBudget;
  constexpr std::uint64_t kBurst = 1024;

  double sum = 0.0;
  double final_b = 0.0;
  for (int t = 0; t < kTrials; ++t) {
    util::Rng rng(0xbead + static_cast<std::uint64_t>(t));
    DiscoArray array(1, 8, DiscoParams::for_budget(kBudget, 8));
    array.enable_rescale(2.0, 16);
    for (std::uint64_t sent = 0; sent < kTrue; sent += kBurst) {
      array.add(0, kBurst, rng);
    }
    EXPECT_EQ(array.overflow_count(), 0u);
    EXPECT_GE(array.rescale_count(), 1u);
    sum += array.estimate(0);
    final_b = array.params().b();
  }
  const double mean = sum / kTrials;
  // Conservative per-trial sigma: the Theorem 2 CV bound at the FINAL
  // (largest) base times the true volume.
  const double sigma =
      std::sqrt((final_b - 1.0) / 2.0) * static_cast<double>(kTrue);
  EXPECT_NEAR(mean, static_cast<double>(kTrue),
              3.0 * sigma / std::sqrt(static_cast<double>(kTrials)));
}

}  // namespace
}  // namespace disco::core
