// Statistical validation of the analysis modules against exact ground
// truth: seeded Zipf workloads run through a real FlowMonitor (so the
// module inputs are genuine DISCO estimates, not fixtures), with exact
// byte/packet accounting kept side by side.
//
// What is pinned here:
//   * topports ranks agree with exact ground truth where the ground truth
//     is statistically distinguishable (Zipf head), and its aggregate
//     intervals cover the exact values at ~the stated confidence across
//     independent seeded runs -- over DISCO sites, additive-error sites, and
//     a mixed fleet merged by a Collector;
//   * autofocus reports a planted heavy /24 at the right granularity with
//     a byte estimate close to, and an interval covering, the exact total;
//   * scanner-detector finds a planted thin-fanout scanner with zero false
//     positives among ordinary heavy clients.
//
// Everything is seeded: these are regressions, not flaky Monte Carlo.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "collect/collector.hpp"
#include "flowtable/monitor.hpp"
#include "modules/autofocus.hpp"
#include "modules/host.hpp"
#include "modules/scanner.hpp"
#include "modules/top_keys.hpp"
#include "trace/distributions.hpp"
#include "util/rng.hpp"

namespace disco::modules {
namespace {

using flowtable::FiveTuple;
using flowtable::FlowMonitor;

constexpr int kBits = 12;

FlowMonitor::Config monitor_config(std::uint64_t seed) {
  FlowMonitor::Config config;
  config.max_flows = 4096;
  config.counter_bits = kBits;
  config.seed = seed;
  config.telemetry_prefix = "modstat";
  return config;
}

// --- topports vs exact ground truth -----------------------------------------

struct PortWorkload {
  std::map<std::uint16_t, double> exact_bytes;  ///< ground truth per port
  double total_bytes = 0.0;
};

/// 600 flows whose destination port follows Zipf(1.2) over 64 ports, each
/// flow 16 packets with uniform lengths.  Packet p of every flow goes to
/// taps[p % taps.size()] (one tap: the whole workload into one monitor);
/// returns the exact accounting.
PortWorkload run_port_workload(const std::vector<FlowMonitor*>& taps,
                               std::uint64_t seed) {
  util::Rng rng(seed);
  trace::ZipfCount port_rank(1.2, 64);
  PortWorkload truth;
  for (std::uint32_t i = 0; i < 600; ++i) {
    const auto rank = static_cast<std::uint16_t>(port_rank.sample(rng));
    const FiveTuple flow{0x0a000000u + i, 0xc0000000u + i,
                         static_cast<std::uint16_t>(40000 + (i & 1023)),
                         static_cast<std::uint16_t>(1000 + rank), 6};
    for (int p = 0; p < 16; ++p) {
      const auto len =
          static_cast<std::uint32_t>(rng.uniform_u64(200, 1400));
      EXPECT_TRUE(taps[static_cast<std::size_t>(p) % taps.size()]->ingest(
          flow, len))
          << "flow table unexpectedly full";
      truth.exact_bytes[flow.dst_port] += len;
      truth.total_bytes += len;
    }
  }
  return truth;
}

std::vector<std::uint16_t> exact_top(const PortWorkload& truth,
                                     std::size_t k) {
  std::vector<std::pair<double, std::uint16_t>> ranked;
  for (const auto& [port, bytes] : truth.exact_bytes) {
    ranked.emplace_back(bytes, port);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first > b.first || (a.first == b.first && a.second < b.second);
  });
  std::vector<std::uint16_t> out;
  for (std::size_t i = 0; i < std::min(k, ranked.size()); ++i) {
    out.push_back(ranked[i].second);
  }
  return out;
}

TEST(ModulesStatistical, TopPortsMatchesExactGroundTruth) {
  FlowMonitor monitor(monitor_config(0xd15c0'01));
  ModuleHost host("modstat_topports");
  ModuleOptions options;
  options.top_k = 10;
  host.attach(std::make_unique<TopKeysModule>(TopKeyKind::DstPort, options));
  host.subscribe_to(monitor);

  PortWorkload truth;
  {
    SCOPED_TRACE("workload");
    truth = run_port_workload({&monitor}, 20100621);
  }
  (void)monitor.rotate();

  const auto* module =
      dynamic_cast<const TopKeysModule*>(host.find("topports"));
  ASSERT_NE(module, nullptr);
  const auto top = module->top();
  ASSERT_EQ(top.size(), 10u);

  // The Zipf head is far above the estimation noise: ranks 1-3 carry
  // ~19/8/5 percent of all bytes while the per-key aggregate CV is well
  // under a percent, so the top-3 must match exactly and in order.
  const auto exact3 = exact_top(truth, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(top[i].key, exact3[i]) << "rank " << i;
  }

  // Deeper ranks may legitimately swap with near-ties; require the
  // estimated top-10 to overlap the exact top-10 in at least 8 keys.
  const auto exact10 = exact_top(truth, 10);
  const std::set<std::uint32_t> exact_set(exact10.begin(), exact10.end());
  std::size_t overlap = 0;
  for (const auto& entry : top) overlap += exact_set.count(entry.key);
  EXPECT_GE(overlap, 8u);

  // Estimates are unbiased and each reported key aggregates many flows:
  // every top-10 estimate must sit within 10% of the exact bytes, and the
  // 95% intervals must cover the exact value for at least 8 of 10 keys
  // (they are *bounds*, so coverage should in fact be higher).
  std::size_t covered = 0;
  for (const auto& entry : top) {
    const double exact =
        truth.exact_bytes.at(static_cast<std::uint16_t>(entry.key));
    EXPECT_NEAR(entry.bytes.estimate, exact, 0.10 * exact)
        << "port " << entry.key;
    EXPECT_LT(entry.bytes.low, entry.bytes.high);
    if (entry.bytes.low <= exact && exact <= entry.bytes.high) ++covered;
  }
  EXPECT_GE(covered, 8u);
}

TEST(ModulesStatistical, TopPortsIntervalCoverageAcrossRuns) {
  // Interval calibration: across independent seeded runs, the 95% interval
  // on the heaviest port's aggregate must cover the exact bytes in nearly
  // every run.  The error models bound each estimate's standard deviation,
  // so empirical coverage is ABOVE the nominal level; 90% leaves slack for
  // the normal approximation without ever passing a broken interval (a
  // sign error, a dropped sqrt, or a model that ignores the additive unit
  // fails this instantly).
  //
  // Three regimes: DISCO sites (error from b), additive-error sites (error
  // from the unit; b == 1), and a mixed fleet whose two taps' reports a
  // Collector merges into reports that declare both.
  enum class Fleet { Disco, Additive, Mixed };
  constexpr int kRuns = 20;
  for (const Fleet fleet : {Fleet::Disco, Fleet::Additive, Fleet::Mixed}) {
    SCOPED_TRACE(fleet == Fleet::Disco      ? "DISCO"
                 : fleet == Fleet::Additive ? "additive"
                                            : "mixed fleet");
    int covered = 0;
    for (int run = 0; run < kRuns; ++run) {
      ModuleHost host("modstat_coverage");
      TopKeysModule* module = nullptr;
      {
        ModuleOptions options;
        options.top_k = 1;
        auto owned =
            std::make_unique<TopKeysModule>(TopKeyKind::DstPort, options);
        module = owned.get();
        host.attach(std::move(owned));
      }
      FlowMonitor::Config disco_config = monitor_config(0xc0ffee00u + run);
      FlowMonitor::Config additive_config = monitor_config(0xadd00000u + run);
      additive_config.estimator = flowtable::EstimatorKind::AdditiveError;
      PortWorkload truth;
      if (fleet == Fleet::Mixed) {
        FlowMonitor site0(disco_config);
        FlowMonitor site1(additive_config);
        collect::Collector collector;
        host.subscribe_to(collector);
        std::vector<EpochReport> merged;
        collector.subscribe(
            [&](const EpochReport& report) { merged.push_back(report); });
        {
          SCOPED_TRACE(run);
          truth = run_port_workload({&site0, &site1}, 7000u + run);
        }
        (void)collector.ingest(0, site0.rotate());
        (void)collector.ingest(1, site1.rotate());
        collector.finalize_all();
        ASSERT_EQ(merged.size(), 1u);
        // The merged report really declares both families.
        EXPECT_GT(merged[0].volume_b, 1.0);
        EXPECT_GT(merged[0].volume_error_unit, 1.0);
      } else {
        FlowMonitor monitor(fleet == Fleet::Disco ? disco_config
                                                   : additive_config);
        host.subscribe_to(monitor);
        {
          SCOPED_TRACE(run);
          truth = run_port_workload({&monitor}, 7000u + run);
        }
        const auto report = monitor.rotate();
        if (fleet == Fleet::Additive) {
          // Scale-ups really happened, so the unit carries real error.
          EXPECT_GT(report.volume_error_unit, 1.0);
        }
      }

      const auto top = module->top();
      ASSERT_EQ(top.size(), 1u);
      const double exact =
          truth.exact_bytes.at(static_cast<std::uint16_t>(top[0].key));
      if (top[0].bytes.low <= exact && exact <= top[0].bytes.high) ++covered;
    }
    EXPECT_GE(covered, 18) << "95% intervals covered only " << covered << "/"
                           << kRuns << " runs";
  }
}

// --- autofocus vs a planted heavy prefix ------------------------------------

TEST(ModulesStatistical, AutofocusReportsPlantedHeavyPrefix) {
  FlowMonitor monitor(monitor_config(0xd15c0'02));
  ModuleHost host("modstat_autofocus");
  ModuleOptions options;
  options.heavy_share = 0.20;  // the /24 clears this; each /25 does not
  AutofocusModule* module = nullptr;
  {
    auto owned = std::make_unique<AutofocusModule>(options);
    module = owned.get();
    host.attach(std::move(owned));
  }
  host.subscribe_to(monitor);

  util::Rng rng(42);
  double planted_exact = 0.0;
  constexpr std::uint32_t kPrefix = 0x0a010200u;  // 10.1.2.0/24

  // Planted /24: 64 hosts spread across the whole /24 (stride 4), each
  // ~0.45% of total -- individually invisible, collectively ~29%.  The
  // spread matters: AutoFocus reports the most specific covering prefix,
  // and 64 contiguous hosts would legitimately surface as a /26.
  for (std::uint32_t h = 0; h < 64; ++h) {
    const FiveTuple flow{0x01000000u + h, kPrefix + 4 * h, 40000, 80, 6};
    for (int p = 0; p < 8; ++p) {
      const auto len = static_cast<std::uint32_t>(rng.uniform_u64(600, 1400));
      ASSERT_TRUE(monitor.ingest(flow, len));
      planted_exact += len;
    }
  }
  // Scattered background, one flow per distinct /16, ~71% of total.
  for (std::uint32_t i = 0; i < 250; ++i) {
    const FiveTuple flow{0x02000000u + i, 0xc0000000u + (i << 16), 40000,
                         443, 6};
    for (int p = 0; p < 5; ++p) {
      ASSERT_TRUE(monitor.ingest(
          flow, static_cast<std::uint32_t>(rng.uniform_u64(600, 1400))));
    }
  }
  (void)monitor.rotate();

  const AutofocusModule::Prefix* planted = nullptr;
  for (const auto& p : module->report()) {
    if (p.prefix == kPrefix && p.length == 24) planted = &p;
    // Nothing below the /24 may be reported: no /25 reaches 20% and no
    // single host reaches it either.  A violation means residual
    // accounting over-reports descendants.
    if (p.length > 24) {
      EXPECT_FALSE(kPrefix <= p.prefix && p.prefix < kPrefix + 256)
          << "over-specific prefix inside the planted /24";
    }
  }
  ASSERT_NE(planted, nullptr) << "planted 10.1.2.0/24 not reported";
  EXPECT_NEAR(planted->bytes, planted_exact, 0.10 * planted_exact);
  EXPECT_LE(planted->bytes_ci.low, planted_exact);
  EXPECT_GE(planted->bytes_ci.high, planted_exact);
  EXPECT_GT(module->total_bytes(), planted_exact);
}

// --- scanner detection with zero false positives ----------------------------

TEST(ModulesStatistical, ScannerDetectedWithNoFalsePositives) {
  FlowMonitor monitor(monitor_config(0xd15c0'03));
  ModuleHost host("modstat_scanner");
  ModuleOptions options;
  options.scanner_min_fanout = 64;
  options.scanner_max_packets_per_flow = 4.0;
  ScannerDetectorModule* module = nullptr;
  {
    auto owned = std::make_unique<ScannerDetectorModule>(options);
    module = owned.get();
    host.attach(std::move(owned));
  }
  host.subscribe_to(monitor);

  util::Rng rng(7);
  constexpr std::uint32_t kScanner = 0xac100001u;  // 172.16.0.1

  // The scan: 200 distinct targets, one 60-byte SYN each.  The size
  // estimates feeding packets-per-target are DISCO estimates, so this also
  // checks that single-packet flows estimate near 1 packet.
  for (std::uint32_t t = 0; t < 200; ++t) {
    const FiveTuple probe{kScanner, 0x0a640000u + t,
                          static_cast<std::uint16_t>(50000 + (t & 255)),
                          static_cast<std::uint16_t>(1 + (t % 1024)), 6};
    ASSERT_TRUE(monitor.ingest(probe, 60));
  }
  // 30 legitimate clients, each talking to 40 servers with fat flows --
  // fanout below threshold AND packets-per-flow far above the thin-flow
  // cut, so neither criterion alone may fire.
  for (std::uint32_t c = 0; c < 30; ++c) {
    for (std::uint32_t s = 0; s < 40; ++s) {
      const FiveTuple flow{0x0b000000u + c, 0x0c000000u + s, 40000, 443, 6};
      for (int p = 0; p < 12; ++p) {
        ASSERT_TRUE(monitor.ingest(
            flow, static_cast<std::uint32_t>(rng.uniform_u64(400, 1400))));
      }
    }
  }
  (void)monitor.rotate();

  const auto suspects = module->suspects();
  ASSERT_EQ(suspects.size(), 1u) << "expected exactly the planted scanner";
  EXPECT_EQ(suspects[0].src_ip, kScanner);
  EXPECT_EQ(suspects[0].peak_fanout, 200u);
  // Single-packet probes: the mean estimated packets per target must sit
  // near 1 (small DISCO counters are exact or near-exact).
  EXPECT_NEAR(suspects[0].packets_per_target, 1.0, 0.25);
}

}  // namespace
}  // namespace disco::modules
