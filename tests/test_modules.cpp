// Unit coverage for the analysis-module layer: epoch subscriptions on both
// monitors, every built-in module against hand-built epoch reports,
// the ModuleHost lifecycle, and the name-based factory.  Statistical
// validation against ground truth on seeded Zipf traces lives in
// test_modules_statistical.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "flowtable/monitor.hpp"
#include "modules/active_flows.hpp"
#include "modules/anomaly_ewma.hpp"
#include "modules/application.hpp"
#include "modules/autofocus.hpp"
#include "modules/host.hpp"
#include "modules/scanner.hpp"
#include "modules/top_keys.hpp"
#include "pipeline/pipeline.hpp"
#include "telemetry/registry.hpp"

namespace disco::modules {
namespace {

using flowtable::FiveTuple;

FiveTuple tuple(std::uint32_t src_ip, std::uint32_t dst_ip,
                std::uint16_t dst_port, std::uint8_t protocol = 6) {
  return FiveTuple{src_ip, dst_ip, 40000, dst_port, protocol};
}

/// Hand-built epoch report with exact estimates (volume_b/size_b = 1 makes
/// every confidence interval degenerate, so assertions are equalities).
EpochReport make_report(std::uint64_t epoch,
                        std::vector<FlowEstimate> flows) {
  EpochReport report;
  report.epoch = epoch;
  report.volume_b = 1.0;
  report.size_b = 1.0;
  for (const auto& f : flows) {
    report.totals.bytes += f.bytes;
    report.totals.packets += f.packets;
  }
  report.totals.flows = flows.size();
  report.flows = std::move(flows);
  return report;
}

// --- epoch subscriptions ----------------------------------------------------

TEST(EpochSubscription, FlowMonitorNotifiesOnRotate) {
  flowtable::FlowMonitor monitor({.max_flows = 64, .counter_bits = 10});
  std::vector<EpochReport> seen;
  monitor.subscribe([&](const EpochReport& r) { seen.push_back(r); });
  EXPECT_EQ(monitor.subscriber_count(), 1u);

  monitor.ingest(tuple(1, 2, 80), 1000);
  monitor.ingest(tuple(1, 3, 443), 500);
  const auto report = monitor.rotate();

  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].epoch, report.epoch);
  EXPECT_EQ(seen[0].flows.size(), 2u);
  EXPECT_GT(seen[0].volume_b, 1.0);
  EXPECT_GT(seen[0].size_b, 1.0);

  (void)monitor.rotate();
  EXPECT_EQ(seen.size(), 2u);  // every rotation notifies, even empty ones
}

TEST(EpochSubscription, NullSubscriberIsIgnored) {
  flowtable::FlowMonitor monitor({.max_flows = 16, .counter_bits = 8});
  monitor.subscribe(nullptr);
  EXPECT_EQ(monitor.subscriber_count(), 0u);
  (void)monitor.rotate();  // must not crash
}

TEST(EpochSubscription, PipelineMonitorNotifiesWithMergedReport) {
  pipeline::PipelineMonitor::Config config;
  config.base = {.max_flows = 256, .counter_bits = 10};
  config.workers = 2;
  config.producers = 1;
  pipeline::PipelineMonitor monitor(config);

  std::vector<EpochReport> seen;
  monitor.subscribe([&](const EpochReport& r) { seen.push_back(r); });

  for (std::uint32_t i = 0; i < 40; ++i) {
    monitor.ingest(0, tuple(i, 1000 + i, 80), 700);
  }
  monitor.drain();
  const auto merged = monitor.rotate();
  monitor.stop();

  ASSERT_EQ(seen.size(), 1u);  // merged report, not one per shard
  EXPECT_EQ(seen[0].flows.size(), merged.flows.size());
  EXPECT_EQ(seen[0].flows.size(), 40u);
  EXPECT_GT(seen[0].volume_b, 1.0);  // max over shards survived the merge
}

// --- built-in modules -------------------------------------------------------

TEST(TopKeysModule, RanksPortsAcrossEpochs) {
  ModuleOptions options;
  options.top_k = 2;
  TopKeysModule module(TopKeyKind::DstPort, options);
  EXPECT_EQ(module.name(), "topports");

  module.on_epoch(make_report(0, {{tuple(1, 2, 443), 4000.0, 4.0},
                                  {tuple(1, 3, 80), 1000.0, 1.0},
                                  {tuple(1, 4, 53), 500.0, 1.0}}));
  module.on_epoch(make_report(1, {{tuple(1, 2, 80), 5000.0, 5.0}}));

  const auto top = module.top();
  ASSERT_EQ(top.size(), 2u);  // top_k truncation
  EXPECT_EQ(top[0].key, 80u);  // 6000 cumulative
  EXPECT_DOUBLE_EQ(top[0].bytes.estimate, 6000.0);
  EXPECT_EQ(top[0].flows, 2u);
  EXPECT_EQ(top[1].key, 443u);
  // volume_b == 1: intervals collapse onto the estimate.
  EXPECT_DOUBLE_EQ(top[0].bytes.low, 6000.0);
  EXPECT_DOUBLE_EQ(top[0].bytes.high, 6000.0);

  module.reset();
  EXPECT_TRUE(module.top().empty());
  EXPECT_EQ(module.epochs(), 0u);
}

TEST(TopKeysModule, TopDestAggregatesByAddress) {
  TopKeysModule module(TopKeyKind::DstIp);
  EXPECT_EQ(module.name(), "topdest");
  module.on_epoch(make_report(0, {{tuple(1, 0x0a000001, 80), 100.0, 1.0},
                                  {tuple(2, 0x0a000001, 443), 200.0, 1.0},
                                  {tuple(3, 0x0a000002, 80), 50.0, 1.0}}));
  const auto top = module.top();
  ASSERT_GE(top.size(), 2u);
  EXPECT_EQ(top[0].key, 0x0a000001u);
  EXPECT_DOUBLE_EQ(top[0].bytes.estimate, 300.0);
  const std::string json = module.export_json();
  EXPECT_NE(json.find("\"module\": \"topdest\""), std::string::npos);
  EXPECT_NE(json.find("10.0.0.1"), std::string::npos);
}

TEST(ApplicationModule, ClassifiesByWellKnownPort) {
  EXPECT_EQ(classify_flow(tuple(1, 2, 443)), AppClass::Web);
  EXPECT_EQ(classify_flow(tuple(1, 2, 53, 17)), AppClass::Dns);
  EXPECT_EQ(classify_flow(tuple(1, 2, 22)), AppClass::Ssh);
  EXPECT_EQ(classify_flow(tuple(1, 2, 9999, 1)), AppClass::Icmp);
  EXPECT_EQ(classify_flow(tuple(1, 2, 9999)), AppClass::Other);
  // Server port on the SOURCE side still classifies (response direction).
  FiveTuple response{1, 2, 443, 50000, 6};
  EXPECT_EQ(classify_flow(response), AppClass::Web);

  ApplicationModule module;
  module.on_epoch(make_report(0, {{tuple(1, 2, 443), 900.0, 1.0},
                                  {tuple(1, 3, 53, 17), 100.0, 1.0}}));
  EXPECT_DOUBLE_EQ(module.stats(AppClass::Web).bytes.sum(), 900.0);
  EXPECT_DOUBLE_EQ(module.stats(AppClass::Dns).bytes.sum(), 100.0);
  EXPECT_DOUBLE_EQ(module.total_bytes(), 1000.0);
}

TEST(ActiveFlowsModule, TracksEwmaAndPeak) {
  ModuleOptions options;
  options.ewma_alpha = 0.5;
  ActiveFlowsModule module(options);
  module.on_epoch(make_report(0, {{tuple(1, 2, 80), 100.0, 1.0},
                                  {tuple(1, 3, 80), 100.0, 1.0}}));
  EXPECT_EQ(module.last_flows(), 2u);
  EXPECT_DOUBLE_EQ(module.ewma_flows(), 2.0);  // first epoch seeds the EWMA
  module.on_epoch(make_report(1, {{tuple(1, 2, 80), 100.0, 1.0},
                                  {tuple(1, 3, 80), 100.0, 1.0},
                                  {tuple(1, 4, 80), 100.0, 1.0},
                                  {tuple(1, 5, 80), 100.0, 1.0}}));
  EXPECT_DOUBLE_EQ(module.ewma_flows(), 3.0);  // 0.5*4 + 0.5*2
  EXPECT_EQ(module.peak_flows(), 4u);
  EXPECT_EQ(module.total_flows(), 6u);
}

TEST(AnomalyEwmaModule, AlarmsAfterWarmupOnSpike) {
  ModuleOptions options;
  options.ewma_alpha = 0.3;
  options.alarm_sigmas = 3.0;
  options.alarm_warmup_epochs = 3;
  AnomalyEwmaModule module(options);

  // Steady baseline with mild jitter, then a 20x spike.
  for (std::uint64_t e = 0; e < 8; ++e) {
    const double bytes = 10'000.0 + static_cast<double>(e % 2) * 200.0;
    module.on_epoch(make_report(e, {{tuple(1, 2, 80), bytes, 10.0}}));
  }
  EXPECT_TRUE(module.alarms().empty());

  module.on_epoch(make_report(8, {{tuple(1, 2, 80), 200'000.0, 200.0}}));
  ASSERT_FALSE(module.alarms().empty());
  bool bytes_alarm = false;
  for (const auto& alarm : module.alarms()) {
    if (alarm.metric == "bytes") {
      bytes_alarm = true;
      EXPECT_EQ(alarm.epoch, 8u);
      EXPECT_DOUBLE_EQ(alarm.value, 200'000.0);
      EXPECT_GT(alarm.sigma, 0.0);
      EXPECT_LT(alarm.forecast, 20'000.0);  // EWMA of the quiet baseline
    }
  }
  EXPECT_TRUE(bytes_alarm);
}

TEST(AnomalyEwmaModule, NoAlarmsDuringWarmupEvenOnSpike) {
  ModuleOptions options;
  options.alarm_warmup_epochs = 10;
  AnomalyEwmaModule module(options);
  module.on_epoch(make_report(0, {{tuple(1, 2, 80), 100.0, 1.0}}));
  module.on_epoch(make_report(1, {{tuple(1, 2, 80), 1e9, 1.0}}));
  EXPECT_TRUE(module.alarms().empty());
}

TEST(ScannerDetectorModule, FlagsHighFanoutThinSources) {
  ModuleOptions options;
  options.scanner_min_fanout = 10;
  options.scanner_max_packets_per_flow = 2.0;
  ScannerDetectorModule module(options);

  std::vector<FlowEstimate> flows;
  // Scanner: one source touching 20 distinct targets, 1 packet each.
  for (std::uint32_t t = 0; t < 20; ++t) {
    flows.push_back({tuple(0xdead0001, 0x0a000000 + t,
                           static_cast<std::uint16_t>(1000 + t)),
                     60.0, 1.0});
  }
  // Busy client: high fanout but fat flows -- must NOT be flagged.
  for (std::uint32_t t = 0; t < 20; ++t) {
    flows.push_back({tuple(0xbeef0001, 0x0b000000 + t, 443), 50'000.0, 50.0});
  }
  // Normal client: low fanout.
  flows.push_back({tuple(0xcafe0001, 0x0c000000, 80), 1000.0, 1.0});
  module.on_epoch(make_report(0, flows));

  const auto suspects = module.suspects();
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(suspects[0].src_ip, 0xdead0001u);
  EXPECT_EQ(suspects[0].peak_fanout, 20u);
  EXPECT_DOUBLE_EQ(suspects[0].packets_per_target, 1.0);
}

TEST(AutofocusModule, ReportsPrefixAtTheRightGranularity) {
  // Total 108000 bytes, threshold 35% = 37800: the planted /24 (48000)
  // clears it while each of its /25 halves (24000) does not, so AutoFocus
  // must report exactly the /24; the hot host (40000) clears it alone, so
  // it must surface as a /32; the scattered remainder (20000) does not.
  ModuleOptions options;
  options.heavy_share = 0.35;
  AutofocusModule module(options);

  std::vector<FlowEstimate> flows;
  // 32 small hosts spread across the whole /24 (stride 8), ~1.4% each.
  for (std::uint32_t h = 0; h < 32; ++h) {
    flows.push_back({tuple(1, 0x0a010200u + 8 * h, 80), 1500.0, 2.0});
  }
  flows.push_back({tuple(2, 0xc0a80707u, 443), 40'000.0, 30.0});
  for (std::uint32_t i = 0; i < 20; ++i) {
    flows.push_back({tuple(3, 0x30000000u + i * 65536u, 80), 1000.0, 1.0});
  }
  module.on_epoch(make_report(0, flows));

  bool found_slash24 = false;
  bool found_hot_host = false;
  for (const auto& p : module.report()) {
    if (p.length == 24 && p.prefix == 0x0a010200u) {
      found_slash24 = true;
      EXPECT_DOUBLE_EQ(p.bytes, 32 * 1500.0);
      EXPECT_DOUBLE_EQ(p.residual, 32 * 1500.0);  // no reported descendants
    }
    if (p.length == 32 && p.prefix == 0xc0a80707u) found_hot_host = true;
    // The hot host is reported at /32, so no ancestor of it may re-report
    // its traffic (residual accounting), and nothing below the /24 clears
    // the threshold.
    EXPECT_FALSE(p.length < 32 && p.length > 0 &&
                 (0xc0a80707u & ~((1u << (32 - p.length)) - 1)) == p.prefix)
        << "ancestor of the hot host re-reported: " << p.prefix << "/"
        << p.length;
    // No reported prefix's residual may exceed its total bytes.
    EXPECT_LE(p.residual, p.bytes + 1e-9);
  }
  EXPECT_TRUE(found_slash24);
  EXPECT_TRUE(found_hot_host);
  ASSERT_EQ(module.report().size(), 2u);  // nothing else clears 35%
}

// --- host + factory ---------------------------------------------------------

TEST(ModuleHost, DispatchesTelemetryAndExports) {
  telemetry::set_enabled(true);
  ModuleHost host("modules_test");
  host.attach(make_module("topports"));
  host.attach(make_module("active-flows"));
  EXPECT_EQ(host.size(), 2u);

  host.on_epoch(make_report(0, {{tuple(1, 2, 443), 100.0, 1.0},
                                {tuple(1, 3, 80), 50.0, 1.0}}));
  host.flush();
  EXPECT_EQ(host.epochs_dispatched(), 1u);

  auto& registry = telemetry::Registry::global();
  EXPECT_EQ(registry.counter("modules_test.topports.epochs_total").value(), 1u);
  EXPECT_EQ(registry.counter("modules_test.topports.flows_total").value(), 2u);
  EXPECT_EQ(registry.counter("modules_test.active_flows.epochs_total").value(),
            1u);
  telemetry::set_enabled(false);

  EXPECT_NE(host.find("topports"), nullptr);
  EXPECT_EQ(host.find("nope"), nullptr);

  std::ostringstream text;
  host.export_text(text);
  EXPECT_NE(text.str().find("topports"), std::string::npos);
  EXPECT_NE(text.str().find("active-flows"), std::string::npos);

  const std::string json = host.export_json();
  EXPECT_NE(json.find("\"epochs\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"module\": \"topports\""), std::string::npos);

  host.reset();
  EXPECT_EQ(host.epochs_dispatched(), 0u);
}

TEST(ModuleHost, RejectsDuplicatesAndNull) {
  ModuleHost host("modules_test_dup");
  host.attach(make_module("topports"));
  EXPECT_THROW(host.attach(make_module("topports")), std::invalid_argument);
  EXPECT_THROW(host.attach(nullptr), std::invalid_argument);
}

TEST(ModuleHost, SubscribesToMonitorEndToEnd) {
  flowtable::FlowMonitor monitor({.max_flows = 64, .counter_bits = 10});
  ModuleHost host("modules_test_e2e");
  host.attach(make_module("active-flows"));
  host.subscribe_to(monitor);

  monitor.ingest(tuple(1, 2, 80), 1000);
  (void)monitor.rotate();
  (void)monitor.rotate();
  EXPECT_EQ(host.epochs_dispatched(), 2u);
  const auto* af =
      dynamic_cast<const ActiveFlowsModule*>(host.find("active-flows"));
  ASSERT_NE(af, nullptr);
  EXPECT_EQ(af->epochs(), 2u);
  EXPECT_EQ(af->peak_flows(), 1u);
}

TEST(ModuleFactory, BuildsEveryAdvertisedModule) {
  EXPECT_EQ(available_modules().size(), 7u);
  for (const auto& name : available_modules()) {
    const auto module = make_module(name);
    ASSERT_NE(module, nullptr);
    EXPECT_EQ(module->name(), name);
  }
  EXPECT_THROW((void)make_module("nope"), std::invalid_argument);
}

TEST(ModuleFactory, ParsesSelections) {
  EXPECT_EQ(make_modules("all").size(), available_modules().size());
  EXPECT_EQ(make_modules("").size(), available_modules().size());
  const auto picked = make_modules("topports,autofocus");
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0]->name(), "topports");
  EXPECT_EQ(picked[1]->name(), "autofocus");
  EXPECT_THROW((void)make_modules("topports,topports"), std::invalid_argument);
  EXPECT_THROW((void)make_modules("topports,,autofocus"),
               std::invalid_argument);
  EXPECT_THROW((void)make_modules("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace disco::modules
