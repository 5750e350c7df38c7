// Unit + adversarial coverage for the aggregation tier (src/collect):
//
//   * DRPT v3 wire format: site-id / error-metadata round-trip, streaming
//     ReportReader semantics (clean EOF vs mid-report truncation);
//   * Collector merge semantics: disjoint-site sums, cross-site key fusion
//     with variance-accounted intervals, duplicate / reordered / late /
//     lagging-site stream hygiene (traffic counted at most once, always),
//     mixed DISCO+additive fleets, PressureStats reconciliation, subscriber
//     + ModuleHost integration;
//   * transports: spool files with torn tails (including DISCO_FAULTS
//     short-write injection) and the loopback socket path.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "collect/collector.hpp"
#include "collect/transport.hpp"
#include "core/estimate_merge.hpp"
#include "core/theory.hpp"
#include "flowtable/report_io.hpp"
#include "modules/host.hpp"
#include "util/fault.hpp"

namespace disco::collect {
namespace {

FiveTuple tuple(std::uint32_t i) {
  return FiveTuple{0x0a000000u + i, 0xc0a80001u,
                   static_cast<std::uint16_t>(1024 + i), 443, 6};
}

struct FlowSpec {
  std::uint32_t id;
  double bytes;
  double packets;
};

/// Hand-built epoch report with known estimates and error metadata --
/// deterministic input for merge-semantics tests.
EpochReport make_report(std::uint64_t epoch, double b,
                        const std::vector<FlowSpec>& flows) {
  EpochReport report;
  report.epoch = epoch;
  report.volume_b = b;
  report.size_b = b;
  for (const FlowSpec& f : flows) {
    report.flows.push_back({tuple(f.id), f.bytes, f.packets});
    report.totals.bytes += f.bytes;
    report.totals.packets += f.packets;
  }
  report.totals.flows = report.flows.size();
  return report;
}

EpochReport make_additive_report(std::uint64_t epoch, double unit,
                                 const std::vector<FlowSpec>& flows) {
  EpochReport report = make_report(epoch, 1.0, flows);
  report.volume_error_unit = unit;
  report.size_error_unit = unit;
  return report;
}

// --- wire format -------------------------------------------------------------

TEST(ReportIoV3, SiteIdAndErrorMetadataRoundTrip) {
  auto report = make_report(4, 1.0625, {{1, 1000.0, 10.0}, {2, 500.0, 5.0}});
  report.pressure = flowtable::PressureStats{3, 2, 1, 4};
  report.volume_error_unit = 0.0;
  std::stringstream buf;
  flowtable::write_report(buf, report, /*site_id=*/9);

  flowtable::ReportReader reader(buf);
  const auto item = reader.next();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->site_id, 9u);
  EXPECT_EQ(item->report.epoch, 4u);
  EXPECT_DOUBLE_EQ(item->report.volume_b, 1.0625);
  EXPECT_DOUBLE_EQ(item->report.size_b, 1.0625);
  EXPECT_EQ(item->report.pressure.flows_rejected, 3u);
  ASSERT_EQ(item->report.flows.size(), 2u);
  EXPECT_EQ(item->report.flows[0].flow, tuple(1));
  EXPECT_DOUBLE_EQ(item->report.flows[0].bytes, 1000.0);
  EXPECT_FALSE(reader.next().has_value());  // clean EOF
}

TEST(ReportIoV3, ReaderStreamsConcatenatedReports) {
  std::stringstream buf;
  flowtable::write_report(buf, make_report(0, 1.05, {{1, 10.0, 1.0}}), 0);
  flowtable::write_report(buf, make_report(1, 1.05, {{2, 20.0, 1.0}}), 3);
  flowtable::write_report(buf, make_report(2, 1.05, {{3, 30.0, 1.0}}), 3);

  flowtable::ReportReader reader(buf);
  std::vector<std::uint64_t> epochs;
  std::vector<std::uint32_t> sites;
  while (auto item = reader.next()) {
    epochs.push_back(item->report.epoch);
    sites.push_back(item->site_id);
  }
  EXPECT_EQ(epochs, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(sites, (std::vector<std::uint32_t>{0, 3, 3}));
}

TEST(ReportIoV3, ReaderThrowsOnTruncationAndStaysPoisoned) {
  std::stringstream buf;
  flowtable::write_report(buf, make_report(0, 1.05, {{1, 10.0, 1.0}}));
  flowtable::write_report(buf, make_report(1, 1.05, {{2, 20.0, 2.0}}));
  std::string bytes = buf.str();
  bytes.resize(bytes.size() - 5);  // tear the second report mid-record
  std::stringstream cut(bytes);

  flowtable::ReportReader reader(cut);
  ASSERT_TRUE(reader.next().has_value());
  EXPECT_THROW((void)reader.next(), std::runtime_error);
  // Poisoned: no resync attempts that could smuggle in a half-read report.
  EXPECT_THROW((void)reader.next(), std::runtime_error);
}

// --- collector merge semantics ----------------------------------------------

TEST(Collector, DisjointSitesSumExactly) {
  Collector collector;
  EXPECT_EQ(collector.ingest(0, make_report(0, 1.05, {{1, 100.0, 2.0}})),
            Collector::IngestResult::Accepted);
  EXPECT_EQ(collector.ingest(1, make_report(0, 1.05, {{2, 300.0, 4.0}})),
            Collector::IngestResult::Accepted);
  collector.finalize_all();

  const auto totals = collector.totals();
  EXPECT_DOUBLE_EQ(totals.bytes, 400.0);
  EXPECT_DOUBLE_EQ(totals.packets, 6.0);
  EXPECT_EQ(totals.flows, 2u);

  const auto top = collector.top_k(10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].flow, tuple(2));  // descending by bytes
  EXPECT_DOUBLE_EQ(top[0].bytes, 300.0);
  EXPECT_EQ(top[0].sites, 1u);
  EXPECT_EQ(top[1].flow, tuple(1));
}

TEST(Collector, KeyFusionPoolsVarianceAcrossSites) {
  // The same flow measured independently at two sites: the merged estimate
  // sums, and the pooled interval is NARROWER than a single-site estimate
  // of the same total would be (sum of squares < square of sum).
  Collector collector;
  (void)collector.ingest(0, make_report(0, 1.05, {{1, 1000.0, 10.0}}));
  (void)collector.ingest(1, make_report(0, 1.05, {{1, 1000.0, 10.0}}));
  collector.finalize_all();

  const auto top = collector.top_k(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].sites, 2u);
  EXPECT_DOUBLE_EQ(top[0].bytes, 2000.0);
  EXPECT_TRUE(top[0].interval_valid);

  const double e = core::theory::cv_bound(1.05);
  const double z = core::theory::normal_quantile(0.5 + 0.95 / 2.0);
  const double pooled_half = z * std::sqrt(2.0 * e * e * 1000.0 * 1000.0);
  const double single_half = z * e * 2000.0;
  EXPECT_NEAR(top[0].bytes_high - top[0].bytes, pooled_half,
              1e-9 * pooled_half);
  EXPECT_LT(top[0].bytes_high - top[0].bytes, single_half);
}

TEST(Collector, DuplicateReportRejectedWithoutDoubleCount) {
  Collector collector;
  const auto report = make_report(0, 1.05, {{1, 100.0, 2.0}});
  EXPECT_EQ(collector.ingest(0, report), Collector::IngestResult::Accepted);
  EXPECT_EQ(collector.ingest(0, report), Collector::IngestResult::Duplicate);
  collector.finalize_all();

  EXPECT_DOUBLE_EQ(collector.totals().bytes, 100.0);
  EXPECT_EQ(collector.reports_ingested(), 1u);
  const auto sites = collector.sites();
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].duplicates, 1u);
  EXPECT_EQ(sites[0].reports, 1u);
}

TEST(Collector, ReorderedDeliveryConvergesToInOrderState) {
  const auto e0 = make_report(0, 1.05, {{1, 10.0, 1.0}});
  const auto e1 = make_report(1, 1.05, {{1, 20.0, 1.0}, {2, 5.0, 1.0}});
  const auto e2 = make_report(2, 1.05, {{2, 40.0, 2.0}});

  Collector in_order;
  (void)in_order.ingest(0, e0);
  (void)in_order.ingest(0, e1);
  (void)in_order.ingest(0, e2);
  in_order.finalize_all();

  Collector shuffled;
  (void)shuffled.ingest(0, e2);
  (void)shuffled.ingest(0, e0);
  (void)shuffled.ingest(0, e1);
  shuffled.finalize_all();

  EXPECT_DOUBLE_EQ(shuffled.totals().bytes, in_order.totals().bytes);
  EXPECT_EQ(shuffled.totals().flows, in_order.totals().flows);
  const auto a = in_order.top_k(10);
  const auto b = shuffled.top_k(10);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].flow, b[i].flow) << i;
    EXPECT_DOUBLE_EQ(a[i].bytes, b[i].bytes) << i;
  }
  ASSERT_EQ(shuffled.sites().size(), 1u);
  EXPECT_EQ(shuffled.sites()[0].reordered, 2u);
  EXPECT_EQ(shuffled.sites()[0].duplicates, 0u);
}

TEST(Collector, LateReportFoldsOnceAndIsNotReEmitted) {
  Collector collector;
  std::vector<std::uint64_t> emitted;
  collector.subscribe(
      [&emitted](const EpochReport& r) { emitted.push_back(r.epoch); });

  // Site 0 races ahead: epochs 0 and 1 finalise (2 stays open as the
  // fleet highwater).
  (void)collector.ingest(0, make_report(0, 1.05, {{1, 10.0, 1.0}}));
  (void)collector.ingest(0, make_report(1, 1.05, {{1, 10.0, 1.0}}));
  (void)collector.ingest(0, make_report(2, 1.05, {{1, 10.0, 1.0}}));
  ASSERT_EQ(collector.epochs_finalized(), 2u);

  // A site the collector has never seen shows up with the finalised epoch
  // 0: late.  Its traffic still counts exactly once, but epoch 0 is not
  // re-emitted to subscribers.
  EXPECT_EQ(collector.ingest(1, make_report(0, 1.05, {{2, 50.0, 1.0}})),
            Collector::IngestResult::Late);
  collector.finalize_all();

  EXPECT_DOUBLE_EQ(collector.totals().bytes, 80.0);
  EXPECT_EQ(emitted, (std::vector<std::uint64_t>{0, 1, 2}));
  const auto sites = collector.sites();
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[1].late, 1u);
  EXPECT_EQ(sites[1].reports, 1u);
}

TEST(Collector, NewestEpochStaysOpenUntilFinalizeAll) {
  // Watermark rule: with every site current, nothing below highwater is
  // missing, but the newest epoch itself must stay open -- an unknown site
  // may still contribute to it.
  Collector collector;
  (void)collector.ingest(0, make_report(0, 1.05, {{1, 10.0, 1.0}}));
  (void)collector.ingest(1, make_report(0, 1.05, {{2, 10.0, 1.0}}));
  EXPECT_EQ(collector.epochs_finalized(), 0u);
  (void)collector.ingest(2, make_report(0, 1.05, {{3, 10.0, 1.0}}));
  EXPECT_EQ(collector.epochs_finalized(), 0u);
  collector.finalize_all();
  EXPECT_EQ(collector.epochs_finalized(), 1u);
  for (const auto& site : collector.sites()) {
    EXPECT_EQ(site.late, 0u) << site.site_id;
  }
}

TEST(Collector, LaggingSiteStopsGatingFinalisation) {
  CollectorConfig config;
  config.liveness_window = 2;
  Collector collector(config);
  // Site 1 delivers epoch 0 then goes quiet; site 0 keeps rotating.
  (void)collector.ingest(1, make_report(0, 1.05, {{9, 5.0, 1.0}}));
  for (std::uint64_t epoch = 0; epoch <= 5; ++epoch) {
    (void)collector.ingest(0, make_report(epoch, 1.05, {{1, 10.0, 1.0}}));
  }
  // Epochs 1+ cannot wait forever on site 1: once its lag exceeds the
  // window it stops gating, and epochs below the highwater finalise.
  EXPECT_GE(collector.epochs_finalized(), 3u);

  const auto sites = collector.sites();
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_FALSE(sites[0].lagging);
  EXPECT_TRUE(sites[1].lagging);
  EXPECT_EQ(sites[1].lag_epochs, 5u);
  EXPECT_GE(sites[1].epoch_gaps, 3u);
  collector.finalize_all();
  EXPECT_DOUBLE_EQ(collector.totals().bytes, 65.0);
}

TEST(Collector, MixedDiscoAndAdditiveSitesMerge) {
  Collector collector;
  (void)collector.ingest(0, make_report(0, 1.05, {{1, 1000.0, 10.0}}));
  (void)collector.ingest(1, make_additive_report(0, 4.0, {{1, 1000.0, 10.0}}));
  collector.finalize_all();

  const auto top = collector.top_k(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_DOUBLE_EQ(top[0].bytes, 2000.0);
  EXPECT_TRUE(top[0].interval_valid);
  EXPECT_EQ(top[0].sites, 2u);

  // The additive site's contribution uses sd = unit*sqrt(roundings)/2 with
  // roundings = round(packets); the DISCO site's uses e*est.
  const double e = core::theory::cv_bound(1.05);
  const double sd = core::theory::additive_error_sd(4.0, 10);
  const double z = core::theory::normal_quantile(0.5 + 0.95 / 2.0);
  const double half =
      z * std::sqrt(e * e * 1000.0 * 1000.0 + sd * sd);
  EXPECT_NEAR(top[0].bytes_high - top[0].bytes, half, 1e-9 * half);
}

TEST(Collector, PressureReconciliationSumsLatestPerSite) {
  Collector collector;
  auto a0 = make_report(0, 1.05, {{1, 1.0, 1.0}});
  a0.pressure = flowtable::PressureStats{10, 0, 0, 1};
  auto a1 = make_report(1, 1.05, {{1, 1.0, 1.0}});
  a1.pressure = flowtable::PressureStats{25, 3, 0, 2};  // cumulative
  auto b0 = make_report(0, 1.05, {{2, 1.0, 1.0}});
  b0.pressure = flowtable::PressureStats{0, 0, 7, 0};
  (void)collector.ingest(0, a0);
  (void)collector.ingest(0, a1);
  (void)collector.ingest(1, b0);
  collector.finalize_all();

  // Per-site counters are cumulative: fleet pressure is the sum of each
  // site's LATEST values, not the sum over reports.
  const auto pressure = collector.pressure();
  EXPECT_EQ(pressure.flows_rejected, 25u);
  EXPECT_EQ(pressure.flows_evicted, 3u);
  EXPECT_EQ(pressure.counters_saturated, 7u);
  EXPECT_EQ(pressure.rescale_events, 2u);
}

TEST(Collector, TrackedFlowCapKeepsTotalsExact) {
  CollectorConfig config;
  config.max_tracked_flows = 4;
  Collector collector(config);
  std::vector<FlowSpec> flows;
  for (std::uint32_t i = 0; i < 10; ++i) {
    flows.push_back({i, 100.0, 1.0});
  }
  (void)collector.ingest(0, make_report(0, 1.05, flows));
  collector.finalize_all();

  EXPECT_EQ(collector.tracked_flows(), 4u);
  EXPECT_EQ(collector.flows_dropped(), 6u);
  EXPECT_DOUBLE_EQ(collector.totals().bytes, 1000.0);  // exact past the cap
}

TEST(Collector, SubscribersAndModuleHostSeeMergedReports) {
  Collector collector;
  modules::ModuleHost host("collector_modules_test");
  host.attach(modules::make_module("topports"));
  host.subscribe_to(collector);  // duck-typed: same surface as a monitor

  (void)collector.ingest(0, make_report(0, 1.05, {{1, 100.0, 2.0}}));
  (void)collector.ingest(1, make_report(0, 1.05, {{1, 50.0, 1.0}}));
  (void)collector.ingest(0, make_report(1, 1.05, {{2, 10.0, 1.0}}));
  (void)collector.ingest(1, make_report(1, 1.05, {{3, 20.0, 1.0}}));
  collector.finalize_all();

  EXPECT_EQ(host.epochs_dispatched(), 2u);
  std::stringstream out;
  host.export_text(out);
  EXPECT_NE(out.str().find("topports"), std::string::npos);
}

TEST(Collector, MergedEpochReportFusesDuplicateKeys) {
  Collector collector;
  std::vector<EpochReport> emitted;
  collector.subscribe(
      [&emitted](const EpochReport& r) { emitted.push_back(r); });
  (void)collector.ingest(0, make_report(0, 1.04, {{1, 100.0, 2.0}}));
  (void)collector.ingest(1, make_report(0, 1.08, {{1, 60.0, 1.0},
                                                  {2, 40.0, 1.0}}));
  collector.finalize_all();

  ASSERT_EQ(emitted.size(), 1u);
  const EpochReport& merged = emitted[0];
  EXPECT_EQ(merged.epoch, 0u);
  ASSERT_EQ(merged.flows.size(), 2u);  // flow 1 fused, not duplicated
  double flow1 = 0.0;
  for (const auto& f : merged.flows) {
    if (f.flow == tuple(1)) flow1 = f.bytes;
  }
  EXPECT_DOUBLE_EQ(flow1, 160.0);
  EXPECT_DOUBLE_EQ(merged.totals.bytes, 200.0);
  EXPECT_EQ(merged.totals.flows, 2u);
  EXPECT_DOUBLE_EQ(merged.volume_b, 1.08);  // conservative max across sites
}

// top_k ranks every key, then builds intervals and site counts for the k
// winners only: each top_k(k) must be the first k rows of the full ranking,
// byte ties broken by key, for every k.
TEST(Collector, TopKIsThePrefixOfTheFullRanking) {
  Collector collector;
  // 60 keys whose byte sums fall into a few tied values; every third key is
  // seen at a second site too, so site counts and intervals differ.
  std::vector<FlowSpec> site0;
  std::vector<FlowSpec> site1;
  for (std::uint32_t id = 0; id < 60; ++id) {
    site0.push_back({id, 100.0 * (1 + id % 5), 1.0 + id % 5});
    if (id % 3 == 0) site1.push_back({id, 100.0, 1.0});
  }
  (void)collector.ingest(0, make_report(0, 1.05, site0));
  (void)collector.ingest(1, make_report(0, 1.08, site1));
  collector.finalize_all();

  ASSERT_EQ(collector.tracked_flows(), 60u);
  const auto full = collector.top_k(collector.tracked_flows());
  ASSERT_EQ(full.size(), 60u);
  std::size_t ties = 0;
  for (std::size_t i = 1; i < full.size(); ++i) {
    ASSERT_GE(full[i - 1].bytes, full[i].bytes) << "row " << i;
    if (full[i - 1].bytes == full[i].bytes) {
      ++ties;
      // tuple(id) orders as id does: ties rank by key.
      EXPECT_LT(full[i - 1].flow.src_ip, full[i].flow.src_ip) << "row " << i;
    }
  }
  EXPECT_GT(ties, 40u);

  for (const std::size_t k : {0u, 1u, 2u, 7u, 13u, 30u, 59u, 60u, 100u}) {
    SCOPED_TRACE("k = " + std::to_string(k));
    const auto top = collector.top_k(k);
    ASSERT_EQ(top.size(), std::min<std::size_t>(k, full.size()));
    for (std::size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].flow, full[i].flow) << "row " << i;
      EXPECT_EQ(top[i].bytes, full[i].bytes) << "row " << i;
      EXPECT_EQ(top[i].packets, full[i].packets) << "row " << i;
      EXPECT_EQ(top[i].bytes_low, full[i].bytes_low) << "row " << i;
      EXPECT_EQ(top[i].bytes_high, full[i].bytes_high) << "row " << i;
      EXPECT_EQ(top[i].interval_valid, full[i].interval_valid) << "row " << i;
      EXPECT_EQ(top[i].sites, full[i].sites) << "row " << i;
    }
  }
}

// --- spool transport ---------------------------------------------------------

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(std::string(::testing::TempDir()) + name) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void append_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string serialized(const EpochReport& report, std::uint32_t site_id) {
  std::stringstream buf;
  flowtable::write_report(buf, report, site_id);
  return buf.str();
}

TEST(SpoolSource, TornTailFreezesOffsetThenResumes) {
  TempFile spool("collect_spool_torn.bin");
  const std::string first = serialized(make_report(0, 1.05, {{1, 10.0, 1.0}}), 0);
  const std::string second =
      serialized(make_report(1, 1.05, {{2, 20.0, 1.0}}), 0);
  append_bytes(spool.path(), first);
  append_bytes(spool.path(), second.substr(0, second.size() / 2));

  Collector collector;
  SpoolSource source({spool.path()});
  auto stats = source.poll(collector);
  EXPECT_EQ(stats.reports, 1u);
  EXPECT_EQ(stats.truncated_tails, 1u);

  // The monitor finishes its flush: the tail completes in place and the
  // next poll picks up exactly the missing report -- no double count.
  append_bytes(spool.path(), second.substr(second.size() / 2));
  stats = source.poll(collector);
  EXPECT_EQ(stats.reports, 1u);
  EXPECT_EQ(stats.truncated_tails, 0u);
  EXPECT_EQ(source.reports_delivered(), 2u);

  collector.finalize_all();
  EXPECT_DOUBLE_EQ(collector.totals().bytes, 30.0);
  ASSERT_EQ(collector.sites().size(), 1u);
  EXPECT_EQ(collector.sites()[0].duplicates, 0u);
}

TEST(SpoolSource, MissingFileRetriesWithoutFailing) {
  TempFile spool("collect_spool_missing.bin");
  Collector collector;
  SpoolSource source({spool.path()});
  auto stats = source.poll(collector);
  EXPECT_EQ(stats.reports, 0u);
  EXPECT_EQ(stats.unreadable, 1u);

  append_bytes(spool.path(),
               serialized(make_report(0, 1.05, {{1, 10.0, 1.0}}), 0));
  stats = source.poll(collector);
  EXPECT_EQ(stats.reports, 1u);
  EXPECT_EQ(stats.unreadable, 0u);
}

TEST(SpoolSource, RoundRobinInterleavesFleetEpochs) {
  // Two spool files, three epochs each: round-robin delivery means the
  // watermark advances fleet-wide and nothing is misclassified late.
  TempFile a("collect_spool_a.bin");
  TempFile b("collect_spool_b.bin");
  for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
    append_bytes(a.path(), serialized(
        make_report(epoch, 1.05, {{1, 10.0, 1.0}}), 0));
    append_bytes(b.path(), serialized(
        make_report(epoch, 1.05, {{2, 10.0, 1.0}}), 1));
  }
  Collector collector;
  SpoolSource source({a.path(), b.path()});
  const auto stats = source.poll(collector);
  EXPECT_EQ(stats.reports, 6u);
  collector.finalize_all();
  EXPECT_EQ(collector.epochs_finalized(), 3u);
  for (const auto& site : collector.sites()) {
    EXPECT_EQ(site.late, 0u) << site.site_id;
    EXPECT_EQ(site.reports, 3u) << site.site_id;
  }
}

#if DISCO_FAULTS
TEST(SpoolSource, InjectedShortWriteLeavesRecoverableSpool) {
  TempFile spool("collect_spool_fault.bin");
  const auto report = make_report(0, 1.05, {{1, 10.0, 1.0}, {2, 20.0, 2.0}});
  {
    // The monitor's write dies mid-report (disk full / kill -9 mid-flush).
    util::fault::Plan plan;
    plan.start_after = 5;
    plan.fail_count = 1;
    util::fault::arm(util::fault::Point::kShortWrite, plan);
    std::ofstream out(spool.path(), std::ios::binary);
    EXPECT_THROW(flowtable::write_report(out, report, 0), std::runtime_error);
    util::fault::disarm_all();
  }
  Collector collector;
  SpoolSource source({spool.path()});
  auto stats = source.poll(collector);
  EXPECT_EQ(stats.reports, 0u);
  EXPECT_EQ(stats.truncated_tails, 1u);
  EXPECT_EQ(collector.reports_ingested(), 0u);  // nothing half-counted

  // The monitor restarts and rewrites its spool from the frozen offset.
  {
    std::ofstream out(spool.path(), std::ios::binary | std::ios::trunc);
    flowtable::write_report(out, report, 0);
  }
  stats = source.poll(collector);
  EXPECT_EQ(stats.reports, 1u);
  collector.finalize_all();
  EXPECT_DOUBLE_EQ(collector.totals().bytes, 30.0);
}
#endif  // DISCO_FAULTS

// --- socket transport --------------------------------------------------------

TEST(SocketTransport, ClientServerRoundTrip) {
  // Handler threads drain each connection at their own pace: one site can
  // race every epoch in before another site's first report.  Known fleet
  // => pre-register it (and keep the liveness window wider than the run),
  // so finalisation waits instead of misclassifying the slow site late.
  CollectorConfig config;
  config.liveness_window = 8;
  Collector collector(config);
  collector.expect_site(0);
  collector.expect_site(1);
  std::unique_ptr<ReportServer> server;
  try {
    server = std::make_unique<ReportServer>(collector);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "cannot bind loopback socket: " << e.what();
  }

  {
    ReportClient c0("127.0.0.1", server->port());
    ReportClient c1("127.0.0.1", server->port());
    for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
      c0.send(make_report(epoch, 1.05, {{1, 10.0, 1.0}}), 0);
      c1.send(make_report(epoch, 1.05, {{2, 20.0, 1.0}}), 1);
    }
  }  // destructors flush + close

  // Wait for all 6 reports to drain through the handler threads.
  for (int spins = 0; spins < 1000; ++spins) {
    {
      util::MutexLock lock(server->ingest_mutex());
      if (collector.reports_ingested() == 6) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server->stop();
  EXPECT_EQ(server->connections_accepted(), 2u);
  EXPECT_EQ(server->truncated_streams(), 0u);

  collector.finalize_all();
  EXPECT_EQ(collector.reports_ingested(), 6u);
  EXPECT_EQ(collector.epochs_finalized(), 3u);
  EXPECT_DOUBLE_EQ(collector.totals().bytes, 90.0);
  for (const auto& site : collector.sites()) {
    EXPECT_EQ(site.late, 0u) << site.site_id;
    EXPECT_EQ(site.duplicates, 0u) << site.site_id;
  }
}

TEST(SocketTransport, StopCutsLiveConnectionsCleanly) {
  Collector collector;
  std::unique_ptr<ReportServer> server;
  try {
    server = std::make_unique<ReportServer>(collector);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "cannot bind loopback socket: " << e.what();
  }
  ReportClient client("127.0.0.1", server->port());
  client.send(make_report(0, 1.05, {{1, 10.0, 1.0}}), 0);
  for (int spins = 0; spins < 1000; ++spins) {
    {
      util::MutexLock lock(server->ingest_mutex());
      if (collector.reports_ingested() == 1) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server->stop();  // connection still open: shutdown must not hang
  server->stop();  // idempotent
  EXPECT_EQ(collector.reports_ingested(), 1u);
}

/// The process's mapped virtual memory in kB, from /proc/self/status; 0
/// where that file is not there to read.
std::int64_t vm_size_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoll(line.substr(7));
  }
  return 0;
}

// Reconnect churn must not grow the server: the acceptor joins each ended
// connection's handler thread, so its stack is unmapped then, not at stop().
// Unreaped, 200 sequential connections keep about 1.6 GiB of thread stacks
// mapped.  Each connection is served before the next one opens, and VmSize
// is read after 20 connections, so the allocator's per-thread arenas (64 MiB
// of address space each, one per thread allocating at the same time) exist
// before the reading and do not count.
TEST(SocketTransport, EndedConnectionsAreReaped) {
  Collector collector;
  std::unique_ptr<ReportServer> server;
  try {
    server = std::make_unique<ReportServer>(collector);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "cannot bind loopback socket: " << e.what();
  }
  const auto wait_ingested = [&](std::uint64_t reports) {
    for (int spins = 0; spins < 2000; ++spins) {
      {
        util::MutexLock lock(server->ingest_mutex());
        if (collector.reports_ingested() >= reports) return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };

  constexpr std::uint64_t kWarmUp = 20;
  constexpr std::uint64_t kConnections = 200;
  std::int64_t before = 0;
  for (std::uint64_t i = 0; i < kWarmUp + kConnections; ++i) {
    if (i == kWarmUp) before = vm_size_kb();
    ReportClient client("127.0.0.1", server->port());
    client.send(make_report(i, 1.05, {{1, 10.0, 1.0}}), 0);
    wait_ingested(i + 1);
  }
  if (before == 0) GTEST_SKIP() << "no VmSize in /proc/self/status";
  const std::int64_t growth_kb = vm_size_kb() - before;
  server->stop();
  EXPECT_EQ(server->connections_accepted(), kWarmUp + kConnections);
  EXPECT_EQ(collector.reports_ingested(), kWarmUp + kConnections);
  EXPECT_LT(growth_kb, 256 * 1024) << "VmSize grew by " << growth_kb / 1024
                                   << " MiB over " << kConnections
                                   << " connections";
}

}  // namespace
}  // namespace disco::collect
