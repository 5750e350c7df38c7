// distributed_aggregation: N monitors, one answer, through the collector.
//
//   $ ./distributed_aggregation [taps]
//
// A flow's packets often cross several taps (ECMP paths, mirrored links,
// per-core shards).  Each tap runs its own FlowMonitor over the slice it
// sees; the aggregation tier (src/collect, docs/collector.md) merges their
// epoch reports into one global view.  This example builds that pipeline
// end to end *in process*: tap monitors ingest disjoint slices, their
// reports round-trip through the DRPT v3 wire format exactly as they would
// over a spool file or socket, and a Collector fuses them -- unbiased
// cross-site sums with pooled-variance Theorem 2 intervals.  A centralised
// monitor over the whole stream and the exact per-flow truth calibrate the
// result.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "collect/collector.hpp"
#include "flowtable/monitor.hpp"
#include "flowtable/report_io.hpp"
#include "stats/table.hpp"
#include "trace/synthetic.hpp"
#include "util/histogram.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace {

/// Deterministic dense-id-to-5-tuple mapping (same scheme as the tools), so
/// merged keys relate back to trace flow ids.
disco::flowtable::FiveTuple tuple_for_flow(std::uint32_t flow_id) {
  disco::flowtable::FiveTuple t;
  t.src_ip = 0x0a000000u | flow_id;
  t.dst_ip = 0xc0a80001u;
  t.src_port = static_cast<std::uint16_t>(1024 + (flow_id & 0x7fff));
  t.dst_port = 443;
  t.protocol = 6;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace disco;
  const int taps = argc > 1 ? std::atoi(argv[1]) : 4;
  if (taps < 1 || taps > 64) {
    std::cerr << "taps must be in [1, 64]\n";
    return 2;
  }
  const auto n_taps = static_cast<std::size_t>(taps);

  util::Rng traffic_rng(31);
  const auto flows = trace::real_trace_model().make_flows(400, traffic_rng);

  // One 12-bit monitor per tap, plus a centralised reference monitor that
  // sees every packet.  Distinct seeds: the taps' estimation errors must be
  // independent for the pooled-variance interval to be honest.
  flowtable::FlowMonitor::Config config;
  config.max_flows = 4096;
  config.counter_bits = 12;
  std::vector<std::unique_ptr<flowtable::FlowMonitor>> tap_monitors;
  for (std::size_t tap = 0; tap < n_taps; ++tap) {
    config.seed = 100 + tap;
    tap_monitors.push_back(std::make_unique<flowtable::FlowMonitor>(config));
  }
  config.seed = 99;
  flowtable::FlowMonitor central(config);

  // Each packet takes one of `taps` paths (hash by arrival index).
  std::map<std::uint32_t, double> truth;
  for (const auto& flow : flows) {
    const auto key = tuple_for_flow(flow.id);
    for (std::size_t i = 0; i < flow.lengths.size(); ++i) {
      tap_monitors[i % n_taps]->ingest(key, flow.lengths[i]);
      central.ingest(key, flow.lengths[i]);
    }
    truth[flow.id] += static_cast<double>(flow.bytes());
  }

  // Ship each tap's epoch report to the collector through the real DRPT v3
  // wire format -- the same bytes a spool file or socket would carry.
  collect::Collector collector({.confidence = 0.95});
  for (std::uint32_t tap = 0; tap < static_cast<std::uint32_t>(taps); ++tap) {
    collector.expect_site(tap);
  }
  for (std::uint32_t tap = 0; tap < static_cast<std::uint32_t>(taps); ++tap) {
    std::stringstream wire;
    flowtable::write_report(wire, tap_monitors[tap]->rotate(), tap);
    flowtable::ReportReader reader(wire);
    while (auto item = reader.next()) {
      (void)collector.ingest(item->site_id, item->version, item->report);
    }
  }
  collector.finalize_all();

  std::map<std::uint32_t, double> central_estimate;
  for (const auto& est : central.rotate().flows) {
    central_estimate[est.flow.src_ip & 0x00ffffffu] = est.bytes;
  }

  const auto totals = collector.totals();
  std::cout << "flows: " << flows.size() << ", taps: " << taps
            << ", 12-bit counters, volume b per site:";
  for (const auto& site : collector.sites()) {
    std::cout << ' ' << stats::fmt(site.volume_b, 5);
  }
  std::cout << "\n"
            << "collector: " << collector.reports_ingested() << " reports, "
            << collector.epochs_finalized() << " epoch(s), "
            << collector.tracked_flows() << " tracked flows\n\n";

  util::StreamingStats merged_err;
  util::StreamingStats central_err;
  std::size_t covered = 0;
  stats::TextTable sample({"flow", "truth (B)", "merged estimate", "95% CI",
                           "sites", "central estimate"});
  for (const auto& est : collector.top_k(flows.size())) {
    const std::uint32_t flow_id = est.flow.src_ip & 0x00ffffffu;
    const double true_bytes = truth.at(flow_id);
    if (true_bytes == 0.0) continue;
    merged_err.add(util::relative_error(est.bytes, true_bytes));
    central_err.add(util::relative_error(central_estimate[flow_id],
                                         true_bytes));
    if (est.interval_valid && est.bytes_low <= true_bytes &&
        true_bytes <= est.bytes_high) {
      ++covered;
    }
    if (flow_id < 5) {
      // Built with append rather than "literal" + rvalue-string operator+:
      // gcc 12's -Wrestrict false-positives on that overload (PR105651).
      std::string interval = "[";
      interval.append(stats::fmt(est.bytes_low, 0))
          .append(", ")
          .append(stats::fmt(est.bytes_high, 0))
          .append("]");
      sample.add_row({std::to_string(flow_id), stats::fmt(true_bytes, 0),
                      stats::fmt(est.bytes, 0), interval,
                      std::to_string(est.sites),
                      stats::fmt(central_estimate[flow_id], 0)});
    }
  }
  sample.print(std::cout);

  std::cout << "\nglobal bytes: " << stats::fmt(totals.bytes, 0) << " in ["
            << stats::fmt(totals.bytes_low, 0) << ", "
            << stats::fmt(totals.bytes_high, 0) << "]"
            << "\naverage relative error, merged across " << taps
            << " taps : " << stats::fmt(merged_err.mean(), 4)
            << "\naverage relative error, centralised        : "
            << stats::fmt(central_err.mean(), 4)
            << "\n95% interval coverage over per-flow truth   : " << covered
            << "/" << merged_err.count()
            << "\n\nthe merged estimate is typically MORE accurate than\n"
               "centralised counting: the taps' estimation errors are\n"
               "independent and average out in the sum, and the collector's\n"
               "pooled-variance intervals say so -- each flow's interval\n"
               "narrows by ~sqrt(sites) relative to a single counter of the\n"
               "same total.  Distributed DISCO is both cheap and\n"
               "statistically free (docs/collector.md has the math).\n";
  return 0;
}
