#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "collect/collector.hpp"
#include "flowtable/report_io.hpp"
#include "modules/host.hpp"
#include "stages.hpp"

namespace perfbench {
namespace {

using disco::collect::Collector;
using disco::flowtable::FlowBurst;
using disco::flowtable::FlowMonitor;
using disco::modules::ModuleHost;

struct Fleet {
  std::vector<std::unique_ptr<FlowMonitor>> sites;
  std::unique_ptr<Collector> collector;
  std::unique_ptr<ModuleHost> host;
};

Fleet build_fleet(const Scale& scale) {
  Fleet fleet;
  for (unsigned s = 0; s < kSites; ++s) {
    FlowMonitor::Config config;
    config.max_flows = scale.site_flows;
    config.counter_bits = kCounterBits;
    config.seed = 0x5eed + s;
    config.telemetry_prefix = "fleet.site_" + std::to_string(s);
    fleet.sites.push_back(std::make_unique<FlowMonitor>(config));
  }
  fleet.collector = std::make_unique<Collector>();
  for (unsigned s = 0; s < kSites; ++s) fleet.collector->expect_site(s);
  fleet.host = std::make_unique<ModuleHost>();
  for (auto& module : disco::modules::make_modules("all")) {
    fleet.host->attach(std::move(module));
  }
  return fleet;
}

}  // namespace

FleetTraffic split_fleet(const Trace& trace) {
  FleetTraffic fleet;
  fleet.site_packets.resize(kSites);
  std::vector<std::vector<double>> site_bytes(
      kSites, std::vector<double>(trace.keys.size(), 0.0));
  for (std::size_t i = 0; i < trace.packets.size(); ++i) {
    const PacketEvent& p = trace.packets[i];
    const unsigned s = static_cast<unsigned>(i % kSites);
    fleet.site_packets[s].push_back(FlowBurst{p.flow, p.length, 1, p.now_ns});
    site_bytes[s][trace.id_of.at(p.flow)] += p.length;
  }
  for (const auto& bytes : site_bytes) {
    for (double b : bytes) fleet.sum_sq_bytes += b * b;
  }
  return fleet;
}

StageSamples run_fleet(const Trace& trace, const FleetTraffic& traffic,
                       const Scale& scale, const StagePlan& plan, Tracer& tracer) {
  StageSamples out;
  for (unsigned i = plan.rounds; i < plan.setup_samples; ++i) {
    (void)trimmed_rss_mb();
    const std::int64_t t0 = now_ns();
    Fleet fleet = build_fleet(scale);
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const std::size_t n = trace.packets.size();
  const std::size_t rx = kRxBurst;
  std::size_t chunks = 0;
  for (const auto& packets : traffic.site_packets) {
    chunks = std::max(chunks, (packets.size() + rx - 1) / rx);
  }

  std::vector<bool> is_top(trace.keys.size(), false);
  for (std::uint32_t id : trace.top_flows) is_top[id] = true;

  for (unsigned round = 0; round < plan.rounds; ++round) {
    PeakRss rss;
    const unsigned timed_before = out.timed_epochs;
    // Per-epoch outcome of the export path.  The collector hands each merged
    // epoch to the subscriber one epoch later (or at finalize_all()); the
    // epoch is settled after finalize_all(), and one that was never handed
    // over, or handed over twice, fails its checks.
    struct EpochState {
      bool ran = false;        ///< the epoch loop offered its packets
      bool sent_ok = true;     ///< packets_seen and Accepted, every site
      double delivered = 0.0;  ///< packets of Accepted reports
      unsigned reported = 0;   ///< merged reports the subscriber received
      Accuracy acc;            ///< of the last merged report received
    };
    std::map<std::uint64_t, EpochState> epochs;
    std::int64_t check_ns = 0;  // benchmark work inside collector callbacks

    const std::int64_t t_setup = now_ns();
    Fleet fleet;
    {
      const Scope span(tracer, "fleet.setup");
      fleet = build_fleet(scale);
      fleet.collector->subscribe([&](const EpochReport& merged) {
        {
          const Scope span(tracer, "modules.on_epoch", merged.flows.size());
          fleet.host->on_epoch(merged);
        }
        const std::int64_t t0 = now_ns();
        const Scope span(tracer, "bench.check", merged.flows.size());
        EpochState& state = epochs[merged.epoch];
        ++state.reported;
        state.acc = assess(merged, trace, traffic.sum_sq_bytes, false);
        check_ns += now_ns() - t0;
      });
    }
    out.setup_s.push_back(static_cast<double>(now_ns() - t_setup) / 1e9);
    rss.sample();
    std::size_t provisioned = 0, bits = 0;
    for (const auto& site : fleet.sites) {
      bits += site->memory().total();
      provisioned += site->config().max_flows;
    }
    out.bits_per_flow = static_cast<double>(bits) / static_cast<double>(provisioned);

    std::vector<std::uint64_t> seen_before(kSites, 0);
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(plan.seconds / plan.rounds * 1e9);
    for (std::uint32_t epoch = 0;; ++epoch) {
      const bool timed = epoch >= plan.warmup_epochs;
      tracer.set_id(epoch, kEpochLevel);
      const int epoch_span = tracer.open("fleet.epoch", n);
      const std::int64_t t_start = now_ns();
      for (std::size_t c = 0; c < chunks; ++c) {
        tracer.set_id(epoch, static_cast<std::uint32_t>(c));
        for (unsigned s = 0; s < kSites; ++s) {
          const auto& packets = traffic.site_packets[s];
          const std::size_t offset = c * rx;
          if (offset >= packets.size()) continue;
          const std::size_t len = std::min(rx, packets.size() - offset);
          const Scope span(tracer, "flowtable.ingest_batch", len);
          (void)fleet.sites[s]->ingest_batch({&packets[offset], len});
        }
      }
      const std::int64_t t_applied = now_ns();

      tracer.set_id(epoch, kEpochLevel);
      check_ns = 0;
      std::int64_t topk_ns = 0;
      std::uint64_t records = 0;
      std::vector<double> queries;
      EpochState& state = epochs[epoch];
      state.ran = true;
      for (unsigned s = 0; s < kSites; ++s) {
        FlowMonitor& site = *fleet.sites[s];
        const std::uint64_t seen = site.packets_seen() - seen_before[s];
        seen_before[s] = site.packets_seen();
        const bool seen_ok = seen == traffic.site_packets[s].size();
        ++out.checks.packets_seen_run;
        out.checks.packets_seen_failed += seen_ok ? 0 : 1;

        EpochReport report;
        {
          const Scope span(tracer, "flowtable.rotate", 1);
          report = site.rotate();
        }
        const std::uint64_t site_records = report.flows.size();
        std::stringstream wire;
        {
          const Scope span(tracer, "flowtable.drpt_encode", site_records);
          disco::flowtable::write_report(wire, report, s);
        }
        out.wire_bytes += static_cast<std::uint64_t>(wire.tellp());
        std::optional<disco::flowtable::ReportReader::Item> item;
        {
          const Scope span(tracer, "flowtable.drpt_decode", site_records);
          disco::flowtable::ReportReader reader(wire);
          item = reader.next();
        }
        const std::size_t tracked = fleet.collector->tracked_flows();
        Collector::IngestResult result = Collector::IngestResult::Duplicate;
        if (item) {
          const Scope span(tracer, "collect.ingest", site_records);
          result = fleet.collector->ingest(*item);
        }
        out.fused += site_records - (fleet.collector->tracked_flows() - tracked);
        records += site_records;
        const bool accepted = result == Collector::IngestResult::Accepted;
        ++out.checks.accepted_run;
        out.checks.accepted_failed += accepted ? 0 : 1;
        out.rejected_reports += accepted ? 0 : 1;
        state.sent_ok = state.sent_ok && seen_ok && accepted;
        if (accepted) state.delivered += static_cast<double>(seen);

        const std::int64_t q0 = now_ns();
        {
          const Scope span(tracer, "collect.top_k", 1);
          (void)fleet.collector->top_k(100);
        }
        const std::int64_t q = now_ns() - q0;
        topk_ns += q;
        queries.push_back(static_cast<double>(q) / 1e3);
      }
      const std::int64_t t_closed = now_ns();
      tracer.close(epoch_span);
      rss.sample();
      out.records += records;
      out.packets += n;

      if (timed) {
        ++out.timed_epochs;
        out.ingest_mpps.push_back(static_cast<double>(n) /
                                  (static_cast<double>(t_applied - t_start) / 1e3));
        out.close_ms.push_back(
            static_cast<double>(t_closed - t_applied - topk_ns - check_ns) / 1e6);
        out.query_us.insert(out.query_us.end(), queries.begin(), queries.end());
        out.records_per_epoch = records;
        // Interval coverage on the collector's cumulative per-key state:
        // every epoch so far replayed the same trace.
        std::size_t covered = 0;
        for (const auto& g : fleet.collector->top_k(fleet.collector->tracked_flows())) {
          const auto it = trace.id_of.find(g.flow);
          if (it == trace.id_of.end() || !is_top[it->second]) continue;
          const double truth = trace.true_bytes[it->second] * (epoch + 1);
          if (g.interval_valid && g.bytes_low <= truth && truth <= g.bytes_high) ++covered;
        }
        out.coverage.push_back(static_cast<double>(covered) /
                               static_cast<double>(trace.top_flows.size()));
      }
      const unsigned timed_this_round = out.timed_epochs - timed_before;
      if (epoch + 1 >= plan.warmup_epochs + plan.min_timed_epochs &&
          (now_ns() >= deadline ||
           (plan.max_timed_epochs != 0 && timed_this_round >= plan.max_timed_epochs))) {
        break;
      }
    }
    fleet.collector->finalize_all();
    for (const auto& [epoch, state] : epochs) {
      // A merged report for an epoch that never ran fails as well.
      const bool reported = state.ran && state.reported == 1;
      const bool flows_ok = reported && state.acc.all_flows;
      const bool total_ok = reported && state.acc.total_ok;
      const bool ok = state.sent_ok && flows_ok && total_ok;
      Checks& checks = out.checks;
      ++checks.flows_run;
      ++checks.total_run;
      checks.flows_failed += flows_ok ? 0 : 1;
      checks.total_failed += total_ok ? 0 : 1;
      ++checks.epochs;
      checks.epochs_failed += ok ? 0 : 1;
      checks.packets_offered += state.ran ? static_cast<double>(n) : 0.0;
      checks.packets_delivered += ok ? state.delivered : 0.0;
      if (epoch >= plan.warmup_epochs) {
        // An unchecked epoch counts as a 100% error, as a missing flow does.
        out.volume_err.push_back(reported ? state.acc.volume_rel_err : 1.0);
        out.size_err.push_back(reported ? state.acc.size_rel_err : 1.0);
      }
    }
    for (const auto& site : fleet.sites) {
      out.lookups += site->table().total_lookups();
      out.rejected_flows += site->table().rejected_flows();
    }
    out.rss_mb.push_back(rss.growth_mb());
    out.round_ingest_mpps.push_back(median(std::vector<double>(
        out.ingest_mpps.end() - (out.timed_epochs - timed_before), out.ingest_mpps.end())));
    out.ref_kernel_ns.push_back(ref_kernel_ns());
  }
  return out;
}

}  // namespace perfbench
