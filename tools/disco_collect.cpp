// disco_collect: the aggregation tier's CLI -- N monitors, one answer.
//
//   disco_collect --spool FILE [FILE ...] [options]
//   disco_collect --listen PORT [options]
//
//   --spool FILE...    drain DRPT reports from these spool files (typically
//                      one per monitor process; see disco_monitor --spool)
//   --listen PORT      accept monitor connections on 127.0.0.1:PORT instead
//                      (0 picks an ephemeral port, printed on startup)
//   --expect R         listen mode: stop once R reports arrived (default 0:
//                      wait for --wait-ms, then stop)
//   --wait-ms T        listen mode: maximum collection time (default 10000)
//   --sites N          pre-register sites 0..N-1 so epoch finalisation
//                      waits for the whole known fleet even before every
//                      site's first report arrives (default 0: sites
//                      register on first ingest)
//   --top K            print the global top-K flows (default 10)
//   --confidence C     two-sided interval confidence level (default 0.95)
//   --window W         liveness window in epochs: a site lagging more than
//                      W epochs behind the fleet stops gating epoch
//                      finalisation (default 2)
//   --modules a,b,...  subscribe the named analysis modules ("all" for every
//                      built-in; docs/modules.md) to the merged epoch stream
//                      and print their reports
//   --json             print one JSON document instead of text: doubles at
//                      full precision, module reports under "modules"
//
// Prints global top-k with Theorem 2 aggregate confidence intervals, global
// totals, reconciled fleet pressure, and a per-site status table (liveness,
// lag, duplicates, epoch gaps) -- docs/collector.md documents the
// semantics.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "collect/collector.hpp"
#include "collect/transport.hpp"
#include "modules/host.hpp"
#include "stats/table.hpp"
#include "util/thread_annotations.hpp"

namespace {

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::cerr << "error: " << error << "\n\n";
  std::cerr << "usage: disco_collect --spool FILE [FILE ...] [--top K]"
               " [--confidence C] [--window W]"
               " [--sites N] [--modules a,b,...|all] [--json]\n"
               "       disco_collect --listen PORT [--expect R]"
               " [--wait-ms T] [same options]\n";
  std::exit(2);
}

std::string ip_to_string(std::uint32_t ip) {
  std::ostringstream out;
  out << ((ip >> 24) & 0xff) << '.' << ((ip >> 16) & 0xff) << '.'
      << ((ip >> 8) & 0xff) << '.' << (ip & 0xff);
  return out.str();
}

std::string flow_label(const disco::flowtable::FiveTuple& t) {
  std::ostringstream out;
  out << ip_to_string(t.src_ip) << ':' << t.src_port << "->"
      << ip_to_string(t.dst_ip) << ':' << t.dst_port;
  return out.str();
}

void print_text(const disco::collect::Collector& collector, std::size_t top) {
  using disco::stats::fmt;
  const auto totals = collector.totals();
  std::cout << "reports: " << collector.reports_ingested()
            << ", epochs finalized: " << collector.epochs_finalized()
            << ", tracked flows: " << collector.tracked_flows() << "\n";
  std::cout << "global bytes: " << fmt(totals.bytes, 0) << "  ["
            << fmt(totals.bytes_low, 0) << ", " << fmt(totals.bytes_high, 0)
            << "], packets: " << fmt(totals.packets, 0) << "\n";
  const auto pressure = collector.pressure();
  std::cout << "fleet pressure: rejected " << pressure.flows_rejected
            << ", evicted " << pressure.flows_evicted << ", saturated "
            << pressure.counters_saturated << ", rescales "
            << pressure.rescale_events << "\n\n";

  disco::stats::TextTable flows_table(
      {"flow", "bytes", "ci", "packets", "sites"});
  for (const auto& g : collector.top_k(top)) {
    std::string interval = "[";
    interval.append(fmt(g.bytes_low, 0))
        .append(", ")
        .append(fmt(g.bytes_high, 0))
        .append("]");
    flows_table.add_row({flow_label(g.flow), fmt(g.bytes, 0), interval,
                         fmt(g.packets, 0), std::to_string(g.sites)});
  }
  flows_table.print(std::cout);

  std::cout << "\n";
  disco::stats::TextTable site_table({"site", "reports", "dup", "late",
                                      "reorder", "gaps", "lag", "live",
                                      "b"});
  for (const auto& s : collector.sites()) {
    site_table.add_row({std::to_string(s.site_id),
                        std::to_string(s.reports),
                        std::to_string(s.duplicates),
                        std::to_string(s.late),
                        std::to_string(s.reordered),
                        std::to_string(s.epoch_gaps),
                        std::to_string(s.lag_epochs),
                        s.lagging ? "lagging" : "live",
                        s.volume_b > 0.0 ? fmt(s.volume_b, 5) : "-"});
  }
  site_table.print(std::cout);
}

void print_json(const disco::collect::Collector& collector,
                const disco::modules::ModuleHost& host, std::size_t top) {
  const auto totals = collector.totals();
  std::ostringstream out;
  // Round-trip precision: a consumer (or a cmp of two runs) sees every bit.
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\"reports\":" << collector.reports_ingested()
      << ",\"epochs_finalized\":" << collector.epochs_finalized()
      << ",\"tracked_flows\":" << collector.tracked_flows()
      << ",\"flows_dropped\":" << collector.flows_dropped()
      << ",\"totals\":{\"bytes\":" << totals.bytes
      << ",\"packets\":" << totals.packets
      << ",\"bytes_low\":" << totals.bytes_low
      << ",\"bytes_high\":" << totals.bytes_high << "},\"top\":[";
  bool first = true;
  for (const auto& g : collector.top_k(top)) {
    if (!first) out << ',';
    first = false;
    out << "{\"flow\":\"" << flow_label(g.flow) << "\",\"bytes\":" << g.bytes
        << ",\"bytes_low\":" << g.bytes_low
        << ",\"bytes_high\":" << g.bytes_high << ",\"packets\":" << g.packets
        << ",\"sites\":" << g.sites << "}";
  }
  out << "],\"sites\":[";
  first = true;
  for (const auto& s : collector.sites()) {
    if (!first) out << ',';
    first = false;
    out << "{\"site\":" << s.site_id << ",\"reports\":" << s.reports
        << ",\"duplicates\":" << s.duplicates << ",\"late\":" << s.late
        << ",\"reordered\":" << s.reordered
        << ",\"epoch_gaps\":" << s.epoch_gaps
        << ",\"lag_epochs\":" << s.lag_epochs
        << ",\"lagging\":" << (s.lagging ? "true" : "false") << "}";
  }
  out << ']';
  if (host.size() > 0) out << ",\"modules\":" << host.export_json();
  out << '}';
  std::cout << out.str() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace disco;

  std::vector<std::string> spools;
  int listen_port = -1;
  std::uint64_t expect = 0;
  std::uint64_t wait_ms = 10000;
  std::uint32_t sites = 0;
  std::size_t top = 10;
  std::string modules_selection;
  bool json = false;
  collect::CollectorConfig config;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--spool") {
      // Greedy: every following non-flag argument is a spool file.
      while (i + 1 < argc && argv[i + 1][0] != '-') spools.push_back(argv[++i]);
      if (spools.empty()) usage("--spool needs at least one file");
    }
    else if (arg == "--listen") listen_port = std::atoi(value().c_str());
    else if (arg == "--expect") expect = static_cast<std::uint64_t>(std::atoll(value().c_str()));
    else if (arg == "--wait-ms") wait_ms = static_cast<std::uint64_t>(std::atoll(value().c_str()));
    else if (arg == "--sites") sites = static_cast<std::uint32_t>(std::atoll(value().c_str()));
    else if (arg == "--top") top = static_cast<std::size_t>(std::atoll(value().c_str()));
    else if (arg == "--confidence") config.confidence = std::atof(value().c_str());
    else if (arg == "--window") config.liveness_window = static_cast<std::uint64_t>(std::atoll(value().c_str()));
    else if (arg == "--modules") modules_selection = value();
    else if (arg == "--json") json = true;
    else usage(("unknown option: " + arg).c_str());
  }
  if (spools.empty() == (listen_port < 0)) {
    usage("exactly one of --spool / --listen is required");
  }

  collect::Collector collector(config);
  for (std::uint32_t site = 0; site < sites; ++site) {
    collector.expect_site(site);
  }
  modules::ModuleHost host("collector_modules");
  if (!modules_selection.empty()) {
    try {
      for (auto& module : modules::make_modules(modules_selection)) {
        host.attach(std::move(module));
      }
    } catch (const std::exception& e) {
      usage(e.what());
    }
    host.subscribe_to(collector);
  }

  if (!spools.empty()) {
    collect::SpoolSource source(spools);
    const auto stats = source.poll(collector);
    collector.finalize_all();
    if (stats.truncated_tails > 0) {
      std::cerr << "warning: " << stats.truncated_tails
                << " spool file(s) end mid-report (torn tail discarded)\n";
    }
    if (stats.unreadable > 0) {
      std::cerr << "warning: " << stats.unreadable
                << " spool file(s) could not be read\n";
    }
  } else {
    try {
      collect::ReportServer server(collector,
                                   static_cast<std::uint16_t>(listen_port));
      std::cerr << "listening on 127.0.0.1:" << server.port() << "\n";
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(wait_ms);
      for (;;) {
        {
          util::MutexLock lock(server.ingest_mutex());
          if (expect > 0 && collector.reports_ingested() >= expect) break;
        }
        if (std::chrono::steady_clock::now() >= deadline) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      server.stop();
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
    collector.finalize_all();
  }

  if (json) {
    print_json(collector, host, top);
  } else {
    print_text(collector, top);
    if (host.size() > 0) {
      std::cout << "\n";
      host.export_text(std::cout);
    }
  }
  return 0;
}
