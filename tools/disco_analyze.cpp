// disco_analyze: offline analysis of a stored trace.
//
//   disco_analyze <trace-file> [options]
//
//   trace-file    .dtrc or .pcap (format by extension)
//
//   --bits N           counter budget per flow (default 10)
//   --mode volume|size what to count (default volume)
//   --methods a,b,...  comparison set (default DISCO,DISCO-fixed,SAC)
//   --seed N           RNG seed for the probabilistic methods (default 1)
//   --top K            also print the K heaviest flows by exact volume
//   --ci               print 95% confidence intervals for the top flows'
//                      DISCO estimates (Theorem 2 normal approximation)
//   --metrics          enable runtime telemetry, additionally replay the
//                      trace through a PipelineMonitor, and print the
//                      metric registry as JSON (see docs/telemetry.md)
//   --modules a,b,...  replay the trace through a PipelineMonitor with
//                      the named analysis modules subscribed to rotate()
//                      ("all" selects every built-in; docs/modules.md) and
//                      print each module's report
//   --epochs N         rotations for the --modules replay: the packet
//                      stream is split into N equal measurement intervals
//                      (default 4)
//   --modules-json     emit the module reports as one JSON document
//                      instead of text
//
// Replays the trace against each method and prints the paper's error
// metrics, plus counter-bit accounting -- the offline half of the pipeline.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/disco.hpp"
#include "modules/host.hpp"
#include "pipeline/pipeline.hpp"
#include "stats/experiment.hpp"
#include "stats/table.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/registry.hpp"
#include "trace/pcap.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_stats.hpp"

namespace {

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::cerr << "error: " << error << "\n\n";
  std::cerr << "usage: disco_analyze <trace.dtrc|trace.pcap> [--bits N]"
               " [--mode volume|size] [--methods a,b,...] [--seed N] [--top K]"
               " [--ci] [--metrics] [--modules a,b,...|all] [--epochs N]"
               " [--modules-json]\n";
  std::exit(2);
}

/// A synthetic but deterministic 5-tuple for a dense flow id, for replaying
/// id-keyed traces through the 5-tuple monitor stack.
disco::flowtable::FiveTuple tuple_for_flow(std::uint32_t flow_id) {
  disco::flowtable::FiveTuple t;
  t.src_ip = 0x0a000000u | flow_id;  // 10.x.y.z
  t.dst_ip = 0xc0a80001u;            // 192.168.0.1
  t.src_port = static_cast<std::uint16_t>(1024 + (flow_id & 0x7fff));
  t.dst_port = 443;
  t.protocol = 6;
  return t;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// The online monitor both replays drive: four shard-owning workers fed by
/// one producer, coalescing off so every packet is its own DISCO update.
/// Callers drain() before each rotate(), so each cut falls exactly where
/// the replay puts it and the output is deterministic.
disco::pipeline::PipelineMonitor::Config replay_config(
    const disco::flowtable::FlowMonitor::Config& base,
    const std::string& telemetry_prefix) {
  disco::pipeline::PipelineMonitor::Config config;
  config.base = base;
  config.workers = 4;
  config.producers = 1;
  config.coalescer = false;
  config.telemetry_prefix = telemetry_prefix;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace disco;
  if (argc < 2) usage();
  const std::string path = argv[1];
  if (path == "--help" || path == "-h") usage();

  int bits = 10;
  stats::CountingMode mode = stats::CountingMode::kVolume;
  std::vector<std::string> methods = {"DISCO", "DISCO-fixed", "SAC"};
  std::uint64_t seed = 1;
  std::size_t top_k = 0;
  bool with_ci = false;
  bool with_metrics = false;
  std::string modules_selection;
  std::size_t module_epochs = 4;
  bool modules_json = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bits") == 0 && i + 1 < argc) {
      bits = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--mode") == 0 && i + 1 < argc) {
      const std::string m = argv[++i];
      if (m == "volume") {
        mode = stats::CountingMode::kVolume;
      } else if (m == "size") {
        mode = stats::CountingMode::kSize;
      } else {
        usage("--mode must be volume or size");
      }
    } else if (std::strcmp(argv[i], "--methods") == 0 && i + 1 < argc) {
      methods = split_csv(argv[++i]);
      if (methods.empty()) usage("--methods list empty");
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
      top_k = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--ci") == 0) {
      with_ci = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      with_metrics = true;
    } else if (std::strcmp(argv[i], "--modules") == 0 && i + 1 < argc) {
      modules_selection = argv[++i];
    } else if (std::strcmp(argv[i], "--epochs") == 0 && i + 1 < argc) {
      module_epochs = static_cast<std::size_t>(std::atol(argv[++i]));
      if (module_epochs == 0) usage("--epochs must be >= 1");
    } else if (std::strcmp(argv[i], "--modules-json") == 0) {
      modules_json = true;
    } else {
      usage("unknown option");
    }
  }
  if (with_metrics) telemetry::set_enabled(true);

  try {
    // Load packets and regroup them into flows (arrival order preserved).
    std::vector<trace::PacketRecord> packets;
    if (ends_with(path, ".pcap")) {
      packets = trace::read_pcap_file(path);
    } else {
      packets = trace::read_trace_file(path).packets;
    }
    std::uint32_t max_flow_id = 0;
    for (const auto& p : packets) max_flow_id = std::max(max_flow_id, p.flow_id);
    std::vector<trace::FlowRecord> flows(max_flow_id + 1);
    for (std::uint32_t id = 0; id <= max_flow_id; ++id) flows[id].id = id;
    for (const auto& p : packets) flows[p.flow_id].lengths.push_back(p.length);

    const auto summary = trace::summarize(flows);
    std::cout << "trace: " << packets.size() << " packets, " << summary.flow_count
              << " flow slots, " << summary.total_bytes << " bytes; counting "
              << stats::to_string(mode) << " with " << bits
              << "-bit counters\n\n";

    auto& method_run_ns =
        telemetry::Registry::global().histogram("analyze.method_run_ns");
    stats::TextTable table({"method", "avg R", "R_o(0.95)", "max R",
                            "largest counter bits", "SRAM bits"});
    for (const auto& name : methods) {
      const auto method = stats::make_method(name);
      const telemetry::ScopeTimer timer(method_run_ns);
      const auto r = stats::run_accuracy(*method, flows, mode, bits, seed);
      table.add_row({name, stats::fmt(r.errors.average, 4),
                     stats::fmt(r.errors.optimistic95, 4),
                     stats::fmt(r.errors.maximum, 4),
                     std::to_string(r.max_counter_bits),
                     std::to_string(r.storage_bits)});
    }
    table.print(std::cout);

    if (top_k > 0 || with_ci) {
      if (top_k == 0) top_k = 5;
      auto truths = trace::flow_truths(flows);
      std::partial_sort(truths.begin(),
                        truths.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(top_k, truths.size())),
                        truths.end(),
                        [](const trace::FlowTruth& a, const trace::FlowTruth& b) {
                          return a.bytes > b.bytes;
                        });
      // Re-run DISCO to attach estimates (and intervals) to the top flows.
      const auto disco = stats::make_method("DISCO");
      const auto rd = stats::run_accuracy(*disco, flows, mode, bits, seed);
      const auto params = core::DiscoParams::for_budget(
          std::max<std::uint64_t>(1, stats::max_flow_length(flows, mode)), bits);
      std::cout << "\ntop flows by exact volume:\n";
      for (std::size_t i = 0; i < std::min(top_k, truths.size()); ++i) {
        std::cout << "  flow " << truths[i].id << ": " << truths[i].bytes
                  << " B / " << truths[i].packets << " pkts; DISCO estimate "
                  << stats::fmt(rd.estimates[truths[i].id], 0);
        if (with_ci) {
          // Invert the estimate back to the counter for the interval.
          const auto c = static_cast<std::uint64_t>(
              params.counter_bound(rd.estimates[truths[i].id]) + 0.5);
          const auto ci = params.confidence_interval(c, 0.95);
          std::cout << " (95% CI [" << stats::fmt(ci.low, 0) << ", "
                    << stats::fmt(ci.high, 0) << "])";
        }
        std::cout << '\n';
      }
    }

    if (!modules_selection.empty()) {
      // Replay the trace through the online monitor with the selected
      // analysis modules subscribed, rotating `module_epochs` times so the
      // modules see a stream of measurement intervals (docs/modules.md).
      modules::ModuleHost host;
      for (auto& module : modules::make_modules(modules_selection)) {
        host.attach(std::move(module));
      }
      pipeline::PipelineMonitor monitor(replay_config(
          {.max_flows = static_cast<std::size_t>(max_flow_id) + 1,
           .counter_bits = bits,
           .seed = seed},
          "analyze_modules"));
      host.subscribe_to(monitor);
      auto close_epoch = [&monitor] {
        monitor.drain();
        (void)monitor.rotate();
      };
      const std::size_t per_epoch =
          std::max<std::size_t>(1, packets.size() / module_epochs);
      std::size_t in_epoch = 0;
      for (const auto& p : packets) {
        (void)monitor.ingest(0, tuple_for_flow(p.flow_id), p.length);
        if (++in_epoch >= per_epoch && host.epochs_dispatched() + 1 < module_epochs) {
          close_epoch();
          in_epoch = 0;
        }
      }
      close_epoch();  // final interval
      host.flush();
      if (modules_json) {
        std::cout << "\n" << host.export_json() << "\n";
      } else {
        std::cout << "\nmodule reports (" << host.epochs_dispatched()
                  << " epochs):\n";
        host.export_text(std::cout);
      }
    }

    if (with_metrics) {
      // Replay the trace through the online monitor stack so the snapshot
      // carries the operational signals too (per-worker ingest, rings,
      // probe lengths), not just the offline error analysis.
      pipeline::PipelineMonitor monitor(replay_config(
          {.max_flows = static_cast<std::size_t>(max_flow_id) + 1,
           .counter_bits = bits},
          "pipeline"));
      for (const auto& p : packets) {
        (void)monitor.ingest(0, tuple_for_flow(p.flow_id), p.length);
      }
      monitor.drain();
      (void)monitor.rotate();  // closes the replay's one epoch
      std::cout << "\ntelemetry snapshot:\n"
                << telemetry::to_json(telemetry::Registry::global().snapshot())
                << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
