// Ingest throughput of the lock-free pipeline -- the software version of the
// paper's Section VI claim that ring-fed run-to-completion MicroEngines with
// burst pre-aggregation reach line rate (Table V: 11.1 Gbps per ME, ~2.5x
// of it from aggregation alone).
//
// N producer threads ingest a bursty workload (back-to-back same-flow runs,
// the traffic shape Section VI exploits): producers only hash and push into
// SPSC rings; N dedicated workers pop in batches, coalesce bursts, and apply
// updates to their exclusive shards.  Throughput comes from three places: no
// locks, batched ring drains, and ~burst-length-fold fewer discounted
// updates.  The 1/2/4/8-producer sweep is the host-scaling view.
//
// Reported Mpps is end-to-end: producers start to last packet applied
// (drain), so ring residue is paid for, not hidden.
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "modules/host.hpp"
#include "pipeline/pipeline.hpp"
#include "util/rng.hpp"
#include "util/atomic.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using disco::flowtable::FiveTuple;

constexpr std::uint32_t kFlows = 4096;

// Bursty packet source: runs of 1..16 same-flow packets (mean ~6), flow ids
// skewed so a handful of elephants dominate -- the shape of real links and
// the precondition for Section VI's aggregation win.  Deterministic per
// producer id.
struct BurstSource {
  explicit BurstSource(unsigned producer) : rng(9000 + producer) {}

  struct Packet {
    FiveTuple flow;
    std::uint32_t length;
  };

  Packet next() {
    if (remaining == 0) {
      // Skew: AND of two uniforms concentrates mass on low flow ids.
      const auto a = rng.uniform_u64(0, kFlows - 1);
      const auto b = rng.uniform_u64(0, kFlows - 1);
      current = static_cast<std::uint32_t>(a & b);
      remaining = 1 + rng.uniform_u64(0, 15);
    }
    --remaining;
    return Packet{FiveTuple{0x0a000000u + current, 0x08080404u,
                            static_cast<std::uint16_t>(current), 443, 6},
                  static_cast<std::uint32_t>(rng.uniform_u64(64, 1500))};
  }

  disco::util::Rng rng;
  std::uint32_t current = 0;
  std::uint64_t remaining = 0;
};

disco::flowtable::FlowMonitor::Config base_config() {
  disco::flowtable::FlowMonitor::Config c;
  c.max_flows = 1 << 16;
  c.counter_bits = 12;
  c.max_flow_bytes = 1ull << 34;
  c.max_flow_packets = 1 << 24;
  c.seed = 4242;
  return c;
}

struct RunResult {
  double mpps = 0.0;
  double gbps = 0.0;
  std::uint64_t coalesced = 0;
};

/// Pipeline settings the ablation varies; defaults match the headline run.
struct PipelineOptions {
  bool batched_ingest = true;  ///< producers use ingest_batch (rx-burst)
  disco::flowtable::EstimatorKind estimator =
      disco::flowtable::EstimatorKind::Disco;
};

/// Producer batch size for the batched-ingest path: one NIC rx-burst worth
/// of packets hashed, bucketed, and published per ring commit.
constexpr std::size_t kIngestBatch = 256;

RunResult run_pipeline(unsigned producers, std::uint64_t packets_per_producer,
                       const PipelineOptions& options = {}) {
  using namespace disco;
  pipeline::PipelineMonitor::Config config;
  config.base = base_config();
  config.base.estimator = options.estimator;
  config.workers = producers;  // one shard-owning worker per producer
  config.producers = producers;
  config.ring_capacity = 1u << 14;
  config.backpressure = pipeline::Backpressure::Block;
  config.coalescer.slots = 64;
  pipeline::PipelineMonitor monitor(config);

  disco::util::atomic<std::uint64_t> total_bytes{0};
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (unsigned p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      BurstSource source(p);
      std::uint64_t bytes = 0;
      if (options.batched_ingest) {
        std::vector<pipeline::PipelineMonitor::PacketEvent> batch(kIngestBatch);
        std::uint64_t done = 0;
        while (done < packets_per_producer) {
          const std::size_t n = static_cast<std::size_t>(
              std::min<std::uint64_t>(kIngestBatch, packets_per_producer - done));
          for (std::size_t j = 0; j < n; ++j) {
            const auto pkt = source.next();
            batch[j] = {pkt.flow, pkt.length, 0};
            bytes += pkt.length;
          }
          (void)monitor.ingest_batch(p, batch.data(), n);
          done += n;
        }
      } else {
        for (std::uint64_t i = 0; i < packets_per_producer; ++i) {
          const auto pkt = source.next();
          (void)monitor.ingest(p, pkt.flow, pkt.length);
          bytes += pkt.length;
        }
      }
      total_bytes.fetch_add(bytes, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  monitor.drain();  // end-to-end: count the time to apply every packet
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  RunResult r;
  r.mpps = static_cast<double>(producers) *
           static_cast<double>(packets_per_producer) / elapsed / 1e6;
  r.gbps = static_cast<double>(total_bytes.load(std::memory_order_relaxed)) * 8.0 / elapsed / 1e9;
  r.coalesced = monitor.coalesced();
  return r;
}

/// Best-of-`repeats` wrapper for the ablation rows: single runs at bench
/// scale are a few milliseconds, and on a shared host the run-to-run spread
/// (scheduler, frequency, cache pollution) is larger than several of the
/// effects being measured.  Max, not mean: the quantity of interest is the
/// attainable throughput of a configuration, and every slowdown source is
/// one-sided noise.
RunResult run_pipeline_best(unsigned producers,
                            std::uint64_t packets_per_producer,
                            const PipelineOptions& options, int repeats) {
  RunResult best;
  for (int i = 0; i < repeats; ++i) {
    const RunResult r = run_pipeline(producers, packets_per_producer, options);
    if (r.mpps > best.mpps) best = r;
  }
  return best;
}

/// Module-overhead ablation: the same pipeline run, but the main thread
/// rotates `rotations` times at packet-count thresholds (polled through the
/// control plane) while producers ingest -- once with no subscribers, once
/// with the full built-in module set attached.  Both arms pay for the
/// rotations and the polling; the delta is what the analysis layer costs.
RunResult run_pipeline_with_modules(unsigned producers,
                                    std::uint64_t packets_per_producer,
                                    unsigned rotations, bool with_modules) {
  using namespace disco;
  pipeline::PipelineMonitor::Config config;
  config.base = base_config();
  config.workers = producers;
  config.producers = producers;
  config.ring_capacity = 1u << 14;
  config.backpressure = pipeline::Backpressure::Block;
  config.coalescer.slots = 64;
  pipeline::PipelineMonitor monitor(config);

  modules::ModuleHost host("bench_modules");
  if (with_modules) {
    for (auto& module : modules::make_modules("all")) {
      host.attach(std::move(module));
    }
    host.subscribe_to(monitor);
  }

  const std::uint64_t total_packets =
      static_cast<std::uint64_t>(producers) * packets_per_producer;
  disco::util::atomic<std::uint64_t> total_bytes{0};
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (unsigned p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      BurstSource source(p);
      std::uint64_t bytes = 0;
      for (std::uint64_t i = 0; i < packets_per_producer; ++i) {
        const auto pkt = source.next();
        (void)monitor.ingest(p, pkt.flow, pkt.length);
        bytes += pkt.length;
      }
      total_bytes.fetch_add(bytes, std::memory_order_relaxed);
    });
  }
  // Rotate mid-stream at evenly spaced packet thresholds (the last interval
  // is closed after drain, below).
  unsigned rotated = 0;
  while (rotated + 1 < rotations) {
    if (monitor.packets_seen() >=
        (rotated + 1) * (total_packets / rotations)) {
      (void)monitor.rotate();
      ++rotated;
    } else {
      std::this_thread::yield();
    }
    if (monitor.packets_seen() >= total_packets) break;
  }
  for (auto& t : threads) t.join();
  monitor.drain();
  (void)monitor.rotate();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  RunResult r;
  r.mpps = static_cast<double>(total_packets) / elapsed / 1e6;
  r.gbps = static_cast<double>(total_bytes.load(std::memory_order_relaxed)) * 8.0 / elapsed / 1e9;
  r.coalesced = monitor.coalesced();
  return r;
}

/// Strips `--json=<path>` from argv; returns the path ("" when absent).
std::string parse_json_flag(int* argc, char** argv) {
  std::string path;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      path = argv[i] + 7;
      continue;
    }
    argv[kept++] = argv[i];
  }
  *argc = kept;
  return path;
}

struct MainRow {
  unsigned producers;
  RunResult pipe;
  double coalesce_ratio;
};

struct ModuleRow {
  unsigned producers;
  unsigned rotations;
  RunResult without;
  RunResult with;
};

struct AblationRow {
  const char* label;
  PipelineOptions options;
  RunResult result;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace disco;
  const bool telemetry = bench::parse_telemetry_flag(&argc, argv);
  const std::string json_path = parse_json_flag(&argc, argv);
  bench::print_title(
      "lock-free pipeline ingest throughput",
      "Section VI / Table V: ring-fed MEs with burst pre-aggregation");

  const auto packets_per_producer =
      static_cast<std::uint64_t>(500'000 * bench::scale());
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "hardware threads available: " << hw
            << " (pipeline adds one worker thread per producer)\n\n";

  std::vector<MainRow> main_rows;
  stats::TextTable table(
      {"producers", "pipeline Mpps", "pipeline Gbps", "coalesce ratio"});
  // Main rows are best-of-3 for the same reason the ingest ablation is
  // best-of-5: single runs at bench scale are milliseconds, and on a
  // shared box the scheduler/frequency spread exceeds PR-sized effects.
  // These rows are the trajectory headline in BENCH_<n>.json, so a lucky
  // or unlucky draw must not move them.
  constexpr int kMainRepeats = 3;
  for (unsigned producers : {1u, 2u, 4u, 8u}) {
    const RunResult pipe = run_pipeline_best(producers, packets_per_producer,
                                             PipelineOptions{}, kMainRepeats);
    const double total_packets = static_cast<double>(producers) *
                                 static_cast<double>(packets_per_producer);
    // updates saved: merged packets / all packets -- ~0.6 means each DISCO
    // update covered ~2.5 packets, the paper's aggregation factor.
    const double coalesce_ratio =
        static_cast<double>(pipe.coalesced) / total_packets;
    main_rows.push_back({producers, pipe, coalesce_ratio});
    table.add_row({std::to_string(producers), stats::fmt(pipe.mpps, 2),
                   stats::fmt(pipe.gbps, 2), stats::fmt(coalesce_ratio, 2)});
  }
  table.print(std::cout);
  std::cout << "\nthroughput comes from three places: producers never take\n"
               "a lock (SPSC rings), workers drain rings in batches, and\n"
               "burst coalescing applies one discounted update per ~run of\n"
               "same-flow packets (Section VI's ~2.5x aggregation factor).\n";
  if (hw < 4) {
    std::cout << "(only " << hw
              << " hardware thread(s) here: producer+worker pairs are\n"
                 "oversubscribed, so the rows above do not show parallel\n"
                 "scaling.)\n";
  }

  // --- ingest ablation -------------------------------------------------------
  // The throughput frontier, one lever at a time: per-packet vs batched
  // producer ingest (hash + bucket + span commit), then the estimator
  // family.  The worker side is the same in every row: the monitor's
  // prefetching batch walk.  The tag-probe engine itself is compile-time
  // (simd_isa below; see bench_micro_update for the SIMD-vs-scalar probe
  // A/B).  One producer/worker pair: the lever effects are per-core, and
  // adding pairs on an oversubscribed host only adds scheduler noise.
  constexpr int kAblationRepeats = 5;
  std::cout << "\ningest ablation (1 producer, best of " << kAblationRepeats
            << " runs, probe engine: " << flowtable::tagprobe::isa_name()
            << "):\n";
  using disco::flowtable::EstimatorKind;
  std::vector<AblationRow> ablation_rows = {
      {"per-packet producer ingest", {.batched_ingest = false}, {}},
      {"+ batched producer ingest", {.batched_ingest = true}, {}},
      {"additive estimator",
       {.batched_ingest = true, .estimator = EstimatorKind::AdditiveError}, {}},
  };
  stats::TextTable abl({"configuration", "Mpps", "Gbps", "vs per-packet"});
  for (AblationRow& row : ablation_rows) {
    row.result = run_pipeline_best(1, packets_per_producer, row.options,
                                   kAblationRepeats);
    abl.add_row({row.label, stats::fmt(row.result.mpps, 2),
                 stats::fmt(row.result.gbps, 2),
                 stats::fmt(row.result.mpps / ablation_rows[0].result.mpps, 2) +
                     "x"});
  }
  abl.print(std::cout);
  std::cout << "(batched ingest amortises the ring's release store and the\n"
               "routing hash over an rx-burst.  The additive estimator's per-update\n"
               "cost is lower than DISCO's, but its halve-all rescale walks\n"
               "are amortised over the epoch: short measurement windows like\n"
               "this one pay the O(slots) scale ramp up front, long ones --\n"
               "see bench_micro_update's estimator A/B -- come out ahead.)\n";

  // --- module-overhead ablation ---------------------------------------------
  // Same pipeline, rotating mid-stream: once with no epoch subscribers, once
  // with all built-in analysis modules attached.  Modules run on the
  // control-plane thread at rotate(), so ingest throughput should be nearly
  // untouched -- this section is the number that claim rests on
  // (docs/modules.md, EXPERIMENTS.md).
  constexpr unsigned kRotations = 8;
  std::cout << "\nmodule-overhead ablation (" << kRotations
            << " rotations mid-stream, all built-in modules):\n";
  std::vector<ModuleRow> module_rows;
  stats::TextTable mods({"producers", "no-modules Mpps", "modules Mpps",
                         "overhead"});
  for (unsigned producers : {1u, 2u}) {
    const RunResult without = run_pipeline_with_modules(
        producers, packets_per_producer, kRotations, false);
    const RunResult with = run_pipeline_with_modules(
        producers, packets_per_producer, kRotations, true);
    module_rows.push_back({producers, kRotations, without, with});
    const double overhead = without.mpps > 0.0
                                ? (without.mpps - with.mpps) / without.mpps
                                : 0.0;
    mods.add_row({std::to_string(producers), stats::fmt(without.mpps, 2),
                  stats::fmt(with.mpps, 2),
                  stats::fmt(overhead * 100.0, 1) + "%"});
  }
  mods.print(std::cout);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"bench_pipeline\",\n"
        << "  \"scale\": " << bench::scale() << ",\n"
        << "  \"hardware_threads\": " << hw << ",\n"
        << "  \"packets_per_producer\": " << packets_per_producer << ",\n"
        << "  \"simd_isa\": \"" << flowtable::tagprobe::isa_name() << "\",\n"
        << "  \"main\": [\n";
    for (std::size_t i = 0; i < main_rows.size(); ++i) {
      const MainRow& r = main_rows[i];
      out << "    {\"producers\": " << r.producers
          << ", \"pipeline_mpps\": " << r.pipe.mpps
          << ", \"pipeline_gbps\": " << r.pipe.gbps
          << ", \"coalesce_ratio\": " << r.coalesce_ratio << "}"
          << (i + 1 < main_rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"ingest_ablation\": [\n";
    for (std::size_t i = 0; i < ablation_rows.size(); ++i) {
      const AblationRow& r = ablation_rows[i];
      out << "    {\"label\": \"" << r.label << "\""
          << ", \"batched_ingest\": "
          << (r.options.batched_ingest ? "true" : "false")
          << ", \"estimator\": \""
          << (r.options.estimator == EstimatorKind::AdditiveError ? "additive"
                                                                  : "disco")
          << "\", \"mpps\": " << r.result.mpps
          << ", \"gbps\": " << r.result.gbps << "}"
          << (i + 1 < ablation_rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"modules\": [\n";
    for (std::size_t i = 0; i < module_rows.size(); ++i) {
      const ModuleRow& r = module_rows[i];
      const double overhead =
          r.without.mpps > 0.0 ? (r.without.mpps - r.with.mpps) / r.without.mpps
                               : 0.0;
      out << "    {\"producers\": " << r.producers
          << ", \"rotations\": " << r.rotations
          << ", \"no_modules_mpps\": " << r.without.mpps
          << ", \"modules_mpps\": " << r.with.mpps
          << ", \"overhead\": " << overhead << "}"
          << (i + 1 < module_rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    if (!out) {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
    std::cout << "\nwrote " << json_path << "\n";
  }

  if (telemetry) bench::dump_telemetry_snapshot();
  return 0;
}
