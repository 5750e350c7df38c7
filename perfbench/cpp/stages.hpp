// The benchmark's stages.  A stage builds a system under test, replays
// the trace through it epoch after epoch for a time budget, and collects
// per-epoch samples; the same code runs untraced (a disabled Tracer)
// and traced.  The replay is the traced run's single-thread ledger.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "span.hpp"

namespace perfbench {

struct StagePlan {
  double seconds = 1.0;        ///< epoch time budget, split over rounds
  unsigned rounds = 1;         ///< builds that carry traffic
  unsigned setup_samples = 1;  ///< builds timed, >= rounds
  unsigned warmup_epochs = 1;  ///< discarded per round
  unsigned min_timed_epochs = 1;
  unsigned max_timed_epochs = 0;  ///< per round; 0 = until the budget is spent
};

struct StageSamples {
  // One entry per timed epoch (queries: per query), per build or per round.
  std::vector<double> ingest_mpps, close_ms, query_us;
  std::vector<double> volume_err, size_err, coverage;
  std::vector<double> setup_s, rss_mb;
  double bits_per_flow = 0.0;
  Checks checks;
  unsigned timed_epochs = 0;
  std::vector<double> round_ingest_mpps;  ///< median of each round
  std::vector<double> ref_kernel_ns;      ///< read after each round
  std::uint64_t records_per_epoch = 0;
  // Pipelines: coalescing over every epoch of every round.
  std::uint64_t packets = 0, coalesced = 0;
  // Traced pipelines: telemetry read through the public registry.
  std::vector<double> occupancy;  ///< ring slots summed over workers, per rx-burst
  double blocked = 0.0, pops = 0.0, popped = 0.0;
  // Fleet: export path counts.
  std::uint64_t records = 0, wire_bytes = 0, fused = 0, rejected_reports = 0;
  std::uint64_t lookups = 0, rejected_flows = 0;
};

[[nodiscard]] disco::pipeline::PipelineMonitor::Config pipeline_config(
    const Scale& scale);

/// interleaved / bursty: one producer (this thread) feeding rx-bursts to a
/// PipelineMonitor with Block backpressure.
[[nodiscard]] StageSamples run_pipeline(const Trace& trace, const Scale& scale,
                                        const StagePlan& plan, Tracer& tracer);

/// The fleet's per-site inputs: packet i goes to site i mod sites.
struct FleetTraffic {
  std::vector<std::vector<disco::flowtable::FlowBurst>> site_packets;
  double sum_sq_bytes = 0.0;  ///< over (site, flow) pairs
};
[[nodiscard]] FleetTraffic split_fleet(const Trace& trace);

/// fleet: sites -> rotate -> DRPT -> Collector -> modules, on this thread.
[[nodiscard]] StageSamples run_fleet(const Trace& trace, const FleetTraffic& fleet,
                                     const Scale& scale, const StagePlan& plan,
                                     Tracer& tracer);

struct ReplayResult {
  std::uint64_t packets = 0, bursts = 0;
  std::uint64_t lookups = 0, rejected_flows = 0;
  double probe_len = 0.0;
  std::uint64_t records = 0, wire_bytes = 0, fused = 0, rejected_reports = 0;
  int root = -1;  ///< the recorded epoch's root span
};

/// Replays one epoch of the trace on this thread in worker order -- hash,
/// SpscRing, BurstCoalescer, FlowMonitor::ingest_batch per shard, then
/// rotate and the export path -- with scratch FlowTable / decide / add
/// timed alone on the replayed bursts.  A first, unrecorded epoch warms up.
[[nodiscard]] ReplayResult run_replay(const Trace& trace, const Scale& scale,
                                      Tracer& tracer);

}  // namespace perfbench
