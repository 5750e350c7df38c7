// A pre-aggregated run of same-flow packets -- the unit of batched ingest.
//
// Produced by the pipeline's BurstCoalescer (src/pipeline/burst_coalescer.hpp)
// and consumed by FlowMonitor::ingest_batch as ONE discounted volume update
// and ONE discounted size update.  Lives in flowtable so the monitor's batch
// API does not depend on the pipeline layer above it.  The pipeline hashes
// each run once, at the producer; the burst carries that hash to the flow
// table's probe.
#pragma once

#include <cstdint>

#include "flowtable/flow_key.hpp"

namespace disco::flowtable {

struct FlowBurst {
  FiveTuple flow{};
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
  /// Unread.  It holds its place so that a positional initialiser that still
  /// sets it (perfbench/cpp/fleet_run.cpp) cannot put a timestamp in `hash`.
  std::uint64_t last_ns = 0;
  /// hash_tuple(flow), or 0 when the caller did not compute it: the
  /// monitor probes with a carried hash and hashes a burst that carries 0
  /// (exact even for a tuple whose hash is 0).
  std::uint64_t hash = 0;
};

}  // namespace disco::flowtable
