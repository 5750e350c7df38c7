// A pre-aggregated run of same-flow packets -- the unit of batched ingest.
//
// Produced by the pipeline's BurstCoalescer (src/pipeline/burst_coalescer.hpp)
// and consumed by FlowMonitor::ingest_batch as ONE discounted volume update
// and ONE discounted size update.  Lives in flowtable so the monitor's batch
// API does not depend on the pipeline layer above it.
#pragma once

#include <cstdint>

#include "flowtable/flow_key.hpp"

namespace disco::flowtable {

struct FlowBurst {
  FiveTuple flow{};
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
  std::uint64_t last_ns = 0;  ///< newest packet's timestamp (idle eviction)
};

}  // namespace disco::flowtable
