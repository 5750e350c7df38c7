// Bounded-memory pressure policies -- what a monitor does when the paper's
// fixed-SRAM assumption actually binds (docs/robustness.md).
//
// DISCO's deployment target is a fixed counter array on an IXP2850: when the
// flow table fills or a counter crowds the top of its range, the hardware
// cannot allocate more memory -- it must shed load in a controlled way.  The
// host implementation mirrors that with two orthogonal policy axes, both
// configured per monitor through FlowMonitor::Config::pressure:
//
//   Admission (table full, new flow arrives)
//     Drop                 reject the flow; its packets are counted as
//                          rejected and otherwise unaccounted (the seed
//                          behaviour, and the default).
//     RandomizedAdmission  RAP (Ben Basat et al., PAPERS.md): admit with
//                          probability proportional to the incoming burst's
//                          discounted increment -- p = l / (l + f(c_victim))
//                          -- evicting a sampled-minimum victim whose counter
//                          the newcomer INHERITS, so surviving estimates
//                          never under-count and heavy flows win the table
//                          in O(their traffic share).
//     EvictSmallest        deterministically evict the sampled flow with the
//                          smallest DISCO volume counter and admit the
//                          newcomer at zero; the victim's estimate is
//                          discarded (counted in flows_evicted).
//
//   Saturation (a DISCO counter would exceed its fixed width)
//     Saturate             clamp at the top value and count the overflow
//                          (the seed behaviour, and the default).
//     RescaleB             ICE-Buckets-style scale management: re-derive the
//                          whole array under a larger base b (budget grown
//                          2x per rescale, at most 16 rescales per array)
//                          with randomized-rounded counter remapping,
//                          preserving unbiasedness at the cost of a higher
//                          per-update CV bound.
//
// Victim selection samples 8 occupied slots and takes the one with the
// smallest volume counter -- O(1) per rejection instead of an O(n) scan, the
// standard approximation (sampled Space-Saving / RAP); with K samples the
// victim is in the true bottom quantile q with probability 1 - (1-q)^K, and
// a heavy flow is essentially never chosen.  The sample count, growth and
// rescale cap are fixed constants in flowtable/monitor.cpp.
//
// Every degradation event is observable: PressureStats counts it, the
// telemetry registry mirrors it (docs/telemetry.md), and epoch reports carry
// it to collectors (flowtable/report_io.hpp, format v2).
#pragma once

#include <cstdint>

namespace disco::flowtable {

enum class AdmissionPolicy : std::uint8_t {
  Drop = 0,
  RandomizedAdmission = 1,
  EvictSmallest = 2,
};

enum class SaturationPolicy : std::uint8_t {
  Saturate = 0,
  RescaleB = 1,
};

struct PressureConfig {
  AdmissionPolicy admission = AdmissionPolicy::Drop;
  SaturationPolicy saturation = SaturationPolicy::Saturate;
};

/// Cumulative degradation counters since monitor construction.
/// PipelineMonitor aggregates by summing shards; epoch reports embed a
/// snapshot (taken at rotate time) so collectors can see HOW a report was
/// degraded, not just what it contains.
struct PressureStats {
  std::uint64_t flows_rejected = 0;     ///< bursts refused at a full table
  std::uint64_t flows_evicted = 0;      ///< admission victims (not rotate)
  std::uint64_t counters_saturated = 0; ///< updates clamped at counter max
  std::uint64_t rescale_events = 0;     ///< RescaleB re-derivations applied

  PressureStats& operator+=(const PressureStats& o) noexcept {
    flows_rejected += o.flows_rejected;
    flows_evicted += o.flows_evicted;
    counters_saturated += o.counters_saturated;
    rescale_events += o.rescale_events;
    return *this;
  }
};

}  // namespace disco::flowtable
