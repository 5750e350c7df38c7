// Shared types of the benchmark program: workload sizes, the pre-generated
// trace with its exact truth, correctness checks, and small statistics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "flowtable/flow_key.hpp"
#include "flowtable/monitor.hpp"
#include "pipeline/pipeline.hpp"

namespace perfbench {

using disco::flowtable::FiveTuple;
using EpochReport = disco::flowtable::FlowMonitor::EpochReport;
using PacketEvent = disco::pipeline::PipelineMonitor::PacketEvent;

enum class Workload { Interleaved, Bursty, Fleet };

inline constexpr std::size_t kRxBurst = 256;  ///< packets per ingest_batch call
inline constexpr unsigned kWorkers = 2;       ///< pipeline shard-owning threads
inline constexpr unsigned kSites = 4;         ///< fleet monitors
inline constexpr int kCounterBits = 12;       ///< every monitor's counters

/// The sizes that differ between workloads or scales.  `full` is the
/// measured scale; `smoke` runs the same code paths in seconds for the
/// self-test.
struct Scale {
  // Traffic.
  std::uint32_t flows = 0;
  std::uint64_t max_flow_packets = 0;  ///< Zipf(1.1) cap
  std::uint32_t burst_hi = 1;          ///< PacketStream runs of 1..burst_hi
  // Pipeline (interleaved, bursty; fleet's traced pipeline stage).
  std::size_t pipeline_flows = 0;      ///< provisioned, split over workers
  std::size_t query_every = 128;       ///< rx-bursts between live queries
  // Fleet.
  std::size_t site_flows = 0;          ///< provisioned per site
  // Run structure.
  unsigned rounds = 1;          ///< system builds that carry traffic
  unsigned setup_samples = 1;   ///< system builds timed (>= rounds)
  unsigned warmup_epochs = 1;   ///< discarded at the start of every round
  unsigned min_timed_epochs = 1;
};

[[nodiscard]] Scale scale_for(Workload workload, bool smoke);
[[nodiscard]] const char* workload_name(Workload workload);

/// One seeded workload, generated once per process before any timing and
/// replayed every epoch.
struct Trace {
  std::vector<PacketEvent> packets;          ///< arrival order
  std::vector<FiveTuple> keys;               ///< by flow id
  std::unordered_map<FiveTuple, std::uint32_t> id_of;
  std::vector<double> true_bytes;            ///< by flow id, per epoch
  std::vector<double> true_packets;
  std::vector<std::uint32_t> top_flows;      ///< 1,000 largest by true bytes
  double total_bytes = 0.0;
  double sum_sq_bytes = 0.0;  ///< sum of squared per-flow bytes (one site)
};

[[nodiscard]] Trace make_trace(const Scale& scale, std::uint64_t seed);

/// Flow id -> 5-tuple (the same dense mapping the repo's tools use).
[[nodiscard]] FiveTuple tuple_for_flow(std::uint32_t flow_id);

/// Correctness checks run on every epoch (README.md, "Correctness").
struct Checks {
  std::uint64_t packets_seen_run = 0, packets_seen_failed = 0;
  std::uint64_t flows_run = 0, flows_failed = 0;
  std::uint64_t accepted_run = 0, accepted_failed = 0;
  std::uint64_t total_run = 0, total_failed = 0;
  std::uint64_t epochs = 0, epochs_failed = 0;
  double packets_offered = 0.0;
  double packets_delivered = 0.0;

  void merge(const Checks& o);
  [[nodiscard]] double delivery_ratio() const {
    return packets_offered > 0.0 ? packets_delivered / packets_offered : 0.0;
  }
};

/// Accuracy of one epoch report against the trace's exact truth.
struct Accuracy {
  bool all_flows = false;   ///< every trace flow present, nothing unknown
  bool total_ok = false;    ///< byte total within 4 Theorem 2 sd
  double volume_rel_err = 0.0;
  double size_rel_err = 0.0;
  double ci_coverage = 0.0; ///< monitors only: interval_for_estimate
};

/// `sum_sq_bytes` is the squared-truth sum behind the total's Theorem 2
/// standard deviation (per site and flow for merged fleet reports).
[[nodiscard]] Accuracy assess(const EpochReport& report, const Trace& trace,
                              double sum_sq_bytes, bool monitor_intervals);

// --- statistics --------------------------------------------------------------

[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& values);

/// Keeps `value` observable, so the loop that computed it is not elided.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// A fixed reference kernel (a dependent SplitMix64 chain), timed five
/// times; ns per step.  Read after input generation and after every round
/// to show host drift; never used to rescale a metric.
[[nodiscard]] double ref_kernel_ns();

/// Resident set size of this process, MB.
[[nodiscard]] double rss_mb();

/// Hands freed heap memory back to the kernel, then reads rss_mb().  Called
/// before every build of a system under test, so each build faults in its
/// own pages: set-up times stay comparable and a build cannot hide its
/// memory in chunks an earlier build freed.
[[nodiscard]] double trimmed_rss_mb();

/// RSS growth over one round: peak RSS minus the trimmed RSS at
/// construction, which is just before the system under test is built.  The
/// peak is the kernel's high-water mark (VmHWM), reset at construction
/// through /proc/self/clear_refs, so transient memory between samples
/// counts.  Where clear_refs cannot be written it is the largest sample().
class PeakRss {
 public:
  PeakRss();
  void sample();
  [[nodiscard]] double growth_mb() const;

 private:
  double baseline_mb_;
  double sampled_mb_;
  bool high_water_;  ///< the kernel's mark was reset and can be read
};

}  // namespace perfbench
