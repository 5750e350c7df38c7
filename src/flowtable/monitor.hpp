// FlowMonitor -- the public-facing facade of the library.
//
// This is what a downstream user embeds in a monitoring appliance: a flow
// table plus DISCO counters for *both* flow volume (bytes) and flow size
// (packets), the combination the paper's abstract promises from one small
// SRAM budget.  The monitor supports on-line queries at any time (the
// "active counter" property: estimation on a per-packet basis without DRAM
// access), top-k reports, and a memory breakdown.
//
//   FlowMonitor monitor({.max_flows = 100'000, .counter_bits = 10,
//                        .max_flow_bytes = 1u << 30});
//   monitor.ingest(tuple, packet_len);
//   auto stats = monitor.query(tuple);          // bytes and packets, unbiased
//   auto heavy = monitor.top_k(10);             // heaviest flows by bytes
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/disco.hpp"
#include "flowtable/burst.hpp"
#include "flowtable/counter_bank.hpp"
#include "flowtable/flow_table.hpp"
#include "flowtable/pressure.hpp"
#include "telemetry/metrics.hpp"
#include "trace/packet.hpp"
#include "util/rng.hpp"

namespace disco::flowtable {

class FlowMonitor {
 public:
  struct Config {
    std::size_t max_flows = 65536;
    int counter_bits = 10;                   ///< per counter, volume and size
    std::uint64_t max_flow_bytes = std::uint64_t{1} << 32;
    std::uint64_t max_flow_packets = std::uint64_t{1} << 24;
    std::uint64_t seed = 0x5eed;
    /// Registry prefix for this monitor's metrics (docs/telemetry.md).
    /// Instances sharing a prefix share counters; PipelineMonitor gives
    /// each worker's shard its own.
    std::string telemetry_prefix = "flow_monitor";
    /// What to do when the flow table fills or a counter would overflow
    /// (flowtable/pressure.hpp, docs/robustness.md).  The default -- reject
    /// new flows, clamp saturating counters -- is the seed behaviour and
    /// consumes no randomness, so it is bit-identical to builds that predate
    /// the policy layer.
    PressureConfig pressure{};
    /// Estimator family for the volume/size counters (counter_bank.hpp):
    /// DISCO logarithmic counters (default, multiplicative error), or
    /// additive-error counters (cheaper updates, additive noise floor).
    /// Under AdditiveError the pressure saturation policy is moot (those
    /// counters rescale natively by halving; events surface through the
    /// usual rescale telemetry).
    EstimatorKind estimator = EstimatorKind::Disco;
  };

  explicit FlowMonitor(const Config& config);

  /// Counts one packet: a one-element ingest_batch.  Returns false if the
  /// packet's flow was rejected because the flow table is full (the packet
  /// is then unaccounted, and the rejection is visible in
  /// table().rejected_flows()).
  bool ingest(const FiveTuple& flow, std::uint32_t length);

  /// Counts a batch of pre-aggregated bursts in order -- the one ingest
  /// implementation.  Each burst of `packets` same-flow packets totalling
  /// `bytes` is ONE discounted volume update and ONE discounted size update
  /// (the paper's Section VI burst aggregation; src/pipeline feeds this).
  /// Unbiasedness is per-update (Theorem 1), so estimates stay unbiased for
  /// any grouping -- with lower variance than per-packet updates, since one
  /// large update replaces several small ones (Theorem 2).  A batch gives
  /// the same estimates, RNG streams and rejections as the same bursts fed
  /// one per call, under every admission and saturation policy; a burst of
  /// one packet consumes the same randomness as ingest().  A burst's
  /// non-zero `hash` must equal hash_tuple(flow): the table probes with it
  /// instead of hashing the tuple again (a debug assertion checks it).
  /// Returns the number of bursts accepted into the flow table.
  std::size_t ingest_batch(std::span<const FlowBurst> bursts);

  /// Per-flow on-line estimates.
  struct FlowEstimate {
    FiveTuple flow;
    double bytes = 0.0;
    double packets = 0.0;
  };

  [[nodiscard]] std::optional<FlowEstimate> query(const FiveTuple& flow) const;

  /// The k flows with the largest estimated byte volume, descending.
  [[nodiscard]] std::vector<FlowEstimate> top_k(std::size_t k) const;

  /// Totals across all tracked flows.
  struct Totals {
    double bytes = 0.0;
    double packets = 0.0;
    std::size_t flows = 0;
  };
  [[nodiscard]] Totals totals() const;

  /// Memory breakdown in bits, the quantity the paper budgets.
  struct MemoryReport {
    std::size_t volume_counter_bits = 0;
    std::size_t size_counter_bits = 0;
    /// Slot ids, tags, and the key list and slot bitmap at capacity
    /// (FlowTable::storage_bits).
    std::size_t flow_table_bits = 0;
    [[nodiscard]] std::size_t total() const noexcept {
      return volume_counter_bits + size_counter_bits + flow_table_bits;
    }
  };
  [[nodiscard]] MemoryReport memory() const;

  [[nodiscard]] const FlowTable& table() const noexcept { return table_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t packets_seen() const noexcept { return packets_seen_; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  // --- measurement epochs ----------------------------------------------------
  /// Ends the current measurement interval: returns every tracked flow's
  /// final estimates, then clears the flow table and counters so the next
  /// interval starts fresh.  This is how a monitoring appliance exports
  /// per-interval reports without ever widening its SRAM.
  struct EpochReport {
    std::uint64_t epoch = 0;
    std::vector<FlowEstimate> flows;
    Totals totals;
    /// Cumulative degradation counters as of rotation, so a collector can
    /// tell a clean report from one produced under table pressure.
    PressureStats pressure{};
    /// Effective DISCO base of the volume / size counter arrays when this
    /// report was produced (b drifts upward under RescaleB).  Downstream
    /// consumers attach Theorem 2 confidence intervals to one estimate via
    /// core::DiscoParams(b).interval_for_estimate(...), and to sums of
    /// estimates via core::error_model and core::MixedEstimateAccumulator
    /// (core/estimate_merge.hpp) -- the collector and the modules layer do
    /// the latter.  Merged reports (fold_reports, as PipelineMonitor::rotate
    /// uses it) carry the max across shards, so derived intervals are
    /// conservative for every member flow.  1.0, the default and what
    /// additive arrays report, means "no multiplicative error"; DRPT readers
    /// reject anything below it (flowtable/report_io.hpp).
    double volume_b = 1.0;
    double size_b = 1.0;
    /// Additive-error mode only (Config.estimator == AdditiveError): the
    /// counting grid 2^s of each array when the report was produced -- the
    /// `unit` of core::theory::additive_error_sd.  0.0 under DISCO
    /// estimators (whose error is multiplicative, carried by volume_b /
    /// size_b).  Merged reports carry the max across shards, like the
    /// bases.
    double volume_error_unit = 0.0;
    double size_error_unit = 0.0;
  };
  EpochReport rotate();

  // --- epoch subscriptions ---------------------------------------------------
  /// A streaming consumer of epoch reports (the analysis-module layer's entry
  /// point -- see docs/modules.md).  Called synchronously inside rotate(), on
  /// the rotating thread, after the report is fully built and the tables have
  /// been cleared for the next epoch.
  using EpochSubscriber = std::function<void(const EpochReport&)>;

  /// Registers a subscriber for every future rotate().  Subscribers are
  /// invoked in registration order and may not call back into this monitor
  /// from inside the callback.
  void subscribe(EpochSubscriber subscriber);

  /// Number of registered epoch subscribers.
  [[nodiscard]] std::size_t subscriber_count() const noexcept {
    return subscribers_.size();
  }

  /// Cumulative degradation counters since construction (docs/robustness.md).
  /// Always current at API boundaries: saturation/rescale events are synced
  /// from the counter arrays at the end of every ingest call.
  [[nodiscard]] const PressureStats& pressure() const noexcept {
    return pressure_;
  }

 private:
  /// Registry-owned metrics under config_.telemetry_prefix; plain pointers
  /// keep the monitor movable.
  struct Metrics {
    telemetry::Counter* ingests = nullptr;
    telemetry::Counter* rejects = nullptr;
    telemetry::Counter* queries = nullptr;
    telemetry::Gauge* occupancy = nullptr;
    telemetry::Counter* flows_rejected = nullptr;
    telemetry::Counter* flows_evicted = nullptr;
    telemetry::Counter* saturations = nullptr;
    telemetry::Counter* rescales = nullptr;
  };

  /// Admission policy fallback when insert_or_get rejects a new flow: picks a
  /// victim and applies config_.pressure.admission (RAP coin flip with
  /// counter inheritance, or deterministic evict-smallest).  Returns the slot
  /// the burst may use, or nullopt when the burst stays rejected.  Draws only
  /// from pressure_rng_, leaving the measurement stream rng_ untouched.
  [[nodiscard]] std::optional<std::uint32_t> admit_under_pressure(
      const FlowBurst& burst);

  /// Samples kVictimSamples (8) occupied slots uniformly and returns the one
  /// with the smallest volume counter (sampled-min victim selection -- see
  /// flowtable/pressure.hpp for the quantile argument).
  [[nodiscard]] std::optional<std::uint32_t> select_victim();

  /// Folds the counter arrays' overflow/rescale tallies into pressure_ and
  /// the telemetry registry (delta since the last sync).
  void sync_pressure_counters();

  Config config_;
  FlowTable table_;
  CounterBank volume_;
  CounterBank size_;
  util::Rng rng_;
  /// Dedicated stream for pressure decisions (victim sampling, RAP coins):
  /// keeping it apart from rng_ means enabling a pressure policy never
  /// perturbs the measurement stream, so estimates under Drop stay
  /// bit-identical to a build without the policy layer.
  util::Rng pressure_rng_;
  PressureStats pressure_;
  std::uint64_t saturations_seen_ = 0;  ///< array overflows already synced
  std::uint64_t rescales_seen_ = 0;     ///< array rescales already synced
  std::uint64_t packets_seen_ = 0;
  std::uint64_t epoch_ = 0;
  Metrics metrics_;
  std::vector<EpochSubscriber> subscribers_;
};

}  // namespace disco::flowtable
