// The aggregation tier: one collector, N monitor processes, one answer.
//
// Each monitoring site (a FlowMonitor or PipelineMonitor in its own process)
// rotates epochs and ships DRPT reports (flowtable/report_io.hpp) over a
// spool file or a socket (collect/transport.hpp).  The Collector folds them
// into one global view:
//
//   * unbiased cross-site merge at the estimate level
//     (core/estimate_merge.hpp) -- sites may run different counter widths,
//     drift apart under RescaleB, or use additive-error estimators; each
//     contribution is weighted into the per-flow variance bound with ITS
//     OWN report's error model (core::error_model), so global top-k answers
//     carry honest Theorem 2 aggregate confidence intervals.  Subscribed
//     analysis modules fold the merged reports through the same model;
//   * per-site liveness / lag / epoch-gap tracking: a site whose highest
//     epoch trails the fleet by more than `liveness_window` epochs is
//     marked lagging and stops gating epoch finalisation;
//   * stream hygiene: duplicate (site, epoch) reports are rejected and
//     counted, reordered reports merge if their epoch is still open and
//     fold as `Late` after it finalised -- in every case a report's traffic
//     is counted at most once;
//   * PressureStats reconciliation: each site's cumulative degradation
//     counters are tracked at their latest epoch and summed fleet-wide.
//
// The Collector exposes the SAME epoch-subscription surface as a local
// monitor (subscribe(EpochSubscriber)), so the analysis-module layer
// attaches unchanged: ModuleHost::subscribe_to(collector) delivers merged
// global epoch reports to every module (docs/collector.md, docs/modules.md).
//
// Threading: externally synchronised, like FlowMonitor -- drive it from one
// thread, or wrap calls in a mutex (collect::ReportServer does exactly
// that).  No RNG anywhere: estimate-level merging is deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <map>
#include <vector>

#include "core/estimate_merge.hpp"
#include "flowtable/monitor.hpp"
#include "flowtable/pressure.hpp"
#include "flowtable/report_io.hpp"
#include "telemetry/metrics.hpp"

namespace disco::collect {

using flowtable::FiveTuple;
using EpochReport = flowtable::FlowMonitor::EpochReport;
using EpochSubscriber = flowtable::FlowMonitor::EpochSubscriber;

struct CollectorConfig {
  /// Two-sided confidence level of every interval the collector serves.
  double confidence = 0.95;
  /// A site whose highest epoch trails the collector highwater by MORE than
  /// this many epochs is lagging: it stops gating epoch finalisation (and
  /// is flagged in sites()) until it catches back up.
  std::uint64_t liveness_window = 2;
  /// Cap on distinct flow keys tracked for top-k (the global totals stay
  /// exact past the cap; overflowing keys are counted in flows_dropped).
  std::size_t max_tracked_flows = std::size_t{1} << 20;
  /// Prefix for the collector's metric names (docs/telemetry.md).
  std::string telemetry_prefix = "collector";
};

/// Point-in-time view of one site's stream state (sites() snapshot).
struct SiteStatus {
  std::uint32_t site_id = 0;
  std::uint64_t reports = 0;         ///< accepted (incl. late) reports
  std::uint64_t duplicates = 0;      ///< rejected duplicate (site, epoch)
  std::uint64_t late = 0;            ///< accepted after their epoch finalised
  std::uint64_t reordered = 0;       ///< arrived below the site's highwater
  std::uint64_t epoch_gaps = 0;      ///< epochs finalised without this site
  bool seen = false;                 ///< any report accepted yet
  std::uint64_t highwater_epoch = 0; ///< highest epoch seen (if seen)
  std::uint64_t lag_epochs = 0;      ///< collector highwater - site highwater
  bool lagging = false;              ///< lag_epochs > liveness_window
  double volume_b = 0.0;             ///< max effective bases / error units
  double size_b = 0.0;               ///  observed from this site
  double volume_error_unit = 0.0;
  double size_error_unit = 0.0;
  flowtable::PressureStats pressure{};  ///< cumulative, at latest epoch
};

/// One row of the global top-k answer.
struct GlobalEstimate {
  FiveTuple flow;
  double bytes = 0.0;
  double packets = 0.0;
  double bytes_low = 0.0;   ///< Theorem 2 aggregate interval at
  double bytes_high = 0.0;  ///  CollectorConfig::confidence
  /// Always true, since every report declares an error model; kept only
  /// because perfbench's fleet check still reads it.
  bool interval_valid = true;
  std::uint32_t sites = 0;  ///< distinct sites that contributed
};

class Collector {
 public:
  explicit Collector(CollectorConfig config = {});

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  /// Pre-registers a site so epoch finalisation waits for it (liveness
  /// window permitting) before its first report arrives.  Sites also
  /// register implicitly on first ingest.
  void expect_site(std::uint32_t site_id);

  enum class IngestResult {
    Accepted,   ///< merged into the global state (epoch still open)
    Duplicate,  ///< (site, epoch) already ingested: rejected, counted
    Late,       ///< epoch already finalised: merged into cumulative state,
                ///  counted, but not re-emitted to subscribers
  };

  /// Folds one site report into the global state.  Never throws on
  /// stream-hygiene issues -- those are the return value -- only on
  /// programmer error.
  IngestResult ingest(std::uint32_t site_id, const EpochReport& report);
  /// Convenience for transport code: ingest a ReportReader item.
  IngestResult ingest(const flowtable::ReportReader::Item& item) {
    return ingest(item.site_id, item.report);
  }

  /// Registers a subscriber for merged global epoch reports, delivered in
  /// epoch order as each epoch finalises.  An epoch finalises once the
  /// fleet has visibly moved past it (it is below the collector highwater
  /// -- the newest epoch always stays open, since a site the collector has
  /// never heard from may still contribute) and every known, non-lagging
  /// site has delivered or skipped it; finalize_all() closes the rest at
  /// end of collection.  Same contract as the monitors' subscribe --
  /// ModuleHost::subscribe_to(collector) works unchanged.
  void subscribe(EpochSubscriber subscriber);

  /// Finalises every still-open epoch in order (end of collection run /
  /// final drain), emitting merged reports for them.  Idempotent.
  void finalize_all();

  /// The k globally-largest flows by merged byte estimate, descending,
  /// with aggregate confidence intervals.
  [[nodiscard]] std::vector<GlobalEstimate> top_k(std::size_t k) const;

  /// Global totals with an aggregate interval over ALL ingested traffic
  /// (exact even past the max_tracked_flows cap).
  struct GlobalTotals {
    double bytes = 0.0;
    double packets = 0.0;
    double bytes_low = 0.0;
    double bytes_high = 0.0;
    std::uint64_t flows = 0;  ///< distinct tracked keys
  };
  [[nodiscard]] GlobalTotals totals() const;

  /// Per-site stream state, ordered by site id.
  [[nodiscard]] std::vector<SiteStatus> sites() const;

  /// Fleet-wide degradation: the sum of every site's latest cumulative
  /// PressureStats.
  [[nodiscard]] flowtable::PressureStats pressure() const;

  [[nodiscard]] std::uint64_t reports_ingested() const noexcept {
    return reports_ingested_;
  }
  [[nodiscard]] std::uint64_t epochs_finalized() const noexcept {
    return epochs_finalized_;
  }
  /// Highest epoch seen across all sites (0 before any report).
  [[nodiscard]] std::uint64_t highwater_epoch() const noexcept {
    return highwater_;
  }
  [[nodiscard]] std::uint64_t flows_dropped() const noexcept {
    return flows_dropped_;
  }
  [[nodiscard]] std::size_t tracked_flows() const noexcept {
    return keys_.size();
  }

  [[nodiscard]] const CollectorConfig& config() const noexcept {
    return config_;
  }

 private:
  struct SiteState {
    SiteStatus status;                          // counters + metadata
    std::unordered_set<std::uint64_t> epochs;   // ingested epochs (dedup)
    std::uint32_t index = 0;                    // registration order
    std::uint64_t pressure_epoch = 0;           // epoch of status.pressure
    telemetry::Counter* reports_metric = nullptr;
    telemetry::Counter* duplicates_metric = nullptr;
    telemetry::Counter* late_metric = nullptr;
  };

  struct KeyState {
    core::MixedEstimateAccumulator bytes;
    core::MixedEstimateAccumulator packets;
    std::uint64_t site_mask = 0;  // bit per site index (first 64 sites)
  };

  SiteState& site_state(std::uint32_t site_id);
  void fold_report(SiteState& site, const EpochReport& report);
  void try_finalize();
  void finalize_epoch(std::uint64_t epoch);
  [[nodiscard]] bool site_lagging(const SiteState& site) const;
  [[nodiscard]] std::uint32_t site_count(const FiveTuple& flow,
                                         const KeyState& key) const;

  CollectorConfig config_;
  std::map<std::uint32_t, SiteState> sites_;
  std::unordered_map<FiveTuple, KeyState> keys_;
  // Site bits past the first 64 (site index 64 + 64w + i is bit i of word
  // w), held only for keys that heard from such a site, so a fleet of 64
  // sites or fewer keeps KeyState and its per-record cost as they are.
  std::unordered_map<FiveTuple, std::vector<std::uint64_t>> overflow_sites_;
  core::MixedEstimateAccumulator total_bytes_;
  core::MixedEstimateAccumulator total_packets_;
  // Open epochs: per-epoch per-site reports awaiting finalisation.
  std::map<std::uint64_t, std::map<std::uint32_t, EpochReport>> pending_;
  std::vector<EpochSubscriber> subscribers_;
  std::uint64_t next_epoch_to_finalize_ = 0;
  bool any_finalized_ = false;
  std::uint64_t highwater_ = 0;
  bool any_report_ = false;
  std::uint64_t reports_ingested_ = 0;
  std::uint64_t epochs_finalized_ = 0;
  std::uint64_t flows_dropped_ = 0;
  telemetry::Counter* epochs_metric_ = nullptr;
  telemetry::Counter* reports_metric_ = nullptr;
  telemetry::Counter* dropped_metric_ = nullptr;
  telemetry::Gauge* tracked_metric_ = nullptr;
  telemetry::Gauge* lagging_metric_ = nullptr;
};

}  // namespace disco::collect
