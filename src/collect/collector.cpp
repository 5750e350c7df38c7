#include "collect/collector.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>

#include "telemetry/registry.hpp"

namespace disco::collect {
namespace {

using FlowEstimate = flowtable::FlowMonitor::FlowEstimate;

// Deterministic total order for equal byte estimates, so top_k output is
// stable across runs and platforms.
[[nodiscard]] bool tuple_less(const FiveTuple& a, const FiveTuple& b) {
  if (a.src_ip != b.src_ip) return a.src_ip < b.src_ip;
  if (a.dst_ip != b.dst_ip) return a.dst_ip < b.dst_ip;
  if (a.src_port != b.src_port) return a.src_port < b.src_port;
  if (a.dst_port != b.dst_port) return a.dst_port < b.dst_port;
  return a.protocol < b.protocol;
}

}  // namespace

Collector::Collector(CollectorConfig config) : config_(std::move(config)) {
  auto& registry = telemetry::Registry::global();
  const std::string& prefix = config_.telemetry_prefix;
  reports_metric_ = &registry.counter(prefix + ".reports_total");
  epochs_metric_ = &registry.counter(prefix + ".epochs_finalized_total");
  dropped_metric_ = &registry.counter(prefix + ".flows_dropped_total");
  tracked_metric_ = &registry.gauge(prefix + ".flows_tracked");
  lagging_metric_ = &registry.gauge(prefix + ".sites_lagging");
}

Collector::SiteState& Collector::site_state(std::uint32_t site_id) {
  auto it = sites_.find(site_id);
  if (it != sites_.end()) return it->second;
  SiteState state;
  state.status.site_id = site_id;
  state.index = static_cast<std::uint32_t>(sites_.size());
  auto& registry = telemetry::Registry::global();
  const std::string base =
      config_.telemetry_prefix + ".site_" + std::to_string(site_id);
  state.reports_metric = &registry.counter(base + ".reports_total");
  state.duplicates_metric = &registry.counter(base + ".duplicates_total");
  state.late_metric = &registry.counter(base + ".late_total");
  return sites_.emplace(site_id, std::move(state)).first->second;
}

void Collector::expect_site(std::uint32_t site_id) { site_state(site_id); }

bool Collector::site_lagging(const SiteState& site) const {
  if (!any_report_) return false;
  if (!site.status.seen) return highwater_ + 1 > config_.liveness_window;
  return highwater_ - site.status.highwater_epoch > config_.liveness_window;
}

void Collector::fold_report(SiteState& site, const EpochReport& report) {
  const core::ErrorModel volume =
      core::error_model(report.volume_b, report.volume_error_unit);
  const core::ErrorModel size =
      core::error_model(report.size_b, report.size_error_unit);
  const std::uint64_t site_bit = std::uint64_t{1} << (site.index % 64);
  for (const FlowEstimate& flow : report.flows) {
    // Totals stay exact past the key cap: fold before admission.
    total_bytes_.add(flow.bytes, volume, flow.packets);
    total_packets_.add(flow.packets, size, flow.packets);
    auto it = keys_.find(flow.flow);
    if (it == keys_.end()) {
      if (keys_.size() >= config_.max_tracked_flows) {
        ++flows_dropped_;
        dropped_metric_->inc();
        continue;
      }
      it = keys_.emplace(flow.flow, KeyState{}).first;
    }
    KeyState& key = it->second;
    key.bytes.add(flow.bytes, volume, flow.packets);
    key.packets.add(flow.packets, size, flow.packets);
    if (site.index < 64) {
      key.site_mask |= site_bit;
    } else {
      std::vector<std::uint64_t>& words = overflow_sites_[flow.flow];
      const std::size_t word = (site.index - 64) / 64;
      if (words.size() <= word) words.resize(word + 1);
      words[word] |= site_bit;
    }
  }
  tracked_metric_->set(static_cast<std::int64_t>(keys_.size()));
  site.status.volume_b = std::max(site.status.volume_b, report.volume_b);
  site.status.size_b = std::max(site.status.size_b, report.size_b);
  site.status.volume_error_unit =
      std::max(site.status.volume_error_unit, report.volume_error_unit);
  site.status.size_error_unit =
      std::max(site.status.size_error_unit, report.size_error_unit);
  // PressureStats on the wire are cumulative per site; keep the newest.
  if (report.epoch >= site.pressure_epoch) {
    site.status.pressure = report.pressure;
    site.pressure_epoch = report.epoch;
  }
}

Collector::IngestResult Collector::ingest(std::uint32_t site_id,
                                          const EpochReport& report) {
  SiteState& site = site_state(site_id);
  if (site.epochs.count(report.epoch) != 0) {
    ++site.status.duplicates;
    site.duplicates_metric->inc();
    return IngestResult::Duplicate;
  }
  const bool late =
      any_finalized_ && report.epoch < next_epoch_to_finalize_;
  if (!site.status.seen) {
    site.status.seen = true;
    site.status.highwater_epoch = report.epoch;
  } else if (report.epoch > site.status.highwater_epoch) {
    site.status.highwater_epoch = report.epoch;
  } else {
    ++site.status.reordered;
  }
  site.epochs.insert(report.epoch);
  any_report_ = true;
  highwater_ = std::max(highwater_, report.epoch);

  fold_report(site, report);
  ++site.status.reports;
  site.reports_metric->inc();
  ++reports_ingested_;
  reports_metric_->inc();

  if (late) {
    // The merged report for this epoch already went out; the traffic is in
    // the cumulative state (exactly once), but the epoch is not re-emitted.
    ++site.status.late;
    site.late_metric->inc();
    return IngestResult::Late;
  }
  pending_[report.epoch].emplace(site_id, report);
  try_finalize();
  return IngestResult::Accepted;
}

void Collector::subscribe(EpochSubscriber subscriber) {
  if (subscriber) subscribers_.push_back(std::move(subscriber));
}

void Collector::try_finalize() {
  while (!pending_.empty()) {
    const std::uint64_t epoch = pending_.begin()->first;
    // The newest epoch always stays open: a site the collector has never
    // heard from may still contribute to it (watermark rule -- an epoch is
    // only provably complete once the fleet has moved past it).
    // finalize_all() force-closes it at end of collection.
    if (epoch >= highwater_) return;
    // Below the highwater, an epoch finalises when every known site either
    // delivered it, has visibly moved past it (epoch gap), or is lagging
    // beyond the liveness window (stops gating the fleet).
    for (const auto& [id, site] : sites_) {
      (void)id;
      if (site.epochs.count(epoch) != 0) continue;
      if (site.status.seen && site.status.highwater_epoch >= epoch) continue;
      if (site_lagging(site)) continue;
      return;  // still waiting on this site
    }
    finalize_epoch(epoch);
  }
}

void Collector::finalize_epoch(std::uint64_t epoch) {
  auto it = pending_.find(epoch);
  if (it != pending_.end() && !it->second.empty()) {
    // The epoch's reports in site order, folded into one report.
    std::vector<EpochReport> reports;
    reports.reserve(it->second.size());
    for (auto& [site_id, report] : it->second) {
      (void)site_id;
      reports.push_back(std::move(report));
    }
    EpochReport merged = flowtable::fold_reports(reports);
    // Then fuse same-key records in place: each key keeps its first
    // record's position and sums the later ones in site order.
    std::unordered_map<FiveTuple, std::size_t> fused;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < merged.flows.size(); ++i) {
      const FlowEstimate flow = merged.flows[i];
      auto [pos, inserted] = fused.try_emplace(flow.flow, kept);
      if (inserted) {
        merged.flows[kept++] = flow;
      } else {
        merged.flows[pos->second].bytes += flow.bytes;
        merged.flows[pos->second].packets += flow.packets;
      }
    }
    merged.flows.resize(kept);
    merged.totals.flows = kept;
    for (const auto& subscriber : subscribers_) subscriber(merged);
  }
  for (auto& [id, site] : sites_) {
    (void)id;
    if (site.epochs.count(epoch) == 0) ++site.status.epoch_gaps;
  }
  pending_.erase(epoch);
  ++epochs_finalized_;
  epochs_metric_->inc();
  any_finalized_ = true;
  next_epoch_to_finalize_ = epoch + 1;
  std::int64_t lagging = 0;
  for (const auto& [id, site] : sites_) {
    (void)id;
    if (site_lagging(site)) ++lagging;
  }
  lagging_metric_->set(lagging);
}

void Collector::finalize_all() {
  while (!pending_.empty()) finalize_epoch(pending_.begin()->first);
}

std::vector<GlobalEstimate> Collector::top_k(std::size_t k) const {
  // Rank the keys by byte sum first; only the k winners get an interval
  // and a site count.
  struct Ranked {
    double bytes;
    const std::pair<const FiveTuple, KeyState>* entry;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(keys_.size());
  for (const auto& entry : keys_) {
    ranked.push_back({entry.second.bytes.sum(), &entry});
  }
  const std::size_t take = std::min(k, ranked.size());
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<std::ptrdiff_t>(take),
                    ranked.end(), [](const Ranked& a, const Ranked& b) {
                      if (a.bytes != b.bytes) return a.bytes > b.bytes;
                      return tuple_less(a.entry->first, b.entry->first);
                    });
  std::vector<GlobalEstimate> out;
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    const auto& [flow, key] = *ranked[i].entry;
    GlobalEstimate g;
    g.flow = flow;
    g.bytes = key.bytes.sum();
    g.packets = key.packets.sum();
    const core::MergedInterval interval =
        key.bytes.interval(config_.confidence);
    g.bytes_low = interval.low;
    g.bytes_high = interval.high;
    g.sites = site_count(flow, key);
    out.push_back(g);
  }
  return out;
}

std::uint32_t Collector::site_count(const FiveTuple& flow,
                                    const KeyState& key) const {
  auto n = static_cast<std::uint32_t>(std::popcount(key.site_mask));
  const auto it = overflow_sites_.find(flow);
  if (it != overflow_sites_.end()) {
    for (const std::uint64_t word : it->second) {
      n += static_cast<std::uint32_t>(std::popcount(word));
    }
  }
  return n;
}

Collector::GlobalTotals Collector::totals() const {
  GlobalTotals totals;
  totals.bytes = total_bytes_.sum();
  totals.packets = total_packets_.sum();
  const core::MergedInterval interval =
      total_bytes_.interval(config_.confidence);
  totals.bytes_low = interval.low;
  totals.bytes_high = interval.high;
  totals.flows = keys_.size();
  return totals;
}

std::vector<SiteStatus> Collector::sites() const {
  std::vector<SiteStatus> out;
  out.reserve(sites_.size());
  for (const auto& [id, site] : sites_) {
    (void)id;
    SiteStatus status = site.status;
    if (any_report_) {
      status.lag_epochs = site.status.seen
                              ? highwater_ - site.status.highwater_epoch
                              : highwater_ + 1;
    }
    status.lagging = site_lagging(site);
    out.push_back(status);
  }
  return out;
}

flowtable::PressureStats Collector::pressure() const {
  flowtable::PressureStats total;
  for (const auto& [id, site] : sites_) {
    (void)id;
    total += site.status.pressure;
  }
  return total;
}

}  // namespace disco::collect
