#include "flowtable/monitor.hpp"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "telemetry/registry.hpp"

namespace disco::flowtable {
namespace {

// Stream-splitting constant for the pressure RNG (same golden-ratio constant
// SplitMix64 uses): one user seed yields two decorrelated streams.
constexpr std::uint64_t kPressureSeedSalt = 0x9e3779b97f4a7c15ULL;

// Bursts ingest_batch hashes and prefetches ahead of the one it probes.
constexpr std::size_t kPrefetchDepth = 8;

// Occupied slots select_victim samples per victim (RAP / EvictSmallest).
constexpr unsigned kVictimSamples = 8;

// RescaleB: each rescale re-provisions a counter array for this many times
// its previous representable maximum, at most kMaxRescales times; past the
// cap the array saturates (every rescale raises b and with it the Theorem 2
// CV bound, so unbounded growth would silently trade all accuracy away).
constexpr double kRescaleGrowth = 2.0;
constexpr unsigned kMaxRescales = 16;

}  // namespace

FlowMonitor::FlowMonitor(const Config& config)
    : config_(config),
      table_(config.max_flows),
      volume_(config.estimator, config.max_flows, config.counter_bits,
              config.max_flow_bytes),
      size_(config.estimator, config.max_flows, config.counter_bits,
            config.max_flow_packets),
      rng_(config.seed),
      pressure_rng_(config.seed ^ kPressureSeedSalt) {
  if (config_.pressure.saturation == SaturationPolicy::RescaleB) {
    volume_.enable_rescale(kRescaleGrowth, kMaxRescales);
    size_.enable_rescale(kRescaleGrowth, kMaxRescales);
  }
  auto& registry = telemetry::Registry::global();
  const std::string& prefix = config_.telemetry_prefix;
  metrics_.ingests = &registry.counter(prefix + ".ingest_total");
  metrics_.rejects = &registry.counter(prefix + ".ingest_rejected_total");
  metrics_.queries = &registry.counter(prefix + ".queries_total");
  metrics_.occupancy = &registry.gauge(prefix + ".table_occupancy");
  metrics_.flows_rejected = &registry.counter(prefix + ".flows_rejected_total");
  metrics_.flows_evicted = &registry.counter(prefix + ".flows_evicted_total");
  metrics_.saturations = &registry.counter(prefix + ".counters_saturated_total");
  metrics_.rescales = &registry.counter(prefix + ".rescale_events_total");
}

bool FlowMonitor::ingest(const FiveTuple& flow, std::uint32_t length) {
  const FlowBurst burst{.flow = flow, .bytes = length, .packets = 1};
  return ingest_batch({&burst, 1}) == 1;
}

std::size_t FlowMonitor::ingest_batch(std::span<const FlowBurst> bursts) {
  // Window-at-a-time so the scratch arrays live on the stack regardless of
  // the caller's batch size (the pipeline pops <= 256 messages per visit).
  constexpr std::size_t kWindow = 256;
  constexpr std::uint32_t kNoSlot = 0xffffffffu;
  std::uint64_t hashes[kWindow];
  std::uint32_t slots[kWindow];

  std::size_t accepted = 0;
  std::uint64_t accepted_packets = 0;
  std::uint64_t rejected_packets = 0;
  std::uint64_t rejected_bursts = 0;
  for (std::size_t base = 0; base < bursts.size(); base += kWindow) {
    const std::size_t n = std::min(kWindow, bursts.size() - base);
    const std::span<const FlowBurst> window = bursts.subspan(base, n);
    const std::size_t depth = std::min(kPrefetchDepth, n);

    // Counter updates for the probed bursts [applied, end), in burst order
    // and volume before size per burst, so the RNG stream matches
    // one-burst-at-a-time ingest.
    std::size_t applied = 0;
    auto apply_until = [&](std::size_t end) {
      for (; applied < end; ++applied) {
        const FlowBurst& burst = window[applied];
        const std::uint32_t slot = slots[applied];
        if (slot == kNoSlot) {
          rejected_packets += burst.packets;
          ++rejected_bursts;
          continue;
        }
        volume_.add(slot, burst.bytes, rng_);
        size_.add(slot, burst.packets, rng_);
        accepted_packets += burst.packets;
        ++accepted;
      }
    };

    // Probe the window, keeping `depth` tag-group prefetches in flight
    // ahead of the probes, and pull each accepted slot's counter words
    // toward the cache for the updates.  A burst's carried hash is the
    // one the table probes with; only a burst carrying 0 is hashed here.
    const auto hash_ahead = [&](std::size_t j) {
      const FlowBurst& burst = window[j];
      assert(burst.hash == 0 || burst.hash == FlowTable::hash_of(burst.flow));
      hashes[j] = burst.hash != 0 ? burst.hash : FlowTable::hash_of(burst.flow);
      table_.prefetch(hashes[j]);
    };
    for (std::size_t j = 0; j < depth; ++j) hash_ahead(j);
    for (std::size_t j = 0; j < n; ++j) {
      if (j + depth < n) hash_ahead(j + depth);
      auto slot = table_.insert_or_get(window[j].flow, hashes[j]);
      if (!slot && config_.pressure.admission != AdmissionPolicy::Drop) {
        // Admission reads and resets counters, so every earlier burst's
        // update lands first; probing then resumes at j + 1.  Probes draw
        // no randomness and touch no counter, so table operations, counter
        // updates and both RNG streams keep one-burst-at-a-time order.
        apply_until(j);
        slot = admit_under_pressure(window[j]);
      }
      if (slot) {
        slots[j] = *slot;
        volume_.prefetch(*slot);
        size_.prefetch(*slot);
      } else {
        slots[j] = kNoSlot;
      }
    }
    apply_until(n);
  }
  packets_seen_ += accepted_packets;
  pressure_.flows_rejected += rejected_bursts;
  // One enabled() test for all four updates: a one-packet ingest cannot
  // amortise four of them.
  if (telemetry::enabled()) [[unlikely]] {
    metrics_.rejects->inc(rejected_packets);
    metrics_.flows_rejected->inc(rejected_bursts);
    metrics_.ingests->inc(accepted_packets);
    metrics_.occupancy->set(static_cast<std::int64_t>(table_.size()));
  }
  sync_pressure_counters();
  return accepted;
}

std::optional<std::uint32_t> FlowMonitor::admit_under_pressure(
    const FlowBurst& burst) {
  const auto victim = select_victim();
  if (!victim) return std::nullopt;

  if (config_.pressure.admission == AdmissionPolicy::RandomizedAdmission) {
    // RAP: admit with probability proportional to the newcomer's increment
    // relative to the victim's standing -- p = l / (l + f(c_victim)).  A
    // mouse burst displacing an elephant is vanishingly unlikely; a heavy
    // flow wins a slot within O(1/its traffic share) bursts.
    const double l = static_cast<double>(burst.bytes);
    const double standing = volume_.estimate(*victim);
    const double p = (l + standing) > 0.0 ? l / (l + standing) : 1.0;
    if (!pressure_rng_.bernoulli(p)) return std::nullopt;
  }

  const FiveTuple victim_key = table_.keys()[*victim];
  table_.erase(victim_key);
  // The freed slot is the next one insert_or_get hands out (LIFO free list),
  // so the newcomer lands exactly where the victim's counters live.
  const auto slot = table_.insert_or_get(burst.flow);
  if (slot && config_.pressure.admission == AdmissionPolicy::EvictSmallest) {
    // EvictSmallest discards the victim's estimate; the newcomer starts
    // cold.  RAP skips this -- the newcomer INHERITS the victim's counters,
    // so no admitted traffic is ever under-counted (the RAP invariant).
    volume_.set_value(*slot, 0);
    size_.set_value(*slot, 0);
  }
  ++pressure_.flows_evicted;
  metrics_.flows_evicted->inc();
  return slot;
}

std::optional<std::uint32_t> FlowMonitor::select_victim() {
  const std::size_t slots = table_.keys().size();
  if (slots == 0 || table_.size() == 0) return std::nullopt;
  std::optional<std::uint32_t> best;
  std::uint64_t best_counter = ~std::uint64_t{0};
  for (unsigned s = 0; s < kVictimSamples; ++s) {
    const auto idx = static_cast<std::uint32_t>(
        pressure_rng_.uniform_u64(0, slots - 1));
    if (!table_.slot_used(idx)) continue;  // freed slot awaiting reuse
    const std::uint64_t c = volume_.value(idx);
    if (!best || c < best_counter) {
      best = idx;
      best_counter = c;
    }
  }
  if (best) return best;
  // Every sample hit a freed slot.  A slot stays free only when an injected
  // kAllocFailure (util/fault.hpp) failed the re-insert after an admission
  // erase; fall back to the first occupied one.
  for (std::uint32_t i = 0; i < slots; ++i) {
    if (table_.slot_used(i)) return i;
  }
  return std::nullopt;
}

void FlowMonitor::sync_pressure_counters() {
  const std::uint64_t saturations =
      volume_.overflow_count() + size_.overflow_count();
  const std::uint64_t rescales =
      volume_.rescale_count() + size_.rescale_count();
  if (saturations > saturations_seen_) {
    const std::uint64_t d = saturations - saturations_seen_;
    pressure_.counters_saturated += d;
    metrics_.saturations->inc(d);
    saturations_seen_ = saturations;
  }
  if (rescales > rescales_seen_) {
    const std::uint64_t d = rescales - rescales_seen_;
    pressure_.rescale_events += d;
    metrics_.rescales->inc(d);
    rescales_seen_ = rescales;
  }
}

std::optional<FlowMonitor::FlowEstimate> FlowMonitor::query(const FiveTuple& flow) const {
  metrics_.queries->inc();
  const auto slot = table_.find(flow);
  if (!slot) return std::nullopt;
  return FlowEstimate{flow, volume_.estimate(*slot), size_.estimate(*slot)};
}

std::vector<FlowMonitor::FlowEstimate> FlowMonitor::top_k(std::size_t k) const {
  std::vector<FlowEstimate> all;
  all.reserve(table_.size());
  table_.for_each([&](std::uint32_t slot, const FiveTuple& key) {
    all.push_back(FlowEstimate{key, volume_.estimate(slot), size_.estimate(slot)});
  });
  const std::size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(take),
                    all.end(), [](const FlowEstimate& a, const FlowEstimate& b) {
                      return a.bytes > b.bytes;
                    });
  all.resize(take);
  return all;
}

FlowMonitor::Totals FlowMonitor::totals() const {
  Totals t;
  t.flows = table_.size();
  table_.for_each([&](std::uint32_t slot, const FiveTuple&) {
    t.bytes += volume_.estimate(slot);
    t.packets += size_.estimate(slot);
  });
  return t;
}

FlowMonitor::MemoryReport FlowMonitor::memory() const {
  return MemoryReport{volume_.storage_bits(), size_.storage_bits(),
                      table_.storage_bits()};
}

void FlowMonitor::subscribe(EpochSubscriber subscriber) {
  if (subscriber) subscribers_.push_back(std::move(subscriber));
}

FlowMonitor::EpochReport FlowMonitor::rotate() {
  sync_pressure_counters();
  EpochReport report;
  report.epoch = epoch_;
  report.pressure = pressure_;
  report.volume_b = volume_.effective_b();
  report.size_b = size_.effective_b();
  report.volume_error_unit = volume_.error_unit();
  report.size_error_unit = size_.error_unit();
  report.totals.flows = table_.size();
  report.flows.reserve(table_.size());
  // One slot-order pass builds the records and sums the totals: the same
  // additions in the same order as totals(), so the sums are bit-equal.
  table_.for_each([&](std::uint32_t slot, const FiveTuple& key) {
    const FlowEstimate& flow = report.flows.emplace_back(
        FlowEstimate{key, volume_.estimate(slot), size_.estimate(slot)});
    report.totals.bytes += flow.bytes;
    report.totals.packets += flow.packets;
  });
  // The table hands out slots densely from 0, so every counter word this
  // epoch wrote lies below `used`; the rest are still zero.
  const std::size_t used = table_.keys().size();
  table_.clear();
  volume_.reset(used);
  size_.reset(used);
  // DiscoArray::reset() zeroes per-epoch overflow tallies but keeps the
  // rescaled scale (a deployment property); realign the sync watermarks.
  saturations_seen_ = 0;
  rescales_seen_ = volume_.rescale_count() + size_.rescale_count();
  ++epoch_;
  metrics_.occupancy->set(0);
  // Notify after the monitor is fully reset for the next epoch, so a
  // subscriber observing telemetry or table state sees the new epoch.
  for (const auto& subscriber : subscribers_) subscriber(report);
  return report;
}

}  // namespace disco::flowtable
