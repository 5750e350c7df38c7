#include "flowtable/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "telemetry/registry.hpp"

namespace disco::flowtable {
namespace {

constexpr std::uint32_t kSnapshotMagic = 0x4e4f4d44;  // "DMON" LE
// v3 adds the pressure block after the RNG state: pressure-stream RNG state,
// cumulative PressureStats, and each counter array's effective base b with
// its rescale count (so a RescaleB deployment restores to the scale its raw
// counters are actually expressed in).  v2 snapshots (no pressure block) are
// still readable.
constexpr std::uint32_t kSnapshotVersion = 3;
constexpr std::uint32_t kSnapshotVersionV2 = 2;

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

template <typename T>
void put(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
[[nodiscard]] T get(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!in) throw std::runtime_error("FlowMonitor::restore: truncated snapshot");
  return value;
}

// FiveTuple is written field by field: the struct has padding bytes whose
// content is indeterminate and must not leak into the snapshot.
void put_tuple(std::ostream& out, const FiveTuple& t) {
  put(out, t.src_ip);
  put(out, t.dst_ip);
  put(out, t.src_port);
  put(out, t.dst_port);
  put(out, t.protocol);
}

[[nodiscard]] FiveTuple get_tuple(std::istream& in) {
  FiveTuple t;
  t.src_ip = get<std::uint32_t>(in);
  t.dst_ip = get<std::uint32_t>(in);
  t.src_port = get<std::uint16_t>(in);
  t.dst_port = get<std::uint16_t>(in);
  t.protocol = get<std::uint8_t>(in);
  return t;
}

}  // namespace

FlowMonitor::FlowMonitor(const Config& config)
    : config_(config),
      table_(config.max_flows),
      volume_(config.estimator, config.max_flows, config.counter_bits,
              config.max_flow_bytes),
      size_(config.estimator, config.max_flows, config.counter_bits,
            config.max_flow_packets),
      last_seen_ns_(config.max_flows, 0),
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
  metrics_.evictions = &registry.counter(prefix + ".evictions_total");
  metrics_.queries = &registry.counter(prefix + ".queries_total");
  metrics_.occupancy = &registry.gauge(prefix + ".table_occupancy");
  metrics_.flows_rejected = &registry.counter(prefix + ".flows_rejected_total");
  metrics_.flows_evicted = &registry.counter(prefix + ".flows_evicted_total");
  metrics_.saturations = &registry.counter(prefix + ".counters_saturated_total");
  metrics_.rescales = &registry.counter(prefix + ".rescale_events_total");
}

bool FlowMonitor::ingest(const FiveTuple& flow, std::uint32_t length,
                         std::uint64_t now_ns) {
  const FlowBurst burst{flow, length, 1, now_ns};
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
        last_seen_ns_[slot] = burst.last_ns;
        accepted_packets += burst.packets;
        ++accepted;
      }
    };

    // Probe the window, keeping `depth` tag-group prefetches in flight
    // ahead of the probes, and pull each accepted slot's counter words
    // toward the cache for the updates.
    for (std::size_t j = 0; j < depth; ++j) {
      hashes[j] = FlowTable::hash_of(window[j].flow);
      table_.prefetch(hashes[j]);
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (j + depth < n) {
        hashes[j + depth] = FlowTable::hash_of(window[j + depth].flow);
        table_.prefetch(hashes[j + depth]);
      }
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
    last_seen_ns_[*slot] = 0;
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
  // Every sample hit a freed slot (only possible right after heavy idle
  // eviction); fall back to the first occupied one.
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

std::vector<FlowMonitor::FlowEstimate> FlowMonitor::evict_idle(
    std::uint64_t now_ns, std::uint64_t idle_timeout_ns) {
  std::vector<FlowEstimate> evicted;
  std::vector<FiveTuple> victims;
  table_.for_each([&](std::uint32_t slot, const FiveTuple& key) {
    const std::uint64_t seen = last_seen_ns_[slot];
    if (now_ns >= seen && now_ns - seen > idle_timeout_ns) {
      evicted.push_back(
          FlowEstimate{key, volume_.estimate(slot), size_.estimate(slot)});
      victims.push_back(key);
    }
  });
  for (const FiveTuple& key : victims) {
    const auto slot = table_.erase(key);
    if (slot) {
      volume_.set_value(*slot, 0);
      size_.set_value(*slot, 0);
      last_seen_ns_[*slot] = 0;
    }
  }
  metrics_.evictions->inc(evicted.size());
  metrics_.occupancy->set(static_cast<std::int64_t>(table_.size()));
  return evicted;
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
  // The table hands out slots densely from 0, so every counter word and
  // timestamp this epoch wrote lies below `used`; the rest are still zero.
  const std::size_t used = table_.keys().size();
  table_.clear();
  volume_.reset(used);
  size_.reset(used);
  // DiscoArray::reset() zeroes per-epoch overflow tallies but keeps the
  // rescaled scale (a deployment property); realign the sync watermarks.
  saturations_seen_ = 0;
  rescales_seen_ = volume_.rescale_count() + size_.rescale_count();
  std::fill_n(last_seen_ns_.begin(), used, 0);
  ++epoch_;
  metrics_.occupancy->set(0);
  // Notify after the monitor is fully reset for the next epoch, so a
  // subscriber observing telemetry or table state sees the new epoch.
  for (const auto& subscriber : subscribers_) subscriber(report);
  return report;
}

void FlowMonitor::snapshot(std::ostream& out) const {
  if (config_.estimator != EstimatorKind::Disco) {
    // The v3 format stores each array's effective base b -- a DISCO-mode
    // notion.  Additive deployments are epoch-scoped (rotate() re-exacts
    // the scale), so checkpointing them has no use case yet; fail loudly
    // rather than write a snapshot restore() would misinterpret.
    throw std::runtime_error(
        "FlowMonitor::snapshot: additive-error estimator is not snapshotable");
  }
  put(out, kSnapshotMagic);
  put(out, kSnapshotVersion);
  put(out, static_cast<std::uint64_t>(config_.max_flows));
  put(out, static_cast<std::int32_t>(config_.counter_bits));
  put(out, config_.max_flow_bytes);
  put(out, config_.max_flow_packets);
  put(out, config_.seed);
  put(out, epoch_);
  put(out, packets_seen_);
  put(out, rng_.state());
  // v3 pressure block: stream state, cumulative stats, and the effective
  // scale of each counter array (b drifts upward under RescaleB; the raw
  // counter values below are only meaningful under the b they were written
  // with).
  put(out, pressure_rng_.state());
  put(out, pressure_.flows_rejected);
  put(out, pressure_.flows_evicted);
  put(out, pressure_.counters_saturated);
  put(out, pressure_.rescale_events);
  put(out, volume_.effective_b());
  put(out, volume_.rescale_count());
  put(out, size_.effective_b());
  put(out, size_.rescale_count());
  put(out, static_cast<std::uint64_t>(table_.size()));
  // Entries are keyed by flow, not slot: restore re-derives slot numbers, so
  // snapshots are insensitive to the eviction history's slot fragmentation.
  table_.for_each([&](std::uint32_t slot, const FiveTuple& key) {
    put_tuple(out, key);
    put(out, volume_.value(slot));
    put(out, size_.value(slot));
    put(out, last_seen_ns_[slot]);
  });
  if (!out) throw std::runtime_error("FlowMonitor::snapshot: write failed");
}

FlowMonitor FlowMonitor::restore(std::istream& in) {
  if (get<std::uint32_t>(in) != kSnapshotMagic) {
    throw std::runtime_error("FlowMonitor::restore: bad magic");
  }
  const auto version = get<std::uint32_t>(in);
  if (version != kSnapshotVersion && version != kSnapshotVersionV2) {
    throw std::runtime_error("FlowMonitor::restore: unsupported version");
  }
  Config config;
  config.max_flows = static_cast<std::size_t>(get<std::uint64_t>(in));
  if (config.max_flows == 0 || config.max_flows > (std::size_t{1} << 26)) {
    // Sanity bound: a corrupted size field must not drive a multi-GB
    // allocation.  64M flows is far beyond any monitored-link population.
    throw std::runtime_error("FlowMonitor::restore: implausible max_flows");
  }
  config.counter_bits = get<std::int32_t>(in);
  config.max_flow_bytes = get<std::uint64_t>(in);
  config.max_flow_packets = get<std::uint64_t>(in);
  config.seed = get<std::uint64_t>(in);

  // The constructor owns the counter rules (width in [1, 62], a positive
  // budget that b <= 4 can cover); a snapshot header it rejects is corrupt.
  FlowMonitor monitor = [&] {
    try {
      return FlowMonitor(config);
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error(
          std::string("FlowMonitor::restore: implausible counter config: ") +
          e.what());
    }
  }();
  monitor.epoch_ = get<std::uint64_t>(in);
  monitor.packets_seen_ = get<std::uint64_t>(in);
  monitor.rng_.set_state(get<util::Rng::State>(in));

  if (version >= 3) {
    monitor.pressure_rng_.set_state(get<util::Rng::State>(in));
    monitor.pressure_.flows_rejected = get<std::uint64_t>(in);
    monitor.pressure_.flows_evicted = get<std::uint64_t>(in);
    monitor.pressure_.counters_saturated = get<std::uint64_t>(in);
    monitor.pressure_.rescale_events = get<std::uint64_t>(in);
    const auto volume_b = get<double>(in);
    const auto volume_rescales = get<std::uint64_t>(in);
    const auto size_b = get<double>(in);
    const auto size_rescales = get<std::uint64_t>(in);
    if (!(volume_b > 1.0) || !(size_b > 1.0) || !std::isfinite(volume_b) ||
        !std::isfinite(size_b)) {
      throw std::runtime_error("FlowMonitor::restore: implausible base b");
    }
    monitor.volume_.restore_scale(volume_b, volume_rescales);
    monitor.size_.restore_scale(size_b, size_rescales);
    // Freshly constructed arrays have zero overflow tallies; rescale counts
    // were just restored, so the sync watermarks start exactly there.
    monitor.saturations_seen_ = 0;
    monitor.rescales_seen_ = volume_rescales + size_rescales;
  }

  const auto flow_count = get<std::uint64_t>(in);
  if (flow_count > config.max_flows) {
    throw std::runtime_error("FlowMonitor::restore: snapshot exceeds capacity");
  }
  const std::uint64_t counter_max =
      (std::uint64_t{1} << config.counter_bits) - 1;
  for (std::uint64_t i = 0; i < flow_count; ++i) {
    const auto key = get_tuple(in);
    const auto volume_value = get<std::uint64_t>(in);
    const auto size_value = get<std::uint64_t>(in);
    const auto last_seen = get<std::uint64_t>(in);
    if (volume_value > counter_max || size_value > counter_max) {
      throw std::runtime_error(
          "FlowMonitor::restore: counter value exceeds counter width");
    }
    const auto slot = monitor.table_.insert_or_get(key);
    if (!slot) {
      throw std::runtime_error("FlowMonitor::restore: corrupt key section");
    }
    monitor.volume_.set_value(*slot, volume_value);
    monitor.size_.set_value(*slot, size_value);
    monitor.last_seen_ns_[*slot] = last_seen;
  }
  monitor.metrics_.occupancy->set(static_cast<std::int64_t>(monitor.table_.size()));
  return monitor;
}

}  // namespace disco::flowtable
