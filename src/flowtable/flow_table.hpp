// Fixed-capacity open-addressing flow table, generic over the key type.
//
// A line card allocates its flow table once; there is no rehashing at line
// rate.  BasicFlowTable maps keys to dense counter slots with linear
// probing, supports tombstone-free deletion (backward shift) with slot
// recycling, and reports (rather than hides) overload: when the table is
// full, new flows are rejected and counted.  Probe statistics make hash
// behaviour observable in tests.
//
// Layout (PR "SIMD tag-probe"): alongside the bucket array the table keeps
// a parallel 1-byte fingerprint ("tag") per bucket -- 0 for empty, else the
// top 7 hash bits with the high bit set (flowtable/tag_probe.hpp).  Probes
// scan tags in groups of 16 with one SSE2 compare+movemask (scalar byte
// loop on other targets -- bit-identical masks), so a lookup touches one
// cache line of tags and runs a full-key compare only on the ~1/128 of
// occupied buckets whose tag collides.  The probe SEQUENCE is untouched:
// candidates are still examined in linear-probe order from `hash & mask`,
// and the first empty bucket still terminates, so probe statistics, insert
// positions, and backward-shift deletion behave exactly as the scalar
// table always did.  The tag array carries a 16-byte mirror of its first
// group past the end, so an unaligned group read never wraps mid-load.
//
// The UseSimd template knob exists for the differential suite, which runs
// the SSE2 and scalar engines side by side in one binary and requires
// bit-identical tables; production code uses the default.
//
// Key requirements: equality-comparable, hashable via std::hash<Key>, and
// cheap to copy (keys are stored twice: bucket array + slot-ordered list).
// `FlowTable` is the IPv4 5-tuple instantiation; `FlowTableV6` the IPv6 one.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "flowtable/flow_key.hpp"
#include "flowtable/tag_probe.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/registry.hpp"
#include "util/fault.hpp"
#include "util/prefetch.hpp"

namespace disco::flowtable {

template <typename Key, bool UseSimd = tagprobe::kHaveSimd>
class BasicFlowTable {
 public:
  /// `capacity` is the number of flows the table can hold; the bucket array
  /// is sized to the next power of two of capacity / max_load.
  explicit BasicFlowTable(std::size_t capacity, double max_load = 0.75)
      : capacity_(capacity) {
    if (capacity == 0) throw std::invalid_argument("FlowTable: zero capacity");
    if (capacity > (std::size_t{1} << 32)) {
      // Also guards next_pow2 against overflow on absurd (e.g. corrupted
      // snapshot) capacities.
      throw std::invalid_argument("FlowTable: capacity beyond 2^32 flows");
    }
    if (!(max_load > 0.0) || max_load > 0.95) {
      throw std::invalid_argument("FlowTable: max_load must be in (0, 0.95]");
    }
    // At least one probe group of buckets, so the group scan's wrap-around
    // mirror (below) is always a full group.  Sizing guarantees
    // buckets > capacity, so a probe can always terminate at an empty tag.
    std::size_t buckets = next_pow2(
        static_cast<std::size_t>(static_cast<double>(capacity) / max_load) + 1);
    if (buckets < tagprobe::kGroupWidth) buckets = tagprobe::kGroupWidth;
    buckets_.resize(buckets);
    // kGroupWidth extra tags mirror tags_[0..kGroupWidth): a group read
    // starting near the end runs into the copy instead of wrapping.
    tags_.assign(buckets + tagprobe::kGroupWidth, tagprobe::kEmptyTag);
    mask_ = buckets - 1;
    keys_.reserve(capacity);
    probe_hist_ =
        &telemetry::Registry::global().histogram("flow_table.probe_length");
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept { return buckets_.size(); }

  /// The hash this table probes with -- exposed so batch callers can hash
  /// once, prefetch(), then probe with the insert_or_get/find overloads
  /// below without hashing twice.
  [[nodiscard]] static std::uint64_t hash_of(const Key& key) noexcept {
    return static_cast<std::uint64_t>(std::hash<Key>{}(key));
  }

  /// Pulls the tag group and bucket line for `hash` toward the cache --
  /// the batched-ingest path issues these a few keys ahead of the probes.
  void prefetch(std::uint64_t hash) const noexcept {
    const std::size_t i = static_cast<std::size_t>(hash) & mask_;
    util::prefetch_read(tags_.data() + i);
    util::prefetch_read(buckets_.data() + i);
  }

  /// Returns the dense slot of `key`, inserting it if new.  nullopt when the
  /// table is at capacity and `key` is not present.
  [[nodiscard]] std::optional<std::uint32_t> insert_or_get(const Key& key) {
    return insert_or_get(key, hash_of(key));
  }

  /// insert_or_get with a caller-supplied hash (must equal hash_of(key)).
  [[nodiscard]] std::optional<std::uint32_t> insert_or_get(
      const Key& key, std::uint64_t hash) {
    const Probe p = probe(key, hash);
    account(p.length);
    if (p.found) return buckets_[p.index].slot;
    // kAllocFailure models the slot allocator running dry early (e.g. a
    // smaller SRAM part): each new-flow allocation attempt consults the
    // armed plan, and an injected failure takes the exact code path a
    // genuinely full table does.  Compiles to the plain capacity check
    // when DISCO_FAULTS is off.
    if (util::fault::fires(util::fault::Point::kAllocFailure) ||
        size_ >= capacity_) {
      ++rejected_;
      return std::nullopt;
    }
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      keys_[slot] = key;
      slot_used_[slot] = true;
    } else {
      slot = static_cast<std::uint32_t>(keys_.size());
      keys_.push_back(key);
      slot_used_.push_back(true);
    }
    Bucket& b = buckets_[p.index];
    b.key = key;
    b.slot = slot;
    set_tag(p.index, tagprobe::make_tag(hash));
    ++size_;
    return slot;
  }

  /// Lookup without insertion.
  [[nodiscard]] std::optional<std::uint32_t> find(const Key& key) const noexcept {
    return find(key, hash_of(key));
  }

  /// find with a caller-supplied hash (must equal hash_of(key)).
  [[nodiscard]] std::optional<std::uint32_t> find(
      const Key& key, std::uint64_t hash) const noexcept {
    const Probe p = probe(key, hash);
    account(p.length);
    if (!p.found) return std::nullopt;
    return buckets_[p.index].slot;
  }

  /// Removes a flow, freeing its slot for reuse by later inserts (the
  /// monitor's idle-eviction path).  Uses backward-shift deletion so probe
  /// sequences stay intact without tombstones.  Returns the freed slot, or
  /// nullopt if the key was absent.
  std::optional<std::uint32_t> erase(const Key& key) noexcept {
    const Probe p = probe(key, hash_of(key));
    account(p.length);
    if (!p.found) return std::nullopt;
    const std::size_t i = p.index;
    const std::uint32_t freed = buckets_[i].slot;
    slot_used_[freed] = false;
    free_slots_.push_back(freed);
    --size_;

    // Backward-shift deletion: pull cluster members whose home position lies
    // at or before the gap, keeping every probe sequence unbroken.  Tags
    // move with their buckets.
    std::size_t gap = i;
    std::size_t k = (i + 1) & mask_;
    while (tags_[k] != tagprobe::kEmptyTag) {
      const std::uint64_t h = hash_of(buckets_[k].key);
      const std::size_t home = static_cast<std::size_t>(h) & mask_;
      // Move bucket k into the gap unless its home lies cyclically within
      // (gap, k] -- in that case it is already as close to home as allowed.
      const bool home_in_between = gap < k ? (home > gap && home <= k)
                                           : (home > gap || home <= k);
      if (!home_in_between) {
        buckets_[gap] = buckets_[k];
        set_tag(gap, tagprobe::make_tag(h));
        gap = k;
      }
      k = (k + 1) & mask_;
    }
    set_tag(gap, tagprobe::kEmptyTag);
    return freed;
  }

  /// Calls fn(slot, key) for every active flow.  Slots are NOT necessarily
  /// dense once erase() has been used; iterate via this, not by index.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t slot = 0; slot < keys_.size(); ++slot) {
      if (slot_used_[slot]) fn(slot, keys_[slot]);
    }
  }

  /// Keys in slot order; entries of freed slots are stale -- pair with
  /// for_each()/slot_used() when erase() is in play.
  [[nodiscard]] const std::vector<Key>& keys() const noexcept { return keys_; }
  [[nodiscard]] bool slot_used(std::uint32_t slot) const noexcept {
    return slot < slot_used_.size() && slot_used_[slot];
  }

  // --- observability --------------------------------------------------------
  [[nodiscard]] std::uint64_t rejected_flows() const noexcept { return rejected_; }
  [[nodiscard]] std::uint64_t total_probes() const noexcept { return probes_; }
  [[nodiscard]] std::uint64_t total_lookups() const noexcept { return lookups_; }
  [[nodiscard]] double mean_probe_length() const noexcept {
    return lookups_ == 0 ? 0.0
                         : static_cast<double>(probes_) / static_cast<double>(lookups_);
  }

  /// SRAM footprint of the table structure itself (keys + slot ids + tags).
  [[nodiscard]] std::size_t storage_bits() const noexcept {
    return (buckets_.size() * (sizeof(Key) + 4) + tags_.size()) * 8;
  }

  /// Removes all flows (start of a new measurement epoch).  Capacity and
  /// statistics counters are preserved.  Only the 1-byte tags are reset:
  /// probe() never reads a bucket behind an empty tag, so the stale bucket
  /// array is dead until an insert rewrites it.
  void clear() noexcept {
    tags_.assign(tags_.size(), tagprobe::kEmptyTag);
    keys_.clear();
    slot_used_.clear();
    free_slots_.clear();
    size_ = 0;
  }

 private:
  /// Meaningful only while its tag is non-empty: an emptied bucket keeps
  /// its stale contents until an insert reuses it.
  struct Bucket {
    Key key{};
    std::uint32_t slot = 0;
  };
  /// Probe-length histogram sampling: 1 in 64 lookups (starting with the
  /// first, so the metric is live as soon as traffic flows).  record()
  /// already honors both telemetry toggles -- a compile-time stub under
  /// DISCO_TELEMETRY=0, a relaxed enabled() load when runtime-disabled --
  /// but when telemetry IS on, each record pays three relaxed fetch_adds
  /// on the registry-shared histogram.  Sampling takes that off the
  /// per-lookup path while keeping the distribution shape; the measured
  /// before/after is in docs/telemetry.md.
  static constexpr std::uint64_t kProbeSampleMask = 63;

  static std::size_t next_pow2(std::size_t v) noexcept {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  /// Where a lookup for `key` terminated: the matching bucket (found) or
  /// the first empty bucket of its probe sequence (!found -- the insert
  /// position).  `length` counts buckets from home through the terminal
  /// one, exactly the scalar table's per-bucket probe count.
  struct Probe {
    std::size_t index = 0;
    std::uint64_t length = 0;
    bool found = false;
  };

  [[nodiscard]] Probe probe(const Key& key, std::uint64_t hash) const noexcept {
    const std::uint8_t tag = tagprobe::make_tag(hash);
    const std::size_t start = static_cast<std::size_t>(hash) & mask_;
    std::size_t base = start;
    for (;;) {
      const tagprobe::GroupMask g =
          tagprobe::scan<UseSimd>(tags_.data() + base, tag);
      // Candidates past the first empty tag belong to other probe
      // sequences (linear probing never stores a key beyond its first
      // empty), so only bits below it are examined -- in probe order.
      const unsigned first_empty =
          g.empty != 0 ? static_cast<unsigned>(std::countr_zero(g.empty))
                       : static_cast<unsigned>(tagprobe::kGroupWidth);
      std::uint32_t match = g.match;
      while (match != 0) {
        const unsigned off = static_cast<unsigned>(std::countr_zero(match));
        if (off >= first_empty) break;
        const std::size_t idx = (base + off) & mask_;
        if (buckets_[idx].key == key) {
          return Probe{idx, ((idx - start) & mask_) + 1, true};
        }
        match &= match - 1;
      }
      if (first_empty < tagprobe::kGroupWidth) {
        const std::size_t idx = (base + first_empty) & mask_;
        return Probe{idx, ((idx - start) & mask_) + 1, false};
      }
      base = (base + tagprobe::kGroupWidth) & mask_;
    }
  }

  /// Folds one completed lookup into the probe statistics (every lookup)
  /// and the shared histogram (sampled).
  void account(std::uint64_t probe_length) const noexcept {
    probes_ += probe_length;
    if (((lookups_++) & kProbeSampleMask) == 0) {
      probe_hist_->record(probe_length);
    }
  }

  /// Writes a tag, keeping the wrap-around mirror of the first group in
  /// sync.
  void set_tag(std::size_t i, std::uint8_t tag) noexcept {
    tags_[i] = tag;
    if (i < tagprobe::kGroupWidth) tags_[buckets_.size() + i] = tag;
  }

  std::size_t capacity_;
  std::size_t mask_ = 0;
  std::vector<Bucket> buckets_;
  std::vector<std::uint8_t> tags_;
  std::vector<Key> keys_;
  std::vector<bool> slot_used_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t size_ = 0;
  mutable std::uint64_t probes_ = 0;
  mutable std::uint64_t lookups_ = 0;
  std::uint64_t rejected_ = 0;
  // Shared per-process probe-length distribution (docs/telemetry.md); the
  // registry owns it, so tables stay freely copyable and movable.
  telemetry::LatencyHistogram* probe_hist_ = nullptr;
};

/// The IPv4 5-tuple table used by FlowMonitor.
using FlowTable = BasicFlowTable<FiveTuple>;

/// IPv6 instantiation (see flow_key.hpp for the key).
using FlowTableV6 = BasicFlowTable<FiveTupleV6>;

}  // namespace disco::flowtable
