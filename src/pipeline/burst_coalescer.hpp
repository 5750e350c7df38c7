// Burst pre-aggregation for the software pipeline -- the paper's Section VI
// optimisation ("accumulate a burst in a small exact on-chip counter, apply
// it as one discounted update") generalised from strictly consecutive
// packets to a small direct-mapped table of open bursts.
//
// Why a table and not just "previous packet": on a real link, packets of a
// burst interleave with packets of other flows (ACKs, competing flows on
// the same 5-tuple hash).  A direct-mapped table of kSlots open bursts
// still merges those interleaved runs and keeps lookup O(1) with no
// probing: a slot collision simply closes the resident burst (one update)
// and opens the new one.  The paper reports ~2.5x fewer SRAM operations
// from this aggregation; here it means ~burst-length-fold fewer DISCO
// updates, and -- by Theorem 2 -- *lower* estimation variance, because one
// large update replaces several small ones.
//
// Runs arrive merged: the pipeline's producers already add up each stretch
// of back-to-back same-flow packets of an ingest call into one run (bytes
// and packet count), and add() takes a run.  A single packet is the
// one-packet run.  The table then merges runs of a flow that other
// flows interleave, or that two calls split.
//
// Caps: a burst closes once a merge brings it to kMaxPackets or kMaxBytes,
// the fixed width of the paper's scratch counter.  Producers cut their runs
// at the same constants (kMaxBytes fits a run's 32-bit byte field).  A run
// merges whole, so the run that closes a burst can carry it past a cap: by
// less than that run when the burst was below the cap before, by at most
// the run otherwise.  The run that opens a burst is not checked (the
// producer already cut it at the caps), as a single packet never was.
//
// Correctness: a coalesced update feeds the same unbiased Algorithm 1 with
// l = (sum of the burst's bytes), so f(c) stays an unbiased estimator of
// the flow's total traffic no matter how packets are grouped (Theorem 1 is
// per-update; linearity of expectation does the rest).  The packet count is
// carried alongside so flow *size* counting sees the burst too.
//
// Single-threaded by design: each pipeline worker owns one coalescer, as
// each MicroEngine owns its on-chip scratch counter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "flowtable/burst.hpp"
#include "flowtable/flow_key.hpp"

namespace disco::pipeline {

class BurstCoalescer {
 public:
  /// Open-burst table size, a power of two: a slot is the hash's low bits.
  static constexpr std::size_t kSlots = 64;
  /// The burst caps, which producers cut their runs at too (see above).
  static constexpr std::uint32_t kMaxPackets = 256;
  static constexpr std::uint32_t kMaxBytes = std::uint32_t{1} << 20;

  /// `enabled = false` keeps no table: every run passes straight through as
  /// its own burst.
  explicit BurstCoalescer(bool enabled = true) {
    if (enabled) table_.resize(kSlots);
  }

  /// Adds a run of `packets` (>= 1) packets of `flow` holding `bytes` bytes;
  /// `hash` must equal hash_tuple(flow).  The burst the run opens or passes
  /// through carries `hash` on to the flow table's probe.  Invokes
  /// `sink(const flowtable::FlowBurst&)` at most once: when the run's slot
  /// holds a different flow's burst (it is closed first), or when a merge
  /// brings the run's burst to a cap.  Deterministic: the emitted sequence
  /// is a pure function of the run sequence.  The unnamed argument, in every
  /// overload, is a packet timestamp the coalescer does not read.
  template <typename Sink>
  void add(const flowtable::FiveTuple& flow, std::uint64_t hash,
           std::uint64_t bytes, std::uint64_t packets, std::uint64_t,
           Sink&& sink) {
    merged_ += packets - 1;  // the run's own packets after its first
    if (table_.empty()) {  // coalescing disabled: pass through
      sink(flowtable::FlowBurst{
          .flow = flow, .bytes = bytes, .packets = packets, .hash = hash});
      return;
    }
    Entry& e = table_[hash & (kSlots - 1)];
    if (e.open) {
      if (e.burst.flow == flow) {
        e.burst.bytes += bytes;
        e.burst.packets += packets;
        ++merged_;
        if (e.burst.packets >= kMaxPackets || e.burst.bytes >= kMaxBytes) {
          sink(e.burst);
          e.open = false;
          --open_;
        }
        return;
      }
      sink(e.burst);  // collision: close the resident burst
      --open_;
    }
    // Each burst is built where it is used.  Built once up front, before
    // the calls to `sink`, it cost about 4 ns more a run on one-packet
    // traffic (perfbench's `pipeline.coalesce_ns`).
    e.burst = flowtable::FlowBurst{
        .flow = flow, .bytes = bytes, .packets = packets, .hash = hash};
    e.open = true;
    ++open_;
  }

  /// Adds one packet: the one-packet run.
  template <typename Sink>
  void add(const flowtable::FiveTuple& flow, std::uint32_t length,
           std::uint64_t, Sink&& sink) {
    add(flow, hash_tuple(flow), length, 1, 0, std::forward<Sink>(sink));
  }

  /// Same, with the tuple hash already in hand (must equal hash_tuple(flow)).
  template <typename Sink>
  void add(const flowtable::FiveTuple& flow, std::uint64_t hash,
           std::uint32_t length, std::uint64_t, Sink&& sink) {
    add(flow, hash, length, 1, 0, std::forward<Sink>(sink));
  }

  /// Closes every open burst in slot order (deterministic), emptying the
  /// table.  Called at drain/rotate boundaries and when the worker idles.
  template <typename Sink>
  void flush(Sink&& sink) {
    if (open_ == 0) return;
    for (Entry& e : table_) {
      if (e.open) {
        sink(e.burst);
        e.open = false;
      }
    }
    open_ = 0;
  }

  /// Closes `flow`'s open burst, if its slot holds one (`hash` must equal
  /// hash_tuple(flow)); every other open burst, including a different flow
  /// in the same slot, stays open.  A no-op when coalescing is disabled.
  /// What a one-flow query needs applied before it reads that flow.
  template <typename Sink>
  void flush_flow(const flowtable::FiveTuple& flow, std::uint64_t hash,
                  Sink&& sink) {
    if (table_.empty()) return;
    Entry& e = table_[hash & (kSlots - 1)];
    if (!e.open || e.burst.flow != flow) return;
    sink(e.burst);
    e.open = false;
    --open_;
  }

  /// Open bursts currently buffered (each awaiting a flush or a cap).
  [[nodiscard]] std::size_t open_bursts() const noexcept { return open_; }

  /// Packets that needed no DISCO update of their own (the update-count
  /// saving): k - 1 for each k-packet run, plus one for each run merged
  /// into an already-open burst.
  [[nodiscard]] std::uint64_t merged() const noexcept { return merged_; }

 private:
  struct Entry {
    flowtable::FlowBurst burst{};
    bool open = false;
  };

  std::vector<Entry> table_;  ///< kSlots entries, or none when disabled
  std::uint64_t merged_ = 0;
  std::size_t open_ = 0;
};

}  // namespace disco::pipeline
