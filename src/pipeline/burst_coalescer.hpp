// Burst pre-aggregation for the software pipeline -- the paper's Section VI
// optimisation ("accumulate a burst in a small exact on-chip counter, apply
// it as one discounted update") generalised from strictly consecutive
// packets to a small direct-mapped table of open bursts.
//
// Why a table and not just "previous packet": on a real link, packets of a
// burst interleave with packets of other flows (ACKs, competing flows on
// the same 5-tuple hash).  A direct-mapped table of `slots` open bursts
// still merges those interleaved runs, degrades gracefully to exact
// consecutive-merge at slots = 1, and keeps lookup O(1) with no probing:
// a slot collision simply closes the resident burst (one update) and opens
// the new one.  The paper reports ~2.5x fewer SRAM operations from this
// aggregation; here it means ~burst-length-fold fewer DISCO updates, and --
// by Theorem 2 -- *lower* estimation variance, because one large update
// replaces several small ones.
//
// Runs arrive merged: the pipeline's producers already add up each stretch
// of back-to-back same-flow packets of an ingest call into one run (bytes,
// packet count, newest timestamp), and add() takes a run.  A single packet
// is the one-packet run.  The table then merges runs of a flow that other
// flows interleave, or that two calls split.
//
// Caps: a burst closes once a merge brings it to `max_burst_packets` or
// `max_burst_bytes`.  A run merges whole, so the run that closes a burst
// can carry it past a cap: by less than that run when the burst was below
// the cap before, by at most the run otherwise.  The run that opens a
// burst is not checked (the producer already cut it at the caps), as a
// single packet never was.
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

#include <cstdint>
#include <utility>
#include <vector>

#include "flowtable/burst.hpp"
#include "flowtable/flow_key.hpp"

namespace disco::pipeline {

/// One merged run of same-flow packets, ready to be applied as a single
/// discounted volume update (bytes) and size update (packets).  The type
/// lives in flowtable (the layer that consumes it) so the monitor's batch
/// ingest API can name it without depending on the pipeline.
using BurstUpdate = flowtable::FlowBurst;

class BurstCoalescer {
 public:
  struct Config {
    /// Open-burst table size, rounded up to a power of two; 0 disables
    /// coalescing entirely (every packet becomes a one-packet burst).
    unsigned slots = 64;
    /// A burst is closed once it holds this many packets or bytes -- the
    /// software analogue of the paper's bounded scratch counter.  Bounds
    /// both staleness (how long a packet can sit unapplied) and the size of
    /// a single discounted update.
    std::uint64_t max_burst_packets = 256;
    std::uint64_t max_burst_bytes = std::uint64_t{1} << 20;
  };

  explicit BurstCoalescer(const Config& config)
      : max_packets_(config.max_burst_packets ? config.max_burst_packets : 1),
        max_bytes_(config.max_burst_bytes ? config.max_burst_bytes : 1) {
    if (config.slots > 0) {
      unsigned n = 1;
      while (n < config.slots) n <<= 1;
      table_.resize(n);
      mask_ = n - 1;
    }
  }

  /// Adds a run of `packets` (>= 1) packets of `flow` holding `bytes` bytes,
  /// the newest stamped `now_ns`; `hash` must equal hash_tuple(flow).
  /// Invokes `sink(const BurstUpdate&)` zero or more times: when the run's
  /// slot holds a different flow's burst (it is closed first) and/or when a
  /// merge brings the run's burst to a cap.  Deterministic: the emitted
  /// sequence is a pure function of the run sequence.
  template <typename Sink>
  void add(const flowtable::FiveTuple& flow, std::uint64_t hash,
           std::uint64_t bytes, std::uint64_t packets, std::uint64_t now_ns,
           Sink&& sink) {
    merged_ += packets - 1;  // the run's own packets after its first
    if (table_.empty()) {  // coalescing disabled: pass through
      sink(BurstUpdate{flow, bytes, packets, now_ns});
      return;
    }
    Entry& e = table_[hash & mask_];
    if (e.open) {
      if (e.burst.flow == flow) {
        e.burst.bytes += bytes;
        e.burst.packets += packets;
        e.burst.last_ns = now_ns;
        ++merged_;
        if (e.burst.packets >= max_packets_ || e.burst.bytes >= max_bytes_) {
          sink(e.burst);
          e.open = false;
          --open_;
        }
        return;
      }
      sink(e.burst);  // collision: close the resident burst
      --open_;
    }
    e.burst = BurstUpdate{flow, bytes, packets, now_ns};
    e.open = true;
    ++open_;
  }

  /// Adds one packet: the one-packet run.
  template <typename Sink>
  void add(const flowtable::FiveTuple& flow, std::uint32_t length,
           std::uint64_t now_ns, Sink&& sink) {
    add(flow, hash_tuple(flow), length, 1, now_ns, std::forward<Sink>(sink));
  }

  /// Same, with the tuple hash already in hand (must equal hash_tuple(flow)).
  template <typename Sink>
  void add(const flowtable::FiveTuple& flow, std::uint64_t hash,
           std::uint32_t length, std::uint64_t now_ns, Sink&& sink) {
    add(flow, hash, length, 1, now_ns, std::forward<Sink>(sink));
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
    Entry& e = table_[hash & mask_];
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

  /// The caps as applied (a configured 0 means 1).
  [[nodiscard]] std::uint64_t max_packets() const noexcept { return max_packets_; }
  [[nodiscard]] std::uint64_t max_bytes() const noexcept { return max_bytes_; }

 private:
  struct Entry {
    BurstUpdate burst{};
    bool open = false;
  };

  std::vector<Entry> table_;
  std::size_t mask_ = 0;
  std::uint64_t max_packets_;
  std::uint64_t max_bytes_;
  std::uint64_t merged_ = 0;
  std::size_t open_ = 0;
};

}  // namespace disco::pipeline
