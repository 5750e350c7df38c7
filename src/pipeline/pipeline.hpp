// PipelineMonitor -- the run-to-completion threaded ingest pipeline.
//
// This is the software realisation of the paper's Section VI IXP2850
// architecture (which src/sim/np_system.* only *simulates*): packets flow
// through bounded lock-free rings into worker threads, each of which is the
// EXCLUSIVE owner of one FlowMonitor shard.  Nothing on the packet path
// takes a mutex:
//
//   producer threads                     worker threads (one per shard)
//   ---------------                      -----------------------------
//   hash 5-tuple, route by        SPSC   pop a batch, coalesce bursts
//   high bits to the owning  --> rings -->  (Section VI pre-aggregation),
//   worker's ring                        apply DISCO updates to the shard
//
//   * Routing uses the hash's HIGH bits (the flow table probes with the low
//     bits), so shard choice and in-table placement stay decorrelated, and
//     a flow's estimates are identical to a single FlowMonitor fed that
//     shard's packet sequence.
//   * Rings are per (producer, worker) pair, so every ring has one writer
//     and one reader -- the SPSC invariant -- the same way NIC RSS gives
//     each (rx-queue, core) pair its own descriptor ring.
//   * Control-plane operations (rotate, totals, query, top-k, drain, stop,
//     ...) are closures over the worker's shard.  Each travels as an
//     in-band command message through a dedicated per-worker command ring
//     and runs ON the worker thread, between batches, so it never touches a
//     shard from outside -- the shard has exactly one thread, ever.  A
//     command pauses only its own worker while it runs; calls that visit
//     every worker post to all of them before waiting, so the shards serve
//     them (a rotate included) concurrently, and fold the answers in worker
//     order on the calling thread.
//   * Backpressure is explicit: a full ring either drops the packet
//     (`Backpressure::Drop`, counted) or spins the producer until space
//     frees (`Backpressure::Block`) -- the two policies of a real NIC queue.
//
// Epoch semantics: a rotate is applied per shard between batches, so packets
// in flight land in either the old or the new epoch of their shard -- the
// standard epoch-boundary trade of distributed monitors.  Every *accepted*
// packet is counted in exactly one epoch.  A caller that needs an exact cut
// (an offline replay, say) quiesces its producers and calls drain() before
// rotate(): with one producer and no coalescing, the merged reports are
// then deterministic.
//
// Telemetry (docs/telemetry.md): per-worker ring occupancy gauges and
// pop-batch histograms, coalesce/command counters, and producer-side
// drop/block counters, plus the usual FlowMonitor families under
// `pipeline.worker_<w>.*`.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "flowtable/monitor.hpp"
#include "pipeline/burst_coalescer.hpp"
#include "pipeline/packet_ring.hpp"
#include "telemetry/metrics.hpp"
#include "util/atomic.hpp"
#include "util/thread_annotations.hpp"

namespace disco::pipeline {

/// What a producer does when its target ring is full.
enum class Backpressure {
  Drop,   ///< drop the packet, count it, return false (measurement-grade)
  Block,  ///< spin-yield until the worker frees space (lossless)
};

class PipelineMonitor {
 public:
  using FiveTuple = flowtable::FiveTuple;
  using FlowEstimate = flowtable::FlowMonitor::FlowEstimate;
  using Totals = flowtable::FlowMonitor::Totals;
  using EpochReport = flowtable::FlowMonitor::EpochReport;
  using MemoryReport = flowtable::FlowMonitor::MemoryReport;
  using PressureStats = flowtable::PressureStats;

  struct Config {
    flowtable::FlowMonitor::Config base;  ///< deployment totals; capacity is split
    unsigned workers = 4;                 ///< shard-owning consumer threads
    unsigned producers = 1;               ///< registered ingest threads
    std::size_t ring_capacity = 1u << 14; ///< slots per (producer, worker) ring, power of two
    std::size_t pop_batch = 256;          ///< max messages popped per ring visit
    Backpressure backpressure = Backpressure::Block;
    BurstCoalescer::Config coalescer;     ///< .slots = 0 disables coalescing
    std::string telemetry_prefix = "pipeline";
  };

  explicit PipelineMonitor(const Config& config);

  /// Stops the workers (stop()) and joins them.
  ~PipelineMonitor();

  PipelineMonitor(const PipelineMonitor&) = delete;
  PipelineMonitor& operator=(const PipelineMonitor&) = delete;

  // --- data plane ------------------------------------------------------------

  /// Enqueues one packet from producer `producer`: a one-element
  /// ingest_batch (each producer id must be used by AT MOST one thread at a
  /// time -- it names an SPSC ring row).  Returns true when the packet was
  /// accepted into its worker's ring; false when it was dropped (Drop
  /// backpressure on a full ring, or the pipeline is stopping).
  /// Flow-table-full rejections happen later, on the worker, and are
  /// visible in `pipeline.worker_<w>.ingest_rejected_total`.
  bool ingest(unsigned producer, const FiveTuple& flow, std::uint32_t length,
              std::uint64_t now_ns = 0);

  /// One packet of the batched ingest path.
  struct PacketEvent {
    FiveTuple flow{};
    std::uint32_t length = 0;
    std::uint64_t now_ns = 0;
  };

  /// Enqueues `n` packets from producer `producer` and returns how many
  /// were accepted (all of them under Block backpressure unless the
  /// pipeline is stopping; possibly fewer under Drop, each miss counted in
  /// dropped()) -- the one producer-side ingest implementation.  The
  /// per-packet costs -- the accepting check, worker lookup, and above all
  /// the ring's release store -- are paid once per batch of same-worker
  /// packets: the producer hashes the whole batch up front, buckets it by
  /// owning worker, and writes each bucket straight into a reserved span of
  /// ring slots (SpscRing::push_prepare/push_commit).  The precomputed hash
  /// travels in the message, so the worker's coalescer does not rehash the
  /// tuple; the flow table does, once per coalesced burst
  /// (FlowMonitor::ingest_batch).  This is the producer half of the
  /// batched-prefetch ingest design (docs/architecture.md); a few hundred
  /// packets per call amortises best, e.g. one NIC rx-burst.
  std::size_t ingest_batch(unsigned producer, const PacketEvent* packets,
                           std::size_t n);

  // --- control plane (thread-safe; in-band, between a worker's batches) ----
  // All control-plane entry points serialise on control_mutex_ internally
  // (DISCO_EXCLUDES documents they are not reentrant from a context already
  // holding it -- e.g. from inside another control call on the same thread).

  /// Ends the epoch on every shard and merges the reports.  The rotate
  /// command goes to every worker before the caller waits on any, so the
  /// shards rotate concurrently, each on its own worker thread; the reports
  /// are then merged in worker order (flowtable::fold_reports).  Concurrent
  /// packets land in the old or new epoch of their shard.  A rotate pauses
  /// each worker for time proportional to the flows its shard saw this
  /// epoch, not its provisioned capacity.  Registered epoch subscribers
  /// observe the MERGED report exactly once per rotate, on the CALLING
  /// thread (not a worker), while control_mutex_ is held -- so module state
  /// needs no locking as long as exports happen on the control-plane thread
  /// too.
  EpochReport rotate() DISCO_EXCLUDES(control_mutex_);

  /// Subscribes a streaming consumer to merged epoch reports (see
  /// FlowMonitor::subscribe and docs/modules.md).  Serialises with the other
  /// control-plane calls; a subscriber must not call back into the
  /// pipeline's control plane from inside the callback.
  void subscribe(flowtable::FlowMonitor::EpochSubscriber subscriber)
      DISCO_EXCLUDES(control_mutex_);

  [[nodiscard]] Totals totals() DISCO_EXCLUDES(control_mutex_);
  /// The estimate for `flow`, from its owning worker alone.  It counts
  /// every packet of the flow the worker has popped: the worker first
  /// applies the flow's open coalescer burst, and only that one -- the
  /// other open bursts stay open, so a query costs its own lookup plus the
  /// wait for the worker to finish its current ring pop.  Packets still
  /// queued in the rings are not counted (drain() first for that).
  [[nodiscard]] std::optional<FlowEstimate> query(const FiveTuple& flow)
      DISCO_EXCLUDES(control_mutex_);
  [[nodiscard]] std::vector<FlowEstimate> top_k(std::size_t k)
      DISCO_EXCLUDES(control_mutex_);
  [[nodiscard]] MemoryReport memory() DISCO_EXCLUDES(control_mutex_);
  [[nodiscard]] std::uint64_t packets_seen() DISCO_EXCLUDES(control_mutex_);
  /// Degradation counters summed over the worker shards (in-band command,
  /// like totals(); see docs/robustness.md).  Ring-full drops are a separate
  /// signal -- dropped() -- because they happen before any shard sees the
  /// packet.
  [[nodiscard]] PressureStats pressure() DISCO_EXCLUDES(control_mutex_);
  std::vector<FlowEstimate> evict_idle(std::uint64_t now_ns,
                                       std::uint64_t idle_timeout_ns)
      DISCO_EXCLUDES(control_mutex_);

  /// Blocks until every packet enqueued BEFORE this call has been applied
  /// and all open bursts are flushed.  The caller must have quiesced the
  /// producers (no concurrent ingest), or drain may chase a moving target.
  /// Like every control call, the caller waits by polling the command's
  /// completion flag (spin, then yield), not by sleeping.
  void drain() DISCO_EXCLUDES(control_mutex_);

  /// Drains and joins the worker threads.  Idempotent.  After stop(), the
  /// control-plane queries above run directly on the (now thread-less)
  /// shards, so post-mortem inspection needs no workers.  Concurrent
  /// ingest() calls fail-fast with false once stop() begins.
  void stop() DISCO_EXCLUDES(control_mutex_);

  // --- introspection ---------------------------------------------------------

  [[nodiscard]] unsigned worker_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }
  [[nodiscard]] unsigned producer_count() const noexcept { return producers_; }

  /// Packets dropped at full rings (Drop backpressure), summed over
  /// producers.  Always counted, independent of telemetry.
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  /// Packets merged into an open burst by the coalescers (the DISCO-update
  /// saving), summed over workers.  Stable only while quiesced or stopped.
  [[nodiscard]] std::uint64_t coalesced() const noexcept;

  /// The worker/shard that owns `flow`: top 32 hash bits modulo `workers`
  /// (the flow table consumes the low bits).
  [[nodiscard]] static unsigned worker_of(const FiveTuple& flow,
                                          unsigned workers) noexcept {
    return static_cast<unsigned>((hash_tuple(flow) >> 32) % workers);
  }

  /// The exact FlowMonitor configuration worker `worker` runs: the
  /// deployment's capacity split per shard, a per-shard seed, and the
  /// `<telemetry_prefix>.worker_<w>` metric prefix.  Exposed so tests can
  /// build a reference monitor and assert estimate parity.
  [[nodiscard]] static flowtable::FlowMonitor::Config shard_config(
      const Config& config, unsigned worker);

 private:
  /// One slot of every ring: a packet, or (command rings only) a borrowed
  /// pointer to a synchronous command the worker runs and signals.  Which
  /// union member is live is decided by the ring, not the message: packet
  /// rings carry `hash` (the producer already hashed the tuple to route it,
  /// and the worker's coalescer reuses it instead of rehashing; the flow
  /// table hashes each burst again), the command ring carries `command`.
  struct Command;
  struct Message {
    FiveTuple flow{};
    std::uint32_t length = 0;
    std::uint64_t now_ns = 0;
    union {
      Command* command = nullptr;
      std::uint64_t hash;
    };
  };

  struct Worker;

  void worker_loop(Worker& worker);
  /// Pops one batch from each of `worker`'s producer rings and applies it;
  /// returns whether any ring had packets.  The worker loop's sweep, and
  /// how a draining command absorbs the backlog.
  bool poll_rings(Worker& worker);
  void process_batch(Worker& worker, const Message* batch, std::size_t n);
  void handle_command(Worker& worker, Command& command);
  /// Pushes `command` onto worker `w`'s command ring without waiting; once
  /// the workers are stopped, runs it inline instead.  Either way the
  /// caller then waits on the command.
  void post(unsigned w, Command& command) DISCO_REQUIRES(control_mutex_);
  /// Runs `fn(worker)` on every worker and returns the results in worker
  /// order.  Posts to every worker before waiting on any, so the shards
  /// serve the call concurrently.  `drain` first absorbs every packet
  /// already queued.  Every control call that visits all workers goes
  /// through here.
  template <typename Fn>
  auto on_all(Fn fn, bool drain = false) DISCO_REQUIRES(control_mutex_);

  Config config_;
  unsigned producers_ = 1;

  struct ProducerStats {
    /// Bumped with relaxed fetch_add and read with relaxed loads: a pure
    /// statistic, never used to order other memory.
    alignas(kCacheLine) util::atomic<std::uint64_t> dropped{0};
    /// ingest_batch staging: one bucket of routed messages per worker.
    /// Touched only by the (single) thread driving this producer id, like
    /// the producer side of the rings themselves.
    std::vector<std::vector<Message>> buckets;
  };

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<ProducerStats>> producer_stats_;

  /// Serialises control-plane operations (one in-flight command set).
  util::Mutex control_mutex_;
  /// Flips off at stop().  release store / acquire loads: producers that
  /// observe `false` must also observe every control-plane write that
  /// preceded the flip, so none enqueues into a ring being drained down.
  util::atomic<bool> accepting_{true};
  bool running_ DISCO_GUARDED_BY(control_mutex_) = false;  ///< workers alive
  std::vector<std::thread> threads_ DISCO_GUARDED_BY(control_mutex_);
  std::vector<flowtable::FlowMonitor::EpochSubscriber> subscribers_
      DISCO_GUARDED_BY(control_mutex_);

  telemetry::Counter* dropped_metric_ = nullptr;
  telemetry::Counter* blocked_metric_ = nullptr;
};

}  // namespace disco::pipeline
