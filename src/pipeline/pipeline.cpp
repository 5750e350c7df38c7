#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "flowtable/report_io.hpp"
#include "telemetry/registry.hpp"
#include "util/cpu_relax.hpp"
#include "util/fault.hpp"

namespace disco::pipeline {

namespace {

/// Packets a worker applies between two looks at its command ring (a
/// chunk holds at least one message, so one longer run is a chunk of its
/// own).  A control call waits for the rest of one chunk, not for the rest
/// of a pop of up to `pop_batch` messages: about 8 us of one-packet bursts.
/// Counting messages instead lets a chunk of producer runs hold hundreds of
/// packets, about one DISCO update per run, and about doubled the median
/// query on run-heavy traffic (EXPERIMENTS.md, "Runs at the producer").
constexpr std::size_t kCommandChunk = 64;

/// A sweep that pops fewer messages than this is thin: the worker is
/// keeping pace with its producers packet by packet.  Popping again at
/// once would pull the ring's index and slot lines away from a producer
/// that writes them on every push, so both sides would miss on every
/// packet; the worker waits kThinSweepPauses spin-loop hints first, which
/// touch no shared line (about 2 us where a hint takes ~23 ns, as on a
/// Sapphire Rapids Xeon).  Half the wait left a one-packet-per-call
/// producer about a fifth slower (EXPERIMENTS.md, "Ingest ablation").
constexpr std::size_t kThinSweep = 32;
constexpr unsigned kThinSweepPauses = 96;

/// The one wait of this file, for a producer on a full ring and for a
/// control call on its command: a short spin, then yield -- on an
/// oversubscribed host the worker needs the cpu more than the spinner does.
inline void backoff(unsigned& spins) noexcept {
  if (++spins < 16) return;
  std::this_thread::yield();
}

}  // namespace

// A synchronous control-plane call: a closure the owning worker runs between
// two chunks of its ring pops (apply_pop).  The caller owns the command --
// on its stack, or in on_all's vector -- pushes a pointer through the
// worker's command ring, and waits on `done`; the worker runs `run`, which
// applies the open bursts the answer needs and writes the answer into the
// caller's frame, then sets `done` with a release store.  That store is the
// worker's LAST access to the command: once the caller's acquire load sees
// it, the answer is visible and the caller may reuse or destroy the command
// at once (tests/test_modelcheck_command.cpp checks both halves).  Control
// calls are serialised by control_mutex_, so at most one command is in
// flight per worker.
struct PipelineMonitor::Command {
  std::function<void(Worker&)> run;
  /// Absorb every packet already queued before running (drain, stop).
  bool drain = false;
  util::atomic<bool> done{false};

  void wait() const {
    unsigned spins = 0;
    while (!done.load(std::memory_order_acquire)) backoff(spins);
  }
};

// One shard: a FlowMonitor owned exclusively by one thread, its input rings
// (one per producer), its command ring, and its coalescer.  Only the owning
// worker thread touches `monitor` and `coalescer` while the pipeline runs;
// after stop() the control plane inherits them (the join is the handover).
struct PipelineMonitor::Worker {
  Worker(const flowtable::FlowMonitor::Config& monitor_config, bool coalesce,
         unsigned producers, std::size_t ring_capacity)
      : monitor(monitor_config), coalescer(coalesce) {
    rings.reserve(producers);
    for (unsigned p = 0; p < producers; ++p) {
      rings.push_back(std::make_unique<SpscRing<Message>>(ring_capacity));
    }
  }

  /// Coalescer sink that appends each emitted burst to `bursts`.
  auto buffer() {
    return [this](const flowtable::FlowBurst& b) { bursts.push_back(b); };
  }

  /// Closes every open burst and applies them with one ingest_batch call.
  void flush_coalescer() {
    bursts.clear();
    coalescer.flush(buffer());
    (void)monitor.ingest_batch(bursts);
  }

  /// Closes and applies `flow`'s open burst only, if it has one.
  void flush_flow(const FiveTuple& flow) {
    bursts.clear();
    coalescer.flush_flow(flow, hash_tuple(flow), buffer());
    (void)monitor.ingest_batch(bursts);
  }

  flowtable::FlowMonitor monitor;
  BurstCoalescer coalescer;
  /// Scratch buffer: the bursts the coalescer emits for one chunk of a pop
  /// or one flush.  Every burst this worker applies goes through one
  /// monitor.ingest_batch() call over this buffer, in emission order.
  std::vector<flowtable::FlowBurst> bursts;
  /// Producers read this on every push, so it gets a cache line of its
  /// own, apart from `bursts` and `merged_reported`, which the worker
  /// writes on every burst.
  alignas(kCacheLine) std::vector<std::unique_ptr<SpscRing<Message>>> rings;
  /// Control calls: two slots, as control_mutex_ keeps one in flight.
  SpscRing<Command*> command_ring{2};
  alignas(kCacheLine) bool stop_requested = false;  ///< worker-thread-local exit flag
  std::uint64_t merged_reported = 0;   ///< coalescer.merged() already exported
  /// Scratch buffer for one ring pop (config.pop_batch messages).
  std::vector<Message> batch;

  /// Race-free mirror of coalescer.merged() for cross-thread reads.
  /// Relaxed store/load: a monotonic statistic read by coalesced(); readers
  /// need a recent value, not ordering against other memory.
  alignas(kCacheLine) util::atomic<std::uint64_t> merged_mirror{0};

  telemetry::Gauge* occupancy = nullptr;
  telemetry::LatencyHistogram* pop_batch = nullptr;
  telemetry::Counter* coalesced = nullptr;
  telemetry::Counter* commands = nullptr;
};

flowtable::FlowMonitor::Config PipelineMonitor::shard_config(
    const Config& config, unsigned worker) {
  flowtable::FlowMonitor::Config shard = config.base;
  // Per-shard share plus 25% headroom: hashing is not perfectly balanced,
  // and a shard rejecting flows while its siblings have room would be a
  // silent capacity loss.
  shard.max_flows = std::max<std::size_t>(
      16, (config.base.max_flows / config.workers) * 5 / 4);
  shard.seed = config.base.seed + 0x9e3779b97f4a7c15ULL * (worker + 1);
  shard.telemetry_prefix =
      config.telemetry_prefix + ".worker_" + std::to_string(worker);
  return shard;
}

PipelineMonitor::PipelineMonitor(const Config& config)
    : config_(config), producers_(config.producers) {
  if (config.workers == 0 || config.workers > 256) {
    throw std::invalid_argument("PipelineMonitor: workers must be in [1, 256]");
  }
  if (config.producers == 0 || config.producers > 256) {
    throw std::invalid_argument("PipelineMonitor: producers must be in [1, 256]");
  }
  auto& registry = telemetry::Registry::global();
  dropped_metric_ = &registry.counter(config.telemetry_prefix + ".dropped_total");
  blocked_metric_ = &registry.counter(config.telemetry_prefix + ".blocked_total");

  workers_.reserve(config.workers);
  for (unsigned w = 0; w < config.workers; ++w) {
    const auto shard = shard_config(config, w);
    workers_.push_back(std::make_unique<Worker>(shard, config.coalescer,
                                                producers_, config.ring_capacity));
    Worker& worker = *workers_.back();
    // One coalescer add() emits at most one burst, a chunk holds at most
    // pop_batch messages, and a flush emits at most one burst per slot, so
    // the worker never reallocates.
    worker.bursts.reserve(std::max(config.pop_batch, BurstCoalescer::kSlots));
    worker.batch.resize(config.pop_batch);
    const std::string& prefix = shard.telemetry_prefix;
    worker.occupancy = &registry.gauge(prefix + ".ring_occupancy");
    worker.pop_batch = &registry.histogram(prefix + ".pop_batch");
    worker.coalesced = &registry.counter(prefix + ".coalesced_total");
    worker.commands = &registry.counter(prefix + ".commands_total");
  }
  producer_stats_.reserve(producers_);
  for (unsigned p = 0; p < producers_; ++p) {
    producer_stats_.push_back(std::make_unique<ProducerStats>());
  }
  threads_.reserve(config.workers);
  for (unsigned w = 0; w < config.workers; ++w) {
    threads_.emplace_back([this, w] { worker_loop(*workers_[w]); });
  }
  running_ = true;
}

PipelineMonitor::~PipelineMonitor() { stop(); }

bool PipelineMonitor::ingest(unsigned producer, const FiveTuple& flow,
                             std::uint32_t length) {
  const PacketEvent packet{.flow = flow, .length = length};
  return ingest_batch(producer, &packet, 1) == 1;
}

std::size_t PipelineMonitor::ingest_batch(unsigned producer,
                                          const PacketEvent* packets,
                                          std::size_t n) {
  if (producer >= producers_) {
    throw std::invalid_argument("PipelineMonitor::ingest_batch: bad producer id");
  }
  if (n == 0) return 0;
  if (!accepting_.load(std::memory_order_acquire)) return 0;
  ProducerStats& stats = *producer_stats_[producer];
  const unsigned workers = static_cast<unsigned>(workers_.size());

  // A run: the packets from packets[i] on while they share its flow and
  // fit the burst caps (one packet with coalescing off).  Built in locals
  // and returned as one message, with `i` advanced past it.
  const std::uint32_t max_run =
      config_.coalescer ? BurstCoalescer::kMaxPackets : 1;
  const auto next_run = [&](std::size_t& i) {
    const PacketEvent& first = packets[i];
    std::uint64_t bytes = first.length;
    std::uint32_t count = 1;
    while (++i < n && count < max_run && packets[i].flow == first.flow &&
           bytes + packets[i].length <= BurstCoalescer::kMaxBytes) {
      bytes += packets[i].length;
      ++count;
    }
    return Message{first.flow, static_cast<std::uint32_t>(bytes), count,
                   hash_tuple(first.flow)};
  };

  // Phase 1 -- form the batch's runs up front and bucket them by owning
  // worker (high hash bits, as worker_of).  One hash per run serves
  // routing, the worker's coalescer slot and the flow table's probe: it
  // rides in the message, and the coalescer hands it on in every burst it
  // emits, so nothing downstream rehashes.  With one worker the bucket step
  // is skipped and runs are formed straight into the ring span.
  if (stats.buckets.size() != workers) stats.buckets.resize(workers);
  if (workers > 1) {
    for (auto& bucket : stats.buckets) bucket.clear();
    for (std::size_t i = 0; i < n;) {
      const Message msg = next_run(i);
      stats.buckets[(msg.hash >> 32) % workers].push_back(msg);
    }
  }

  // Phase 2 -- per worker, reserve a contiguous span of ring slots, write
  // the runs into it, and publish them with one release store.  With one
  // worker, `remaining` and `offset` count packets, a span is granted one
  // slot per remaining packet, and only the slots the runs fill are
  // committed; otherwise they count the bucket's runs.  Accepted and
  // dropped count packets either way.
  // Fault point (compiles to nothing without DISCO_FAULTS): kRingFull fails
  // a span's reservation as if the worker had fallen behind, exercising the
  // real Drop/Block backpressure paths.  The Block retry loop is
  // deliberately un-faulted, or an always-firing plan would spin the
  // producer forever.
  std::size_t accepted = 0;
  for (unsigned w = 0; w < workers; ++w) {
    const Message* bucket = nullptr;
    std::size_t remaining = 0;
    if (workers > 1) {
      bucket = stats.buckets[w].data();
      remaining = stats.buckets[w].size();
      if (remaining == 0) continue;
    } else {
      remaining = n;
    }
    SpscRing<Message>& ring = *workers_[w]->rings[producer];
    unsigned spins = 0;
    std::size_t offset = 0;
    while (remaining > 0) {
      std::size_t granted = remaining;
      // auto*: the span is util::shared<Message>* (== Message* in normal
      // builds; race-checked slots under DISCO_MODELCHECK).
      auto* slots = util::fault::fires(util::fault::Point::kRingFull)
                        ? nullptr
                        : ring.push_prepare(granted);
      if (slots == nullptr) {
        if (config_.backpressure == Backpressure::Drop) {
          std::size_t lost = remaining;
          if (bucket != nullptr) {
            lost = 0;
            for (std::size_t j = offset; j < offset + remaining; ++j) {
              lost += bucket[j].packets;
            }
          }
          stats.dropped.fetch_add(lost, std::memory_order_relaxed);
          dropped_metric_->inc(lost);
          break;
        }
        blocked_metric_->inc();
        do {
          if (!accepting_.load(std::memory_order_acquire)) return accepted;
          backoff(spins);
          granted = remaining;
        } while ((slots = ring.push_prepare(granted)) == nullptr);
      }
      std::size_t written = 0;
      std::size_t consumed = 0;
      if (bucket != nullptr) {
        for (; written < granted; ++written) {
          const Message& msg = bucket[offset + written];
          slots[written] = msg;
          accepted += msg.packets;
        }
        consumed = written;
      } else {
        std::size_t i = offset;
        while (written < granted && i < n) slots[written++] = next_run(i);
        consumed = i - offset;
        accepted += consumed;
      }
      ring.push_commit(written);
      offset += consumed;
      remaining -= consumed;
    }
  }
  return accepted;
}

std::size_t PipelineMonitor::apply_chunk(Worker& worker, const Message* batch,
                                         std::size_t n) {
  // Collect the coalescer's emissions for one chunk of a pop, then apply
  // them with one ingest_batch call, in emission order.
  worker.bursts.clear();
  auto buffer = worker.buffer();
  std::size_t i = 0;
  std::size_t packets = 0;
  do {
    // Messages carry the producer's hash: the coalescer reuses it instead
    // of rehashing the tuple per run.
    const Message& msg = batch[i];
    packets += msg.packets;
    worker.coalescer.add(msg.flow, msg.hash, msg.length, msg.packets, 0,
                         buffer);
  } while (++i < n && packets + batch[i].packets <= kCommandChunk);
  (void)worker.monitor.ingest_batch(worker.bursts);
  const std::uint64_t merged = worker.coalescer.merged();
  if (merged != worker.merged_reported) {
    worker.coalesced->inc(merged - worker.merged_reported);
    worker.merged_reported = merged;
    worker.merged_mirror.store(merged, std::memory_order_relaxed);
  }
  return i;
}

void PipelineMonitor::handle_command(Worker& worker, Command& command) {
  worker.commands->inc();
  // A draining command first absorbs everything already queued.  Which open
  // bursts to apply is the closure's choice: a query applies its own flow's
  // burst, on_all's calls every one.
  if (command.drain) {
    while (poll_rings(worker) > 0) {
    }
  }
  command.run(worker);
  // The last access to `command`: the caller may destroy it once it sees
  // the flag.
  command.done.store(true, std::memory_order_release);
}

PipelineMonitor::Command* PipelineMonitor::next_command(Worker& worker) {
  Command* command = nullptr;
  worker.command_ring.pop_batch(&command, 1);
  return command;
}

void PipelineMonitor::apply_pop(Worker& worker, std::size_t n) {
  const Message* batch = worker.batch.data();
  for (std::size_t applied = 0; applied < n;) {
    applied += apply_chunk(worker, batch + applied, n - applied);
    if (applied == n) break;
    // A command served here sees the rest of this pop as still queued.  A
    // draining one pops the rings into `worker.batch`, over that rest, so
    // the rest is applied first.
    Command* command = next_command(worker);
    if (command == nullptr) continue;
    if (command->drain) {
      while (applied < n) {
        applied += apply_chunk(worker, batch + applied, n - applied);
      }
    }
    handle_command(worker, *command);
  }
}

std::size_t PipelineMonitor::poll_rings(Worker& worker) {
  std::size_t popped = 0;
  std::size_t backlog = 0;
  for (unsigned p = 0; p < producers_; ++p) {
    SpscRing<Message>& ring = *worker.rings[p];
    const std::size_t n = ring.pop_batch(worker.batch.data(), worker.batch.size());
    if (n > 0) {
      popped += n;
      worker.pop_batch->record(n);
      apply_pop(worker, n);
      backlog += ring.size_approx();
    }
  }
  worker.occupancy->set(static_cast<std::int64_t>(backlog));
  return popped;
}

void PipelineMonitor::worker_loop(Worker& worker) {
  unsigned idle = 0;
  for (;;) {
    // Commands first: they are rare and latency-sensitive (a rotate must not
    // wait behind a deep packet backlog sweep).  A stop may also be served
    // inside a sweep, between two chunks of a pop.
    while (Command* command = next_command(worker)) {
      handle_command(worker, *command);
      if (worker.stop_requested) return;
    }
    const std::size_t popped = poll_rings(worker);
    if (worker.stop_requested) return;
    if (popped > 0) {
      idle = 0;
      if (popped < kThinSweep) {
        for (unsigned i = 0; i < kThinSweepPauses; ++i) util::cpu_relax();
      }
      continue;
    }
    // Idle: back off -- briefly spin (a packet may be nanoseconds away),
    // then yield so producers and sibling workers get the core.  Open bursts
    // are closed only after a sustained idle streak: flushing on every empty
    // sweep would defeat coalescing whenever the worker outpaces its
    // producers (it would see each packet alone).  Every control call first
    // applies the open bursts its answer reads -- a query its own flow's,
    // any other call all of them -- so answers count every applied packet.
    ++idle;
    if (idle == 64) worker.flush_coalescer();
    if (idle >= 16) std::this_thread::yield();
  }
}

void PipelineMonitor::post(unsigned w, Command& command) {
  Worker& worker = *workers_[w];
  if (!running_) {
    // Workers joined (stop() happened-before): safe to run inline.
    handle_command(worker, command);
    return;
  }
  unsigned spins = 0;
  while (!worker.command_ring.try_push(&command)) backoff(spins);
}

template <typename Fn>
auto PipelineMonitor::on_all(Fn fn, bool drain) {
  // A call with no answer still fills one slot per worker, so every call
  // takes the same path.  char, not bool: workers write their slots
  // concurrently, and vector<bool> packs them into shared words.  A call
  // that reads the whole shard applies every open burst first.
  auto call = [&fn](Worker& worker) {
    worker.flush_coalescer();
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&, Worker&>>) {
      fn(worker);
      return char{};
    } else {
      return fn(worker);
    }
  };
  std::vector<std::invoke_result_t<decltype(call)&, Worker&>> results(
      workers_.size());
  std::vector<Command> commands(workers_.size());
  for (unsigned w = 0; w < workers_.size(); ++w) {
    commands[w].run = [&call, &result = results[w]](Worker& worker) {
      result = call(worker);
    };
    commands[w].drain = drain;
  }
  // Post to every worker before waiting on any: the workers run the call
  // concurrently, so it costs the slowest shard, not the sum of them.
  for (unsigned w = 0; w < workers_.size(); ++w) post(w, commands[w]);
  for (unsigned w = 0; w < workers_.size(); ++w) commands[w].wait();
  return results;
}

void PipelineMonitor::subscribe(
    flowtable::FlowMonitor::EpochSubscriber subscriber) {
  if (!subscriber) return;
  const util::MutexLock lock(control_mutex_);
  subscribers_.push_back(std::move(subscriber));
}

PipelineMonitor::EpochReport PipelineMonitor::rotate() {
  const util::MutexLock lock(control_mutex_);
  std::vector<EpochReport> reports =
      on_all([](Worker& worker) { return worker.monitor.rotate(); });
  EpochReport merged = flowtable::fold_reports(reports);
  // Subscribers run on the rotating (control-plane) thread while ingest
  // continues on the workers; module work never stalls the packet path.
  for (const auto& subscriber : subscribers_) subscriber(merged);
  return merged;
}

PipelineMonitor::PressureStats PipelineMonitor::pressure() {
  const util::MutexLock lock(control_mutex_);
  PressureStats aggregate;
  for (const PressureStats& part :
       on_all([](Worker& worker) { return worker.monitor.pressure(); })) {
    aggregate += part;
  }
  return aggregate;
}

PipelineMonitor::Totals PipelineMonitor::totals() {
  const util::MutexLock lock(control_mutex_);
  Totals aggregate;
  for (const Totals& part :
       on_all([](Worker& worker) { return worker.monitor.totals(); })) {
    aggregate.bytes += part.bytes;
    aggregate.packets += part.packets;
    aggregate.flows += part.flows;
  }
  return aggregate;
}

std::optional<PipelineMonitor::FlowEstimate> PipelineMonitor::query(
    const FiveTuple& flow) {
  const util::MutexLock lock(control_mutex_);
  std::optional<FlowEstimate> estimate;
  Command command;
  command.run = [&](Worker& worker) {
    worker.flush_flow(flow);
    estimate = worker.monitor.query(flow);
  };
  post(worker_of(flow, worker_count()), command);
  command.wait();
  return estimate;
}

std::vector<PipelineMonitor::FlowEstimate> PipelineMonitor::top_k(std::size_t k) {
  const util::MutexLock lock(control_mutex_);
  std::vector<FlowEstimate> all;
  for (const auto& part :
       on_all([k](Worker& worker) { return worker.monitor.top_k(k); })) {
    all.insert(all.end(), part.begin(), part.end());
  }
  const std::size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(take),
                    all.end(), [](const FlowEstimate& a, const FlowEstimate& b) {
                      return a.bytes > b.bytes;
                    });
  all.resize(take);
  return all;
}

PipelineMonitor::MemoryReport PipelineMonitor::memory() {
  const util::MutexLock lock(control_mutex_);
  MemoryReport aggregate;
  for (const MemoryReport& part :
       on_all([](Worker& worker) { return worker.monitor.memory(); })) {
    aggregate.volume_counter_bits += part.volume_counter_bits;
    aggregate.size_counter_bits += part.size_counter_bits;
    aggregate.flow_table_bits += part.flow_table_bits;
  }
  return aggregate;
}

std::uint64_t PipelineMonitor::packets_seen() {
  const util::MutexLock lock(control_mutex_);
  std::uint64_t total = 0;
  for (const std::uint64_t part :
       on_all([](Worker& worker) { return worker.monitor.packets_seen(); })) {
    total += part;
  }
  return total;
}

void PipelineMonitor::drain() {
  const util::MutexLock lock(control_mutex_);
  on_all([](Worker&) {}, /*drain=*/true);
}

void PipelineMonitor::stop() {
  const util::MutexLock lock(control_mutex_);
  if (!running_) return;
  accepting_.store(false, std::memory_order_release);
  on_all([](Worker& worker) { worker.stop_requested = true; }, /*drain=*/true);
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
  running_ = false;
}

std::uint64_t PipelineMonitor::dropped() const noexcept {
  std::uint64_t total = 0;
  for (const auto& stats : producer_stats_) {
    total += stats->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t PipelineMonitor::coalesced() const noexcept {
  std::uint64_t total = 0;
  for (const auto& worker : workers_) {
    total += worker->merged_mirror.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace disco::pipeline
