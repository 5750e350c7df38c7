#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "flowtable/report_io.hpp"
#include "telemetry/registry.hpp"
#include "util/fault.hpp"

namespace disco::pipeline {

namespace {

/// The one wait of this file, for a producer on a full ring and for a
/// control call on its command: a short spin, then yield -- on an
/// oversubscribed host the worker needs the cpu more than the spinner does.
inline void backoff(unsigned& spins) noexcept {
  if (++spins < 16) return;
  std::this_thread::yield();
}

}  // namespace

// A synchronous control-plane call: a closure the owning worker runs between
// two of its batches.  The caller owns the command -- on its stack, or in
// on_all's vector -- pushes a pointer through the worker's command ring, and
// waits on `done`; the worker runs `run`, which applies the open bursts the
// answer needs and writes the answer into the caller's frame, then sets
// `done` with a release store.  That store is the worker's LAST access to
// the command: once the caller's acquire load sees it, the answer is visible
// and the caller may reuse or destroy the command at once
// (tests/test_modelcheck_command.cpp checks both halves).  Control calls are
// serialised by control_mutex_, so at most one command is in flight per
// worker.
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
// (one per producer plus the command ring at index `producers`), and its
// coalescer.  Only the owning worker thread touches `monitor` and
// `coalescer` while the pipeline runs; after stop() the control plane
// inherits them (the join is the handover).
struct PipelineMonitor::Worker {
  Worker(const flowtable::FlowMonitor::Config& monitor_config,
         const BurstCoalescer::Config& coalescer_config, unsigned producers,
         std::size_t ring_capacity)
      : monitor(monitor_config), coalescer(coalescer_config) {
    rings.reserve(producers + 1);
    for (unsigned p = 0; p <= producers; ++p) {
      rings.push_back(std::make_unique<SpscRing<Message>>(ring_capacity));
    }
  }

  /// Coalescer sink that appends each emitted burst to `bursts`.
  auto buffer() {
    return [this](const BurstUpdate& burst) { bursts.push_back(burst); };
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
  /// Scratch buffer: the bursts the coalescer emits for one popped batch or
  /// one flush.  Every burst this worker applies goes through one
  /// monitor.ingest_batch() call over this buffer, in emission order.
  std::vector<flowtable::FlowBurst> bursts;
  /// Producers read this on every push, so it gets a cache line of its
  /// own, apart from `bursts` and `merged_reported`, which the worker
  /// writes on every burst.
  alignas(kCacheLine) std::vector<std::unique_ptr<SpscRing<Message>>> rings;
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
  if (config.pop_batch == 0) {
    throw std::invalid_argument("PipelineMonitor: pop_batch must be >= 1");
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
    // One coalescer add() emits at most two bursts (collision close + cap
    // close), and a flush at most one per slot (slots round up to under
    // twice the configured count), so the worker never reallocates.
    worker.bursts.reserve(std::max<std::size_t>(
        config.pop_batch * 2, 2 * std::size_t{config.coalescer.slots}));
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
                             std::uint32_t length, std::uint64_t now_ns) {
  const PacketEvent packet{flow, length, now_ns};
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

  // Phase 1 -- hash the whole batch up front and bucket by owning worker
  // (high hash bits, as worker_of).  One hash serves routing and the
  // worker's coalescer slot: it rides in the message so the coalescer does
  // not rehash.  The flow table still hashes every burst the coalescer
  // emits (FlowMonitor::ingest_batch; a FlowBurst carries no hash).  With
  // one worker the bucket step is skipped and messages are built straight
  // into the ring span.
  if (stats.buckets.size() != workers) stats.buckets.resize(workers);
  if (workers > 1) {
    for (auto& bucket : stats.buckets) bucket.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t hash = hash_tuple(packets[i].flow);
      Message msg{packets[i].flow, packets[i].length,
                  util::fault::skew_clock(packets[i].now_ns), {}};
      msg.hash = hash;
      stats.buckets[(hash >> 32) % workers].push_back(msg);
    }
  }

  // Phase 2 -- per worker, reserve a contiguous span of ring slots, write
  // the bucket into it, and publish the whole span with one release store.
  // Fault points (compile to nothing without DISCO_FAULTS): kClockSkew
  // perturbs the timestamps feeding burst-boundary decisions downstream;
  // kRingFull fails a span's reservation as if the worker had fallen
  // behind, exercising the real Drop/Block backpressure paths.  The Block
  // retry loop is deliberately un-faulted, or an always-firing plan would
  // spin the producer forever.
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
          stats.dropped.fetch_add(remaining, std::memory_order_relaxed);
          dropped_metric_->inc(remaining);
          break;
        }
        blocked_metric_->inc();
        do {
          if (!accepting_.load(std::memory_order_acquire)) return accepted;
          backoff(spins);
          granted = remaining;
        } while ((slots = ring.push_prepare(granted)) == nullptr);
      }
      if (bucket != nullptr) {
        std::copy(bucket + offset, bucket + offset + granted, slots);
      } else {
        for (std::size_t i = 0; i < granted; ++i) {
          const PacketEvent& pkt = packets[offset + i];
          Message msg{pkt.flow, pkt.length, util::fault::skew_clock(pkt.now_ns),
                      {}};
          msg.hash = hash_tuple(pkt.flow);
          slots[i] = msg;
        }
      }
      ring.push_commit(granted);
      offset += granted;
      accepted += granted;
      remaining -= granted;
    }
  }
  return accepted;
}

void PipelineMonitor::process_batch(Worker& worker, const Message* batch,
                                    std::size_t n) {
  // Collect the coalescer's emissions for the whole popped batch, then apply
  // them with one ingest_batch call, in emission order.
  worker.bursts.clear();
  auto buffer = worker.buffer();
  for (std::size_t i = 0; i < n; ++i) {
    // Packet-ring messages carry the producer's hash (see Message): the
    // coalescer reuses it instead of rehashing the tuple per packet.
    worker.coalescer.add(batch[i].flow, batch[i].hash, batch[i].length,
                         batch[i].now_ns, buffer);
  }
  (void)worker.monitor.ingest_batch(worker.bursts);
  const std::uint64_t merged = worker.coalescer.merged();
  if (merged != worker.merged_reported) {
    worker.coalesced->inc(merged - worker.merged_reported);
    worker.merged_reported = merged;
    worker.merged_mirror.store(merged, std::memory_order_relaxed);
  }
}

void PipelineMonitor::handle_command(Worker& worker, Command& command) {
  worker.commands->inc();
  // A draining command first absorbs everything already queued.  Which open
  // bursts to apply is the closure's choice: a query applies its own flow's
  // burst, on_all's calls every one.
  if (command.drain) {
    while (poll_rings(worker)) {
    }
  }
  command.run(worker);
  // The last access to `command`: the caller may destroy it once it sees
  // the flag.
  command.done.store(true, std::memory_order_release);
}

bool PipelineMonitor::poll_rings(Worker& worker) {
  bool any = false;
  std::size_t backlog = 0;
  for (unsigned p = 0; p < producers_; ++p) {
    SpscRing<Message>& ring = *worker.rings[p];
    const std::size_t n = ring.pop_batch(worker.batch.data(), worker.batch.size());
    if (n > 0) {
      any = true;
      worker.pop_batch->record(n);
      process_batch(worker, worker.batch.data(), n);
      backlog += ring.size_approx();
    }
  }
  worker.occupancy->set(static_cast<std::int64_t>(backlog));
  return any;
}

void PipelineMonitor::worker_loop(Worker& worker) {
  SpscRing<Message>& command_ring = *worker.rings[producers_];
  unsigned idle = 0;
  for (;;) {
    // Commands first: they are rare and latency-sensitive (a rotate must not
    // wait behind a deep packet backlog sweep).
    Message command_msg;
    while (command_ring.pop_batch(&command_msg, 1) == 1) {
      handle_command(worker, *command_msg.command);
      if (worker.stop_requested) return;
    }
    if (poll_rings(worker)) {
      idle = 0;
      continue;
    }
    // Idle: back off -- briefly spin (a packet may be nanoseconds away),
    // then yield so producers and sibling workers get the core.  Open bursts
    // are closed only after a sustained idle streak: flushing on every empty
    // sweep would defeat coalescing whenever the worker outpaces its
    // producers (it would see each packet alone).  Every control call first
    // applies the open bursts its answer reads -- a query its own flow's,
    // any other call all of them -- so answers count every popped packet.
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
  Message msg;
  msg.command = &command;
  unsigned spins = 0;
  while (!worker.rings[producers_]->try_push(msg)) backoff(spins);
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

std::vector<PipelineMonitor::FlowEstimate> PipelineMonitor::evict_idle(
    std::uint64_t now_ns, std::uint64_t idle_timeout_ns) {
  const util::MutexLock lock(control_mutex_);
  std::vector<FlowEstimate> merged;
  for (const auto& part : on_all([now_ns, idle_timeout_ns](Worker& worker) {
         return worker.monitor.evict_idle(now_ns, idle_timeout_ns);
       })) {
    merged.insert(merged.end(), part.begin(), part.end());
  }
  return merged;
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
