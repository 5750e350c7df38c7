#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "collect/collector.hpp"
#include "core/disco.hpp"
#include "flowtable/flow_table.hpp"
#include "flowtable/report_io.hpp"
#include "modules/host.hpp"
#include "pipeline/burst_coalescer.hpp"
#include "pipeline/packet_ring.hpp"
#include "stages.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using disco::flowtable::FlowBurst;
using disco::flowtable::FlowMonitor;
using disco::pipeline::PipelineMonitor;

/// What a pipeline ring slot carries: the packet and its routing hash.
struct Message {
  FiveTuple flow{};
  std::uint32_t length = 0;
  std::uint64_t now_ns = 0;
  std::uint64_t hash = 0;
};

/// One worker's share of the replay: its ring, coalescer and shard, plus the
/// scratch table and counter array the probe / decide / add rows time alone.
struct Shard {
  Shard(const FlowMonitor::Config& shard, const PipelineMonitor::Config& config)
      : ring(config.ring_capacity),
        coalescer(config.coalescer),
        monitor(shard),
        table(shard.max_flows),
        counters(shard.max_flows, shard.counter_bits, shard.max_flow_bytes),
        rng(shard.seed) {
    counters.attach_decision_table();  // as the monitors' counter banks do
  }
  disco::pipeline::SpscRing<Message> ring;
  disco::pipeline::BurstCoalescer coalescer;
  FlowMonitor monitor;
  disco::flowtable::FlowTable table;
  disco::core::DiscoArray counters;
  disco::util::Rng rng;
  std::vector<Message> bucket;
  std::vector<Message> popped;
  std::vector<FlowBurst> bursts;
  std::vector<std::uint32_t> slots;
};

struct Export {
  disco::collect::Collector collector{
      disco::collect::CollectorConfig{.telemetry_prefix = "perfbench.replay.collector"}};
  disco::modules::ModuleHost host{"perfbench.replay.modules"};
};

class Replay {
 public:
  Replay(const Trace& trace, const Scale& scale)
      : trace_(trace), config_(pipeline_config(scale)) {
    for (unsigned w = 0; w < config_.workers; ++w) {
      FlowMonitor::Config shard = PipelineMonitor::shard_config(config_, w);
      shard.telemetry_prefix = "perfbench.replay.worker_" + std::to_string(w);
      shards_.push_back(std::make_unique<Shard>(shard, config_));
      shards_.back()->popped.resize(config_.pop_batch);
    }
    for (auto& module : disco::modules::make_modules("all")) {
      export_.host.attach(std::move(module));
    }
    // Module dispatch through a benchmark callback, so it gets its own span
    // inside collect.ingest.
    export_.collector.subscribe([this](const EpochReport& merged) {
      const Scope span(*tracer_, "modules.on_epoch", merged.flows.size());
      export_.host.on_epoch(merged);
    });
  }

  /// One pass over the trace.  A normal pass records the worker-order
  /// layers in `tracer`; a scratch pass (`scratch` set) records only the
  /// scratch probe / add / decide rows there, leaves the shards untouched,
  /// and so keeps the scratch instances out of the other rows' caches.
  void epoch(Tracer& tracer, std::uint32_t epoch, bool scratch, ReplayResult& result) {
    Tracer off(false);
    tracer_ = scratch ? &off : &tracer;
    scratch_ = scratch ? &tracer : nullptr;
    const std::size_t n = trace_.packets.size();
    const std::size_t rx = kRxBurst;
    const unsigned workers = config_.workers;
    std::vector<std::uint64_t> hashes(rx);
    tracer.set_id(epoch, kEpochLevel);
    result.root = tracer.open(scratch ? "replay.scratch" : "replay.epoch", n);
    for (std::size_t offset = 0, b = 0; offset < n; offset += rx, ++b) {
      const std::size_t len = std::min(rx, n - offset);
      const PacketEvent* packets = &trace_.packets[offset];
      tracer.set_id(epoch, static_cast<std::uint32_t>(b));
      {
        const Scope span(*tracer_, "flowtable.hash", len);
        for (std::size_t i = 0; i < len; ++i) {
          hashes[i] = disco::flowtable::hash_tuple(packets[i].flow);
        }
      }
      {
        // Producer: bucket by owning worker (worker_of's routing: the top 32
        // hash bits), then publish each bucket with one span reservation.
        const Scope span(*tracer_, "pipeline.ring_push", len);
        for (auto& shard : shards_) shard->bucket.clear();
        for (std::size_t i = 0; i < len; ++i) {
          shards_[(hashes[i] >> 32) % workers]->bucket.push_back(
              Message{packets[i].flow, packets[i].length, packets[i].now_ns, hashes[i]});
        }
        for (auto& shard : shards_) push(*shard);
      }
      for (auto& shard : shards_) work(*shard, result);
    }
    tracer.set_id(epoch, kEpochLevel);
    for (unsigned w = 0; w < workers; ++w) close(*shards_[w], w, result);
    tracer.close(result.root);
    tracer_ = nullptr;
    scratch_ = nullptr;
  }

  void finish(ReplayResult& result) {
    for (const auto& shard : shards_) {
      result.lookups += shard->monitor.table().total_lookups();
      result.rejected_flows += shard->monitor.table().rejected_flows();
      result.probe_len += shard->table.mean_probe_length() /
                          static_cast<double>(shards_.size());
    }
  }

 private:
  static void push(Shard& shard) {
    std::size_t done = 0;
    while (done < shard.bucket.size()) {
      std::size_t granted = shard.bucket.size() - done;
      auto* slots = shard.ring.push_prepare(granted);
      if (slots == nullptr) break;  // cannot happen: the ring is drained every rx-burst
      std::copy(shard.bucket.begin() + static_cast<std::ptrdiff_t>(done),
                shard.bucket.begin() + static_cast<std::ptrdiff_t>(done + granted), slots);
      shard.ring.push_commit(granted);
      done += granted;
    }
  }

  /// The worker loop body for whatever the ring holds: pop, coalesce,
  /// ingest -- then the scratch rows over the same bursts.
  void work(Shard& shard, ReplayResult& result) {
    Tracer& tracer = *tracer_;
    for (;;) {
      std::size_t got = 0;
      {
        Scope span(tracer, "pipeline.ring_pop");
        got = shard.ring.pop_batch(shard.popped.data(), shard.popped.size());
        span.set_items(got);
      }
      if (got == 0) return;
      shard.bursts.clear();
      {
        const Scope span(tracer, "pipeline.coalesce", got);
        for (std::size_t i = 0; i < got; ++i) {
          const Message& m = shard.popped[i];
          shard.coalescer.add(m.flow, m.hash, m.length, m.now_ns,
                              [&shard](const FlowBurst& burst) { shard.bursts.push_back(burst); });
        }
      }
      apply(shard, result);
    }
  }

  void apply(Shard& shard, ReplayResult& result) {
    const std::size_t bursts = shard.bursts.size();
    if (bursts == 0) return;
    if (scratch_ == nullptr) {
      result.bursts += bursts;
      const Scope span(*tracer_, "flowtable.ingest_batch", bursts);
      (void)shard.monitor.ingest_batch(shard.bursts);
      return;
    }
    Tracer& tracer = *scratch_;
    shard.slots.clear();
    {
      const Scope span(tracer, "flowtable.probe", bursts);
      for (const FlowBurst& burst : shard.bursts) {
        const auto slot = shard.table.insert_or_get(burst.flow);
        shard.slots.push_back(slot ? *slot : kNoSlot);
      }
    }
    {
      const Scope span(tracer, "core.update", bursts);
      for (std::size_t i = 0; i < bursts; ++i) {
        if (shard.slots[i] == kNoSlot) continue;
        shard.counters.add(shard.slots[i], shard.bursts[i].bytes, shard.rng);
      }
    }
    // After the adds, so the counter words are cache-warm and the row
    // times the decision itself rather than the counter fetch.
    const disco::core::DiscoParams& params = shard.counters.params();
    {
      const Scope span(tracer, "core.decide", bursts);
      double sum = 0.0;
      for (std::size_t i = 0; i < bursts; ++i) {
        if (shard.slots[i] == kNoSlot) continue;
        const auto d = params.decide(shard.counters.value(shard.slots[i]),
                                     shard.bursts[i].bytes);
        sum += static_cast<double>(d.delta) + d.p_d;
      }
      keep(sum);
    }
  }

  void close(Shard& shard, unsigned w, ReplayResult& result) {
    Tracer& tracer = *tracer_;
    shard.bursts.clear();
    {
      const Scope span(tracer, "pipeline.coalesce");
      shard.coalescer.flush([&shard](const FlowBurst& burst) { shard.bursts.push_back(burst); });
    }
    apply(shard, result);
    if (scratch_ != nullptr) return;
    EpochReport report;
    {
      const Scope span(tracer, "flowtable.rotate", 1);
      report = shard.monitor.rotate();
    }
    const std::uint64_t records = report.flows.size();
    std::stringstream wire;
    {
      const Scope span(tracer, "flowtable.drpt_encode", records);
      disco::flowtable::write_report(wire, report, w);
    }
    result.wire_bytes += static_cast<std::uint64_t>(wire.tellp());
    result.records += records;
    std::optional<disco::flowtable::ReportReader::Item> item;
    {
      const Scope span(tracer, "flowtable.drpt_decode", records);
      disco::flowtable::ReportReader reader(wire);
      item = reader.next();
    }
    const std::size_t tracked = export_.collector.tracked_flows();
    auto outcome = disco::collect::Collector::IngestResult::Duplicate;
    if (item) {
      const Scope span(tracer, "collect.ingest", records);
      outcome = export_.collector.ingest(*item);
    }
    result.fused += records - (export_.collector.tracked_flows() - tracked);
    if (outcome != disco::collect::Collector::IngestResult::Accepted) {
      ++result.rejected_reports;
    }
    {
      const Scope span(tracer, "collect.top_k", 1);
      (void)export_.collector.top_k(100);
    }
  }


  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  const Trace& trace_;
  PipelineMonitor::Config config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  Export export_;
  Tracer* tracer_ = nullptr;   ///< worker-order layer spans
  Tracer* scratch_ = nullptr;  ///< scratch rows; set only in the scratch pass
};

}  // namespace

ReplayResult run_replay(const Trace& trace, const Scale& scale, Tracer& tracer) {
  Replay replay(trace, scale);
  ReplayResult warmup;
  Tracer off(false);
  replay.epoch(off, 0, false, warmup);
  ReplayResult result;
  replay.epoch(tracer, 1, false, result);
  result.packets = trace.packets.size();
  replay.epoch(tracer, 2, true, warmup);
  replay.finish(result);
  return result;
}

}  // namespace perfbench
