#include "flowtable/sharded_monitor.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "flowtable/report_io.hpp"
#include "telemetry/registry.hpp"

namespace disco::flowtable {

ShardedFlowMonitor::ShardedFlowMonitor(const Config& config) {
  if (config.shards == 0 || config.shards > 1024) {
    throw std::invalid_argument("ShardedFlowMonitor: shards must be in [1, 1024]");
  }
  auto& registry = telemetry::Registry::global();
  shards_.reserve(config.shards);
  for (unsigned s = 0; s < config.shards; ++s) {
    FlowMonitor::Config shard_config = config.base;
    // Split capacity with 25% headroom per shard: hashing is not perfectly
    // balanced, and a shard rejecting flows while siblings have room would
    // be a silent capacity loss.
    shard_config.max_flows =
        std::max<std::size_t>(16, (config.base.max_flows / config.shards) * 5 / 4);
    shard_config.seed = config.base.seed + 0x9e3779b97f4a7c15ULL * (s + 1);
    shard_config.telemetry_prefix =
        "sharded_monitor.shard_" + std::to_string(s);
    shards_.push_back(std::make_unique<Shard>(shard_config));
    shards_.back()->ingests =
        &registry.counter(shard_config.telemetry_prefix + ".ingest_total");
    shards_.back()->contention = &registry.counter(
        shard_config.telemetry_prefix + ".lock_contention_total");
  }
}

bool ShardedFlowMonitor::ingest(const FiveTuple& flow, std::uint32_t length,
                                std::uint64_t now_ns) {
  Shard& shard = *shards_[shard_of(flow)];
  // try-lock-then-lock makes cross-thread contention countable without
  // slowing the uncontended path (one CAS either way).
  bool contended = false;
  const util::MutexLock lock(shard.mutex, contended);
  if (contended) shard.contention->inc();
  return shard.monitor.ingest(flow, length, now_ns);
}

std::uint64_t ShardedFlowMonitor::shard_ingests(unsigned shard) const {
  return shards_.at(shard)->ingests->value();
}

std::uint64_t ShardedFlowMonitor::lock_contentions() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->contention->value();
  return total;
}

std::optional<FlowMonitor::FlowEstimate> ShardedFlowMonitor::query(
    const FiveTuple& flow) const {
  const Shard& shard = *shards_[shard_of(flow)];
  const util::MutexLock lock(shard.mutex);
  return shard.monitor.query(flow);
}

FlowMonitor::Totals ShardedFlowMonitor::totals() const {
  FlowMonitor::Totals aggregate;
  for (const auto& shard : shards_) {
    const util::MutexLock lock(shard->mutex);
    const auto t = shard->monitor.totals();
    aggregate.bytes += t.bytes;
    aggregate.packets += t.packets;
    aggregate.flows += t.flows;
  }
  return aggregate;
}

std::vector<FlowMonitor::FlowEstimate> ShardedFlowMonitor::top_k(
    std::size_t k) const {
  std::vector<FlowMonitor::FlowEstimate> all;
  for (const auto& shard : shards_) {
    const util::MutexLock lock(shard->mutex);
    auto local = shard->monitor.top_k(k);
    all.insert(all.end(), local.begin(), local.end());
  }
  const std::size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(take),
                    all.end(),
                    [](const FlowMonitor::FlowEstimate& a,
                       const FlowMonitor::FlowEstimate& b) {
                      return a.bytes > b.bytes;
                    });
  all.resize(take);
  return all;
}

FlowMonitor::MemoryReport ShardedFlowMonitor::memory() const {
  FlowMonitor::MemoryReport aggregate;
  for (const auto& shard : shards_) {
    const util::MutexLock lock(shard->mutex);
    const auto m = shard->monitor.memory();
    aggregate.volume_counter_bits += m.volume_counter_bits;
    aggregate.size_counter_bits += m.size_counter_bits;
    aggregate.flow_table_bits += m.flow_table_bits;
  }
  return aggregate;
}

void ShardedFlowMonitor::subscribe(FlowMonitor::EpochSubscriber subscriber) {
  if (subscriber) subscribers_.push_back(std::move(subscriber));
}

FlowMonitor::EpochReport ShardedFlowMonitor::rotate() {
  std::vector<FlowMonitor::EpochReport> reports;
  reports.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const util::MutexLock lock(shard->mutex);
    reports.push_back(shard->monitor.rotate());
  }
  FlowMonitor::EpochReport merged = fold_reports(reports);
  // Subscribers run outside every shard lock: a module that queries this
  // monitor from its callback must not deadlock.
  for (const auto& subscriber : subscribers_) subscriber(merged);
  return merged;
}

PressureStats ShardedFlowMonitor::pressure() const {
  PressureStats aggregate;
  for (const auto& shard : shards_) {
    const util::MutexLock lock(shard->mutex);
    aggregate += shard->monitor.pressure();
  }
  return aggregate;
}

std::vector<FlowMonitor::FlowEstimate> ShardedFlowMonitor::evict_idle(
    std::uint64_t now_ns, std::uint64_t idle_timeout_ns) {
  std::vector<FlowMonitor::FlowEstimate> merged;
  for (const auto& shard : shards_) {
    const util::MutexLock lock(shard->mutex);
    auto evicted = shard->monitor.evict_idle(now_ns, idle_timeout_ns);
    merged.insert(merged.end(), evicted.begin(), evicted.end());
  }
  return merged;
}

std::uint64_t ShardedFlowMonitor::packets_seen() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    const util::MutexLock lock(shard->mutex);
    total += shard->monitor.packets_seen();
  }
  return total;
}

}  // namespace disco::flowtable
