// Tests for the lock-free threaded ingest pipeline (src/pipeline): the SPSC
// ring, the burst coalescer, and PipelineMonitor -- including the estimate
// parity proof against a single FlowMonitor and the coalescer unbiasedness
// check against the Theorem 2 variance bound.
#include "pipeline/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/disco.hpp"
#include "core/theory.hpp"
#include "pipeline/burst_coalescer.hpp"
#include "pipeline/packet_ring.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace disco::pipeline {
namespace {

using flowtable::FiveTuple;
using flowtable::FlowMonitor;

FiveTuple tuple(std::uint32_t i) {
  return FiveTuple{0x0a000000u + i * 131, 0xc0a80101u,
                   static_cast<std::uint16_t>(1024 + (i % 50000)), 443, 6};
}

PipelineMonitor::Config pipeline_config(unsigned workers, unsigned producers) {
  PipelineMonitor::Config c;
  c.base.max_flows = 4096;
  c.base.counter_bits = 12;
  c.base.max_flow_bytes = 1 << 26;
  c.base.max_flow_packets = 1 << 18;
  c.base.seed = 20100621;
  c.workers = workers;
  c.producers = producers;
  c.ring_capacity = 1u << 12;
  return c;
}

// --- SpscRing ---------------------------------------------------------------

TEST(SpscRing, RejectsBadCapacity) {
  EXPECT_THROW(SpscRing<int>(0), std::invalid_argument);
  EXPECT_THROW(SpscRing<int>(1), std::invalid_argument);
  EXPECT_THROW(SpscRing<int>(100), std::invalid_argument);  // not a power of two
}

TEST(SpscRing, FifoWithWraparound) {
  SpscRing<int> ring(8);
  int out[8];
  int next_in = 0, next_out = 0;
  // Push/pop more than the capacity so the indices wrap several times.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.try_push(next_in++));
    std::size_t n = ring.pop_batch(out, 3);
    ASSERT_EQ(n, 3u);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], next_out++);
    n = ring.pop_batch(out, 8);
    ASSERT_EQ(n, 2u);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], next_out++);
  }
  EXPECT_EQ(ring.pop_batch(out, 8), 0u);
}

TEST(SpscRing, FullRingRejectsUntilPopped) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));
  EXPECT_EQ(ring.size_approx(), 4u);
  int out[4];
  ASSERT_EQ(ring.pop_batch(out, 1), 1u);
  EXPECT_EQ(out[0], 0);
  EXPECT_TRUE(ring.try_push(4));
  EXPECT_FALSE(ring.try_push(5));
}

TEST(SpscRing, TwoThreadStress) {
  // One producer, one consumer, every value delivered exactly once in order.
  SpscRing<std::uint64_t> ring(1u << 10);
  constexpr std::uint64_t kCount = 200000;
  std::thread consumer([&] {
    std::uint64_t expected = 0;
    std::uint64_t out[64];
    while (expected < kCount) {
      const std::size_t n = ring.pop_batch(out, 64);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], expected);
        ++expected;
      }
      if (n == 0) std::this_thread::yield();
    }
  });
  for (std::uint64_t v = 0; v < kCount; ++v) {
    while (!ring.try_push(v)) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_TRUE(ring.empty_approx());
}

// --- BurstCoalescer ---------------------------------------------------------

std::vector<BurstUpdate> collect_flush(BurstCoalescer& c) {
  std::vector<BurstUpdate> out;
  c.flush([&](const BurstUpdate& b) { out.push_back(b); });
  return out;
}

TEST(BurstCoalescer, MergesConsecutiveSameFlowPackets) {
  BurstCoalescer c({.slots = 16});
  std::vector<BurstUpdate> emitted;
  auto sink = [&](const BurstUpdate& b) { emitted.push_back(b); };
  for (int i = 0; i < 5; ++i) c.add(tuple(1), 100, 10 + i, sink);
  EXPECT_TRUE(emitted.empty());  // the burst is still open
  EXPECT_EQ(c.open_bursts(), 1u);
  EXPECT_EQ(c.merged(), 4u);
  const auto flushed = collect_flush(c);
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].flow, tuple(1));
  EXPECT_EQ(flushed[0].bytes, 500u);
  EXPECT_EQ(flushed[0].packets, 5u);
  EXPECT_EQ(flushed[0].last_ns, 14u);
  EXPECT_EQ(c.open_bursts(), 0u);
}

TEST(BurstCoalescer, InterleavedFlowsMergeIndependently) {
  BurstCoalescer c({.slots = 64});
  std::vector<BurstUpdate> emitted;
  auto sink = [&](const BurstUpdate& b) { emitted.push_back(b); };
  // a b a b a b -- with a table, both runs coalesce despite interleaving.
  for (int i = 0; i < 3; ++i) {
    c.add(tuple(1), 100, 0, sink);
    c.add(tuple(2), 200, 0, sink);
  }
  // Distinct flows may still collide in the small table; merged() tells us
  // how much survived.  With 64 slots and 2 flows a collision is unlikely
  // but hash-dependent, so assert on conservation instead of exact layout.
  const auto flushed = collect_flush(c);
  std::uint64_t bytes = 0, packets = 0;
  for (const auto& b : emitted) { bytes += b.bytes; packets += b.packets; }
  for (const auto& b : flushed) { bytes += b.bytes; packets += b.packets; }
  EXPECT_EQ(bytes, 3u * 100 + 3u * 200);
  EXPECT_EQ(packets, 6u);
}

TEST(BurstCoalescer, CapsCloseTheBurst) {
  BurstCoalescer c({.slots = 4, .max_burst_packets = 3});
  std::vector<BurstUpdate> emitted;
  auto sink = [&](const BurstUpdate& b) { emitted.push_back(b); };
  for (int i = 0; i < 7; ++i) c.add(tuple(9), 10, 0, sink);
  ASSERT_EQ(emitted.size(), 2u);  // closed at 3 packets, twice
  EXPECT_EQ(emitted[0].packets, 3u);
  EXPECT_EQ(emitted[1].packets, 3u);
  const auto flushed = collect_flush(c);
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].packets, 1u);
}

TEST(BurstCoalescer, ByteCapClosesTheBurst) {
  BurstCoalescer c({.slots = 4, .max_burst_bytes = 1000});
  std::vector<BurstUpdate> emitted;
  auto sink = [&](const BurstUpdate& b) { emitted.push_back(b); };
  c.add(tuple(9), 600, 0, sink);
  EXPECT_TRUE(emitted.empty());
  c.add(tuple(9), 600, 0, sink);  // 1200 >= 1000: closed
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].bytes, 1200u);
}

TEST(BurstCoalescer, ZeroSlotsPassesThrough) {
  BurstCoalescer c({.slots = 0});
  std::vector<BurstUpdate> emitted;
  auto sink = [&](const BurstUpdate& b) { emitted.push_back(b); };
  for (int i = 0; i < 4; ++i) c.add(tuple(1), 100, i, sink);
  ASSERT_EQ(emitted.size(), 4u);
  for (const auto& b : emitted) {
    EXPECT_EQ(b.packets, 1u);
    EXPECT_EQ(b.bytes, 100u);
  }
  EXPECT_EQ(c.merged(), 0u);
  EXPECT_TRUE(collect_flush(c).empty());
}

// flush_flow, what a one-flow query applies: only the named flow's open
// burst, once, and only when its slot really holds that flow.
TEST(BurstCoalescer, FlushFlowEmitsOnlyThatFlow) {
  constexpr unsigned kSlots = 16;
  const auto slot = [](const FiveTuple& f) {
    return flowtable::hash_tuple(f) & (kSlots - 1);
  };
  // a and b open bursts in different slots; c shares a's slot.
  const FiveTuple a = tuple(1);
  std::uint32_t i = 2;
  while (slot(tuple(i)) == slot(a)) ++i;
  const FiveTuple b = tuple(i);
  i = 2;
  while (slot(tuple(i)) != slot(a)) ++i;
  const FiveTuple c = tuple(i);

  BurstCoalescer coalescer({.slots = kSlots});
  std::vector<BurstUpdate> emitted;
  auto sink = [&](const BurstUpdate& u) { emitted.push_back(u); };
  for (int n = 0; n < 3; ++n) coalescer.add(a, 100, n, sink);
  for (int n = 0; n < 2; ++n) coalescer.add(b, 200, n, sink);
  ASSERT_TRUE(emitted.empty());
  ASSERT_EQ(coalescer.open_bursts(), 2u);

  coalescer.flush_flow(c, flowtable::hash_tuple(c), sink);  // a's slot
  EXPECT_TRUE(emitted.empty());
  coalescer.flush_flow(a, flowtable::hash_tuple(a), sink);
  coalescer.flush_flow(a, flowtable::hash_tuple(a), sink);  // already closed
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].flow, a);
  EXPECT_EQ(emitted[0].packets, 3u);
  EXPECT_EQ(emitted[0].bytes, 300u);
  EXPECT_EQ(coalescer.open_bursts(), 1u);
  const auto rest = collect_flush(coalescer);  // b stayed open
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].flow, b);
  EXPECT_EQ(rest[0].packets, 2u);

  BurstCoalescer off({.slots = 0});
  emitted.clear();
  off.add(a, 100, 0, sink);
  ASSERT_EQ(emitted.size(), 1u);  // passed straight through
  off.flush_flow(a, flowtable::hash_tuple(a), sink);
  EXPECT_EQ(emitted.size(), 1u);
}

TEST(BurstCoalescer, DeterministicAcrossRuns) {
  // Same packet sequence => same emitted burst sequence, twice.
  util::Rng rng(7);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> packets;
  for (int i = 0; i < 2000; ++i) {
    packets.emplace_back(static_cast<std::uint32_t>(rng.uniform_u64(0, 31)),
                         static_cast<std::uint32_t>(rng.uniform_u64(64, 1500)));
  }
  auto run = [&packets] {
    BurstCoalescer c({.slots = 8, .max_burst_packets = 16});
    std::vector<BurstUpdate> emitted;
    auto sink = [&](const BurstUpdate& b) { emitted.push_back(b); };
    for (const auto& [f, len] : packets) c.add(tuple(f), len, 0, sink);
    c.flush(sink);
    return emitted;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].flow, b[i].flow);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].packets, b[i].packets);
  }
}

// The acceptance property for coalesced counting: grouping packets into
// bursts keeps DISCO's estimate unbiased, with per-flow relative error
// governed by Theorem 2.  >= 1000 trials (one independent flow each); the
// mean relative error must sit within the CV bound scaled for the sample
// size (4.5 sigma of the sample mean -- comfortably deterministic with a
// fixed seed, impossible if coalescing introduced bias).
TEST(BurstCoalescer, CoalescedUpdatesStayUnbiased) {
  constexpr int kTrials = 1200;
  constexpr int kPacketsPerTrial = 300;
  const int bits = 12;
  const std::uint64_t max_flow = 1 << 26;
  const core::DiscoParams params = core::DiscoParams::for_budget(max_flow, bits);
  util::Rng traffic_rng(42);
  util::Rng counter_rng(43);

  double sum_rel_err = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    BurstCoalescer coalescer({.slots = 8, .max_burst_packets = 32});
    std::uint64_t counter = 0;
    std::uint64_t truth = 0;
    auto sink = [&](const BurstUpdate& b) {
      counter = params.update(counter, b.bytes, counter_rng);
    };
    for (int i = 0; i < kPacketsPerTrial; ++i) {
      const auto len =
          static_cast<std::uint32_t>(traffic_rng.uniform_u64(40, 1500));
      truth += len;
      coalescer.add(tuple(static_cast<std::uint32_t>(trial)), len, 0, sink);
    }
    coalescer.flush(sink);
    sum_rel_err += (params.estimate(counter) - static_cast<double>(truth)) /
                   static_cast<double>(truth);
  }
  const double mean_rel_err = sum_rel_err / kTrials;
  // Theorem 2 / Corollary 1: per-trial relative error has std <= cv_bound(b);
  // the mean of kTrials independent trials concentrates by sqrt(kTrials).
  const double cv = core::theory::cv_bound(params.b());
  EXPECT_LT(std::abs(mean_rel_err), 4.5 * cv / std::sqrt(kTrials))
      << "mean relative error " << mean_rel_err << " vs cv bound " << cv;
}

// --- PipelineMonitor --------------------------------------------------------

TEST(PipelineMonitor, RejectsBadConfig) {
  auto c = pipeline_config(1, 1);
  c.workers = 0;
  EXPECT_THROW(PipelineMonitor{c}, std::invalid_argument);
  c = pipeline_config(1, 1);
  c.producers = 0;
  EXPECT_THROW(PipelineMonitor{c}, std::invalid_argument);
  c = pipeline_config(1, 1);
  c.ring_capacity = 100;  // not a power of two
  EXPECT_THROW(PipelineMonitor{c}, std::invalid_argument);
  c = pipeline_config(1, 1);
  c.pop_batch = 0;
  EXPECT_THROW(PipelineMonitor{c}, std::invalid_argument);
}

// The tentpole acceptance test: with coalescing off, the pipeline (after
// drain) returns, flow for flow, the BIT-EXACT estimates of single
// FlowMonitors fed the same per-shard packet sequences, and every control
// call answers with the worker-order fold of those shards' answers.  The
// pipeline adds concurrency, not approximation.
TEST(PipelineMonitor, EstimateParityWithFlowMonitor) {
  auto config = pipeline_config(4, 1);
  config.coalescer.slots = 0;  // per-packet updates, deterministic RNG stream
  // Hot flows (about 770 KB each) outgrow their volume counters, so
  // pressure() has saturations to fold.
  config.base.max_flow_bytes = 1 << 18;

  // One deterministic trace, some flows hot, some cold, one packet per ns.
  util::Rng rng(99);
  std::vector<PipelineMonitor::PacketEvent> trace;
  trace.reserve(20000);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const auto f = static_cast<std::uint32_t>(rng.uniform_u64(0, 199));
    const auto hot = static_cast<std::uint32_t>(rng.uniform_u64(0, 9));
    trace.push_back({tuple(rng.bernoulli(0.5) ? hot : f),
                     static_cast<std::uint32_t>(rng.uniform_u64(40, 1500)),
                     i + 1});
  }

  // Reference: one FlowMonitor per shard, fed that shard's subsequence.
  std::vector<FlowMonitor> reference;
  reference.reserve(config.workers);
  for (unsigned w = 0; w < config.workers; ++w) {
    reference.emplace_back(PipelineMonitor::shard_config(config, w));
  }
  PipelineMonitor pipeline(config);
  const auto replay = [&] {
    for (const auto& pkt : trace) {
      ASSERT_TRUE(reference[PipelineMonitor::worker_of(pkt.flow, config.workers)]
                      .ingest(pkt.flow, pkt.length, pkt.now_ns));
      ASSERT_TRUE(pipeline.ingest(0, pkt.flow, pkt.length, pkt.now_ns));
    }
  };

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto expect_same_flows =
      [&](const std::vector<FlowMonitor::FlowEstimate>& actual,
          const std::vector<FlowMonitor::FlowEstimate>& expected) {
        ASSERT_EQ(actual.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
          ASSERT_EQ(actual[i].flow, expected[i].flow) << "record " << i;
          ASSERT_EQ(bits(actual[i].bytes), bits(expected[i].bytes))
              << "record " << i;
          ASSERT_EQ(bits(actual[i].packets), bits(expected[i].packets))
              << "record " << i;
        }
      };
  // Every read-only control call against the reference shards' answers,
  // folded in worker order (sums bit-equal, in that order).
  const auto expect_read_only_parity = [&](const char* where) {
    SCOPED_TRACE(where);
    constexpr std::size_t kTop = 15;
    FlowMonitor::Totals totals;
    FlowMonitor::MemoryReport memory;
    flowtable::PressureStats pressure;
    std::uint64_t packets_seen = 0;
    std::vector<FlowMonitor::FlowEstimate> top;
    for (const FlowMonitor& shard : reference) {
      const FlowMonitor::Totals t = shard.totals();
      totals.bytes += t.bytes;
      totals.packets += t.packets;
      totals.flows += t.flows;
      const FlowMonitor::MemoryReport m = shard.memory();
      memory.volume_counter_bits += m.volume_counter_bits;
      memory.size_counter_bits += m.size_counter_bits;
      memory.flow_table_bits += m.flow_table_bits;
      pressure += shard.pressure();
      packets_seen += shard.packets_seen();
      const auto part = shard.top_k(kTop);
      top.insert(top.end(), part.begin(), part.end());
    }
    std::partial_sort(top.begin(), top.begin() + kTop, top.end(),
                      [](const FlowMonitor::FlowEstimate& a,
                         const FlowMonitor::FlowEstimate& b) {
                        return a.bytes > b.bytes;
                      });
    top.resize(kTop);

    const FlowMonitor::Totals actual_totals = pipeline.totals();
    EXPECT_EQ(bits(actual_totals.bytes), bits(totals.bytes));
    EXPECT_EQ(bits(actual_totals.packets), bits(totals.packets));
    EXPECT_EQ(actual_totals.flows, totals.flows);
    const FlowMonitor::MemoryReport actual_memory = pipeline.memory();
    EXPECT_EQ(actual_memory.volume_counter_bits, memory.volume_counter_bits);
    EXPECT_EQ(actual_memory.size_counter_bits, memory.size_counter_bits);
    EXPECT_EQ(actual_memory.flow_table_bits, memory.flow_table_bits);
    const flowtable::PressureStats actual_pressure = pipeline.pressure();
    EXPECT_GT(pressure.counters_saturated, 0u);
    EXPECT_EQ(actual_pressure.flows_rejected, pressure.flows_rejected);
    EXPECT_EQ(actual_pressure.flows_evicted, pressure.flows_evicted);
    EXPECT_EQ(actual_pressure.counters_saturated, pressure.counters_saturated);
    EXPECT_EQ(actual_pressure.rescale_events, pressure.rescale_events);
    EXPECT_EQ(pipeline.packets_seen(), packets_seen);
    expect_same_flows(pipeline.top_k(kTop), top);
    for (std::uint32_t f = 0; f < 200; ++f) {
      const auto expected =
          reference[PipelineMonitor::worker_of(tuple(f), config.workers)]
              .query(tuple(f));
      const auto actual = pipeline.query(tuple(f));
      ASSERT_EQ(expected.has_value(), actual.has_value()) << "flow " << f;
      if (expected) {
        EXPECT_EQ(bits(expected->bytes), bits(actual->bytes)) << "flow " << f;
        EXPECT_EQ(bits(expected->packets), bits(actual->packets))
            << "flow " << f;
      }
    }
  };

  replay();
  pipeline.drain();
  EXPECT_EQ(pipeline.packets_seen(), 20000u);
  expect_read_only_parity("after drain");

  // The calls that mutate state come last.  evict_idle: cold flows last
  // seen more than 400 ns before the end of the trace go, hot flows stay.
  std::vector<FlowMonitor::FlowEstimate> evicted;
  for (auto& shard : reference) {
    const auto part = shard.evict_idle(20001, 400);
    evicted.insert(evicted.end(), part.begin(), part.end());
  }
  EXPECT_GT(evicted.size(), 0u);
  EXPECT_LT(evicted.size(), 200u);
  expect_same_flows(pipeline.evict_idle(20001, 400), evicted);

  // Two epochs, the trace replayed between them: each merged report is the
  // reference shards' rotate() reports concatenated in worker order, bit
  // for bit, with totals summed in that order -- although the shards now
  // rotate concurrently.
  for (std::uint64_t epoch = 0; epoch < 2; ++epoch) {
    if (epoch == 1) {
      replay();
      pipeline.drain();
    }
    const FlowMonitor::EpochReport merged = pipeline.rotate();
    std::vector<FlowMonitor::FlowEstimate> flows;
    FlowMonitor::Totals totals;
    for (auto& shard : reference) {
      const FlowMonitor::EpochReport report = shard.rotate();
      flows.insert(flows.end(), report.flows.begin(), report.flows.end());
      totals.bytes += report.totals.bytes;
      totals.packets += report.totals.packets;
      totals.flows += report.totals.flows;
    }
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    EXPECT_EQ(merged.epoch, epoch);
    expect_same_flows(merged.flows, flows);
    EXPECT_EQ(bits(merged.totals.bytes), bits(totals.bytes));
    EXPECT_EQ(bits(merged.totals.packets), bits(totals.packets));
    EXPECT_EQ(merged.totals.flows, totals.flows);
  }

  // stop() drains a last replay and joins the workers; the same calls then
  // run inline on the shards.
  replay();
  pipeline.stop();
  expect_read_only_parity("after stop");
}

// The batched producer path (hash up front, bucket by worker, write spans
// of ring slots, one release store per span) must be invisible to the
// measurement: flow for flow, bit-exact against the per-packet ingest()
// path.  Multiple workers so the bucketing step actually routes.
TEST(PipelineMonitor, BatchedIngestMatchesPerPacketIngest) {
  auto config = pipeline_config(4, 1);
  config.coalescer.slots = 0;  // deterministic per-packet RNG stream
  config.telemetry_prefix = "pipeline_batched_a";

  util::Rng rng(4242);
  std::vector<PipelineMonitor::PacketEvent> trace;
  trace.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const auto f = static_cast<std::uint32_t>(rng.uniform_u64(0, 199));
    trace.push_back({tuple(f),
                     static_cast<std::uint32_t>(rng.uniform_u64(40, 1500)), 0});
  }

  PipelineMonitor per_packet(config);
  for (const auto& pkt : trace) {
    ASSERT_TRUE(per_packet.ingest(0, pkt.flow, pkt.length));
  }
  per_packet.drain();

  config.telemetry_prefix = "pipeline_batched_b";
  PipelineMonitor batched(config);
  // Uneven chunk sizes so span grants hit ring wrap points at odd offsets.
  std::size_t off = 0;
  std::size_t chunk = 1;
  while (off < trace.size()) {
    const std::size_t n = std::min(chunk, trace.size() - off);
    ASSERT_EQ(batched.ingest_batch(0, trace.data() + off, n), n);
    off += n;
    chunk = (chunk * 7 + 3) % 509 + 1;
  }
  batched.drain();

  EXPECT_EQ(batched.packets_seen(), per_packet.packets_seen());
  for (std::uint32_t f = 0; f < 200; ++f) {
    const auto expected = per_packet.query(tuple(f));
    const auto actual = batched.query(tuple(f));
    ASSERT_EQ(expected.has_value(), actual.has_value()) << "flow " << f;
    if (expected) {
      EXPECT_DOUBLE_EQ(expected->bytes, actual->bytes) << "flow " << f;
      EXPECT_DOUBLE_EQ(expected->packets, actual->packets) << "flow " << f;
    }
  }
  EXPECT_THROW((void)batched.ingest_batch(99, trace.data(), 1),
               std::invalid_argument);
}

// The precomputed-hash overload the pipeline feeds (BurstCoalescer::add
// with hash_tuple already in hand) must emit exactly what the hashing
// overload emits.
TEST(BurstCoalescer, ExplicitHashOverloadMatchesImplicit) {
  BurstCoalescer a({.slots = 16});
  BurstCoalescer b({.slots = 16});
  std::vector<BurstUpdate> ea, eb;
  util::Rng rng(777);
  for (int i = 0; i < 5000; ++i) {
    const auto f = tuple(static_cast<std::uint32_t>(rng.uniform_u64(0, 39)));
    const auto len = static_cast<std::uint32_t>(rng.uniform_u64(64, 1500));
    a.add(f, len, i, [&](const BurstUpdate& u) { ea.push_back(u); });
    b.add(f, flowtable::hash_tuple(f), len, i,
          [&](const BurstUpdate& u) { eb.push_back(u); });
  }
  a.flush([&](const BurstUpdate& u) { ea.push_back(u); });
  b.flush([&](const BurstUpdate& u) { eb.push_back(u); });
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].flow, eb[i].flow);
    EXPECT_EQ(ea[i].bytes, eb[i].bytes);
    EXPECT_EQ(ea[i].packets, eb[i].packets);
  }
  EXPECT_EQ(a.merged(), b.merged());
}

TEST(PipelineMonitor, CoalescedPipelineTracksTruth) {
  // With coalescing ON the estimates are not bit-identical to the per-packet
  // path (different update grouping), but they must stay unbiased: totals
  // land near the exact truth, and the coalescer must have merged something
  // on this bursty input.
  auto config = pipeline_config(2, 1);
  config.coalescer.slots = 64;
  PipelineMonitor pipeline(config);

  util::Rng rng(1234);
  std::uint64_t truth_bytes = 0;
  std::uint64_t packets = 0;
  for (int burst = 0; burst < 4000; ++burst) {
    const auto f = static_cast<std::uint32_t>(rng.uniform_u64(0, 63));
    const auto burst_len = 1 + rng.uniform_u64(0, 7);
    for (std::uint64_t i = 0; i < burst_len; ++i) {
      const auto len = static_cast<std::uint32_t>(rng.uniform_u64(64, 1500));
      ASSERT_TRUE(pipeline.ingest(0, tuple(f), len));
      truth_bytes += len;
      ++packets;
    }
  }
  pipeline.drain();
  EXPECT_EQ(pipeline.packets_seen(), packets);
  EXPECT_GT(pipeline.coalesced(), packets / 4);  // bursts really merged
  const auto totals = pipeline.totals();
  EXPECT_EQ(totals.flows, 64u);
  EXPECT_NEAR(totals.bytes, static_cast<double>(truth_bytes),
              static_cast<double>(truth_bytes) * 0.05);
  EXPECT_NEAR(totals.packets, static_cast<double>(packets),
              static_cast<double>(packets) * 0.05);
}

// A query applies its own flow's open coalescer burst before the lookup, so
// it counts every packet of the flow the worker has popped.
TEST(PipelineMonitor, QueryAppliesItsOwnOpenBurst) {
  auto config = pipeline_config(1, 1);
  config.coalescer.slots = 64;
  PipelineMonitor pipeline(config);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(pipeline.ingest(0, tuple(3), 300));
  // Packets 2-5 merged into packet 1's burst: all five are popped and sit
  // in one open burst (until the worker's idle flush, which a query
  // arriving this soon usually beats).
  while (pipeline.coalesced() != 4) std::this_thread::yield();
  const auto estimate = pipeline.query(tuple(3));
  ASSERT_TRUE(estimate.has_value());
  // Bit for bit what the shard reports for those five packets as one burst.
  FlowMonitor reference(PipelineMonitor::shard_config(config, 0));
  const flowtable::FlowBurst burst{tuple(3), 1500, 5, 0};
  ASSERT_EQ(reference.ingest_batch({&burst, 1}), 1u);
  const auto expected = reference.query(tuple(3));
  ASSERT_TRUE(expected.has_value());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(estimate->packets),
            std::bit_cast<std::uint64_t>(expected->packets));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(estimate->bytes),
            std::bit_cast<std::uint64_t>(expected->bytes));
  EXPECT_NEAR(estimate->packets, 5.0, 1.0);
  pipeline.drain();
  EXPECT_EQ(pipeline.packets_seen(), 5u);
}

TEST(PipelineMonitor, RotateDuringConcurrentIngestLosesNothing) {
  // Producers ingest with Block backpressure while the control plane keeps
  // rotating: every accepted packet must land in exactly one epoch, and
  // cumulative packets_seen survives rotation.
  auto config = pipeline_config(2, 2);
  config.ring_capacity = 1u << 10;
  PipelineMonitor pipeline(config);

  constexpr int kPerProducer = 15000;
  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::thread> producers;
  for (unsigned p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      util::Rng rng(500 + p);
      std::uint64_t local = 0;
      for (int i = 0; i < kPerProducer; ++i) {
        const auto f = static_cast<std::uint32_t>(rng.uniform_u64(0, 127));
        if (pipeline.ingest(p, tuple(f), 400)) ++local;
      }
      accepted += local;
    });
  }

  double reported_packets = 0.0;
  std::uint64_t epochs_seen = 0;
  for (int r = 0; r < 5; ++r) {
    const auto report = pipeline.rotate();
    reported_packets += report.totals.packets;
    epochs_seen += 1;
    std::this_thread::yield();
  }
  for (auto& t : producers) t.join();
  pipeline.drain();
  const auto final_report = pipeline.rotate();
  reported_packets += final_report.totals.packets;

  EXPECT_EQ(accepted.load(), 2u * kPerProducer);  // Block never drops
  EXPECT_EQ(pipeline.packets_seen(), accepted.load());
  EXPECT_EQ(pipeline.totals().flows, 0u);  // everything rotated out
  // The per-epoch reports carry unbiased estimates; summed across epochs
  // they must reconstruct the accepted packet count closely.
  EXPECT_NEAR(reported_packets, static_cast<double>(accepted.load()),
              static_cast<double>(accepted.load()) * 0.05);
  EXPECT_EQ(epochs_seen, 5u);
}

TEST(PipelineMonitor, DropBackpressureCountsEveryLostPacket) {
  auto config = pipeline_config(1, 1);
  config.ring_capacity = 8;  // absurdly small: force drops
  config.backpressure = Backpressure::Drop;
  config.coalescer.slots = 0;
  PipelineMonitor pipeline(config);

  constexpr std::uint64_t kAttempted = 50000;
  std::uint64_t accepted = 0;
  for (std::uint64_t i = 0; i < kAttempted; ++i) {
    if (pipeline.ingest(0, tuple(static_cast<std::uint32_t>(i % 16)), 100)) {
      ++accepted;
    }
  }
  pipeline.drain();
  EXPECT_EQ(accepted + pipeline.dropped(), kAttempted);
  EXPECT_EQ(pipeline.packets_seen(), accepted);
  EXPECT_GT(accepted, 0u);
}

TEST(PipelineMonitor, QueriesRunConcurrentlyWithIngest) {
  auto config = pipeline_config(2, 1);
  PipelineMonitor pipeline(config);
  std::atomic<bool> stop{false};

  std::thread querier([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)pipeline.totals();
      (void)pipeline.top_k(5);
      (void)pipeline.query(tuple(1));
      (void)pipeline.memory();
    }
  });
  util::Rng rng(77);
  for (int i = 0; i < 30000; ++i) {
    const auto f = static_cast<std::uint32_t>(rng.uniform_u64(0, 31));
    ASSERT_TRUE(pipeline.ingest(0, tuple(f), 256));
  }
  pipeline.drain();
  stop.store(true);
  querier.join();

  EXPECT_EQ(pipeline.packets_seen(), 30000u);
  EXPECT_EQ(pipeline.totals().flows, 32u);
  const auto top = pipeline.top_k(3);
  EXPECT_EQ(top.size(), 3u);
}

TEST(PipelineMonitor, TopKMergesAcrossWorkers) {
  auto config = pipeline_config(4, 1);
  config.coalescer.slots = 0;  // one update per packet: deterministic estimates
  PipelineMonitor pipeline(config);
  // Volumes grow quadratically across 8 flows owned by several workers, so
  // the global top-k has to be merged from more than one shard.
  std::set<unsigned> owners;
  for (std::uint32_t f = 0; f < 8; ++f) {
    owners.insert(PipelineMonitor::worker_of(tuple(f), config.workers));
    for (std::uint32_t i = 0; i < (f + 1) * (f + 1) * 20; ++i) {
      ASSERT_TRUE(pipeline.ingest(0, tuple(f), 500));
    }
  }
  ASSERT_GT(owners.size(), 1u);
  pipeline.drain();
  const auto top = pipeline.top_k(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].flow, tuple(7));
  EXPECT_GE(top[0].bytes, top[1].bytes);
  EXPECT_GE(top[1].bytes, top[2].bytes);
}

TEST(PipelineMonitor, MemoryAggregatesAcrossWorkers) {
  PipelineMonitor pipeline(pipeline_config(8, 1));
  const auto m = pipeline.memory();
  EXPECT_GT(m.volume_counter_bits, 0u);
  EXPECT_EQ(m.volume_counter_bits, m.size_counter_bits);
}

TEST(PipelineMonitor, StopIsIdempotentAndAllowsPostMortemQueries) {
  auto config = pipeline_config(2, 1);
  PipelineMonitor pipeline(config);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(pipeline.ingest(0, tuple(static_cast<std::uint32_t>(i % 8)), 512));
  }
  pipeline.stop();
  pipeline.stop();  // idempotent
  EXPECT_FALSE(pipeline.ingest(0, tuple(1), 64));  // fail-fast after stop
  // Control plane now runs inline on the joined shards.
  EXPECT_EQ(pipeline.packets_seen(), 1000u);
  EXPECT_EQ(pipeline.totals().flows, 8u);
  EXPECT_TRUE(pipeline.query(tuple(1)).has_value());
  const auto report = pipeline.rotate();
  EXPECT_EQ(report.totals.flows, 8u);
}

TEST(PipelineMonitor, EvictIdleRemovesStaleFlows) {
  auto config = pipeline_config(2, 1);
  PipelineMonitor pipeline(config);
  ASSERT_TRUE(pipeline.ingest(0, tuple(1), 500, 1'000));
  ASSERT_TRUE(pipeline.ingest(0, tuple(2), 500, 900'000));
  pipeline.drain();
  const auto evicted = pipeline.evict_idle(1'000'000, 100'000);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].flow, tuple(1));
  EXPECT_FALSE(pipeline.query(tuple(1)).has_value());
  EXPECT_TRUE(pipeline.query(tuple(2)).has_value());
}

}  // namespace
}  // namespace disco::pipeline
