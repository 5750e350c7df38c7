// Micro-benchmark: single-counter update throughput of every method, on an
// identical mixed-length packet stream.  Not a paper table -- this is the
// engineering view of the per-packet cost each scheme pays on a host CPU.
//
// Pass --telemetry to enable runtime telemetry and print the metric
// registry as JSON after the run (the monitor-path bench below populates
// ingest/eviction counters and the probe-length histogram).  Without
// the flag telemetry stays runtime-disabled, so the counter micro-loops
// measure the same hot path as a build without instrumentation.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench_common.hpp"
#include "core/additive.hpp"
#include "core/disco.hpp"
#include "core/disco_fixed.hpp"
#include "counters/anls.hpp"
#include "counters/sac.hpp"
#include "counters/sd.hpp"
#include "flowtable/flow_table.hpp"
#include "flowtable/monitor.hpp"
#include "pipeline/packet_ring.hpp"
#include "telemetry/metrics.hpp"
#include "trace/synthetic.hpp"
#include "util/log_table.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace {

constexpr std::uint64_t kMaxFlow = std::uint64_t{1} << 30;
constexpr int kBits = 12;

std::vector<std::uint32_t> packet_lengths() {
  std::vector<std::uint32_t> lens;
  disco::util::Rng rng(5);
  for (int i = 0; i < 4096; ++i) {
    lens.push_back(static_cast<std::uint32_t>(rng.uniform_u64(64, 1500)));
  }
  return lens;
}

void BM_DiscoDouble(benchmark::State& state) {
  const auto lens = packet_lengths();
  const disco::core::DiscoParams params(disco::util::choose_b(kMaxFlow, kBits));
  disco::util::Rng rng(1);
  std::uint64_t c = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    c = params.update(c, lens[i++ & 4095], rng);
    if (c > 3000) c = 0;  // stay in the operating range
    benchmark::DoNotOptimize(c);
  }
}

void BM_DiscoTable(benchmark::State& state) {
  // Same stream and loop as BM_DiscoDouble, with the precomputed
  // DecisionTable attached: update decisions are bit-identical, but j is
  // read from the table's float-bits index over cached doubles instead of
  // computed with log/exp/pow.
  const auto lens = packet_lengths();
  disco::core::DiscoParams params(disco::util::choose_b(kMaxFlow, kBits));
  params.attach_table((std::uint64_t{1} << kBits) - 1);
  disco::util::Rng rng(1);
  std::uint64_t c = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    c = params.update(c, lens[i++ & 4095], rng);
    if (c > 3000) c = 0;  // stay in the operating range
    benchmark::DoNotOptimize(c);
  }
}

/// What the counters of one perfbench flow table decide, in arrival order:
/// Zipf(1.1) flows capped at 256 packets with
/// TruncatedExponentialLength(700, 40, 1500) lengths (zipf_scenario), no
/// flow twice in a row, 12-bit counters provisioned as FlowMonitor's
/// defaults.  Each packet records the volume counter's value before it
/// with its length, and the size counter's value before it.
struct PerfbenchMix {
  disco::core::DiscoParams volume = disco::core::DiscoParams::for_budget(
      std::uint64_t{1} << 32, kBits);
  disco::core::DiscoParams size = disco::core::DiscoParams::for_budget(
      std::uint64_t{1} << 24, kBits);
  std::vector<std::uint16_t> volume_c;
  std::vector<std::uint16_t> length;
  std::vector<std::uint16_t> size_c;
};

const PerfbenchMix& perfbench_mix() {
  static const PerfbenchMix mix = [] {
    PerfbenchMix m;
    disco::util::Rng rng(1);
    auto flows = disco::trace::zipf_scenario(1.1, 256).make_flows(10'000, rng);
    std::vector<std::uint64_t> volume_c(flows.size(), 0);
    std::vector<std::uint64_t> size_c(flows.size(), 0);
    disco::trace::PacketStream stream(std::move(flows), 1, 1, 2);
    while (const auto p = stream.next()) {
      std::uint64_t& v = volume_c[p->flow_id];
      std::uint64_t& n = size_c[p->flow_id];
      m.volume_c.push_back(static_cast<std::uint16_t>(v));
      m.length.push_back(static_cast<std::uint16_t>(p->length));
      m.size_c.push_back(static_cast<std::uint16_t>(n));
      v = m.volume.update(v, p->length, rng);
      n = m.size.update(n, 1, rng);
    }
    m.volume.attach_table((std::uint64_t{1} << kBits) - 1);
    m.size.attach_table((std::uint64_t{1} << kBits) - 1);
    return m;
  }();
  return mix;
}

void BM_DiscoTableMix(benchmark::State& state) {
  // The volume decision on perfbench's (c, l) mix, replayed in arrival
  // order: about one in six lands within one step (l <= b^c), one in
  // twelve crosses 64 steps or more.
  const PerfbenchMix& mix = perfbench_mix();
  const std::size_t n = mix.length.size();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mix.volume.decide(mix.volume_c[i], mix.length[i]));
    if (++i == n) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_DiscoTableUnit(benchmark::State& state) {
  // The size counter's decision on the same traffic: every addend is 1.
  const PerfbenchMix& mix = perfbench_mix();
  const std::size_t n = mix.size_c.size();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mix.size.decide(mix.size_c[i], 1));
    if (++i == n) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_DiscoArrayBatch(benchmark::State& state) {
  // The ingest-shaped workload: one add per counter over 512 counters per
  // iteration, table attached -- what FlowMonitor::ingest_batch pays per
  // counter once flow-table lookup is excluded.
  constexpr std::size_t kBatch = 512;
  const auto lens = packet_lengths();
  disco::core::DiscoArray array(
      kBatch, kBits, disco::core::DiscoParams::for_budget(kMaxFlow, kBits));
  array.attach_decision_table();
  disco::util::Rng rng(1);
  std::size_t items = 0;
  for (auto _ : state) {
    for (std::size_t s = 0; s < kBatch; ++s) {
      array.add(s, lens[s & 4095], rng);
    }
    items += kBatch;
    benchmark::DoNotOptimize(array);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
}

void BM_DiscoFixedPoint(benchmark::State& state) {
  const auto lens = packet_lengths();
  disco::util::LogExpTable::Config config;
  config.b = disco::util::choose_b(kMaxFlow, kBits);
  const disco::util::LogExpTable table(config);
  const disco::core::FixedPointDisco logic(table);
  disco::util::Rng rng(1);
  std::uint64_t c = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    c = logic.update(c, lens[i++ & 4095], rng);
    if (c > 3000) c = 0;
    benchmark::DoNotOptimize(c);
  }
}

void BM_Sac(benchmark::State& state) {
  const auto lens = packet_lengths();
  disco::counters::SacArray sac(1, kBits);
  disco::util::Rng rng(1);
  std::size_t i = 0;
  for (auto _ : state) {
    sac.add(0, lens[i++ & 4095], rng);
    benchmark::DoNotOptimize(sac.estimation_part(0));
  }
}

void BM_AnlsII(benchmark::State& state) {
  const auto lens = packet_lengths();
  disco::counters::AnlsIICounter c(disco::util::choose_b(kMaxFlow, kBits));
  disco::util::Rng rng(1);
  std::size_t i = 0;
  for (auto _ : state) {
    c.add(lens[i++ & 4095], rng);
    benchmark::DoNotOptimize(c.value());
  }
}

void BM_SdExact(benchmark::State& state) {
  const auto lens = packet_lengths();
  disco::counters::SdArray sd(
      disco::counters::SdArray::Config{1024, 8, 10,
                                       disco::counters::SdArray::Cma::kLargestCounterFirst});
  disco::util::Rng rng(1);
  std::size_t i = 0;
  for (auto _ : state) {
    sd.add(i & 1023, lens[i & 4095]);
    ++i;
    benchmark::DoNotOptimize(sd.value(0));
  }
}

void BM_BurstAggregated(benchmark::State& state) {
  // DISCO behind a burst aggregator (8-packet bursts): the Section VI
  // fast path.
  const auto lens = packet_lengths();
  const disco::core::DiscoParams params(disco::util::choose_b(kMaxFlow, kBits));
  disco::core::BurstAggregator burst(params);
  disco::util::Rng rng(1);
  std::uint64_t c = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    burst.add(lens[i & 4095], c, rng);
    if ((++i & 7) == 0) burst.flush(c, rng);
    if (c > 3000) c = 0;
    benchmark::DoNotOptimize(c);
  }
}

std::vector<disco::flowtable::FiveTuple> sample_tuples(std::size_t n) {
  std::vector<disco::flowtable::FiveTuple> tuples(n);
  disco::util::Rng rng(11);
  for (auto& t : tuples) {
    t.src_ip = static_cast<std::uint32_t>(rng.next());
    t.dst_ip = static_cast<std::uint32_t>(rng.next());
    t.src_port = static_cast<std::uint16_t>(rng.uniform_u64(1024, 65535));
    t.dst_port = 443;
    t.protocol = 6;
  }
  return tuples;
}

// --- estimator A/B ----------------------------------------------------------
// DiscoArray vs AdditiveErrorArray on the identical slot/length stream --
// the per-update cost behind bench_pipeline's estimator ablation.  The
// additive array's occasional halve-all rescale walks are included (and
// amortised over the long benchmark loop, the regime the estimator is
// designed for; bench_pipeline's short windows show the other regime).

void BM_AdditiveArrayBatch(benchmark::State& state) {
  // Mirror of BM_DiscoArrayBatch: one add per counter over 512 counters
  // per iteration, so the two numbers are directly comparable.
  constexpr std::size_t kBatch = 512;
  const auto lens = packet_lengths();
  disco::core::AdditiveErrorArray array(kBatch, kBits);
  disco::util::Rng rng(1);
  std::size_t items = 0;
  for (auto _ : state) {
    for (std::size_t s = 0; s < kBatch; ++s) {
      array.add(s, lens[s & 4095], rng);
    }
    items += kBatch;
    benchmark::DoNotOptimize(array);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
  state.counters["rescales"] =
      static_cast<double>(array.rescale_count());
}

// --- tag-probe A/B ----------------------------------------------------------
// The SIMD group probe against the portable scalar byte loop, same template
// with the engine flipped (flowtable/tag_probe.hpp), on a table at the
// steady-state ~75% load factor.  On builds without SIMD both instances run
// the scalar engine and the ratio pins to ~1x.

template <bool UseSimd>
void BM_TagProbeFind(benchmark::State& state) {
  constexpr std::size_t kCapacity = 8192;
  disco::flowtable::BasicFlowTable<disco::flowtable::FiveTuple, UseSimd> table(
      kCapacity);
  const auto tuples = sample_tuples(8192);
  for (std::size_t i = 0; i < kCapacity * 3 / 4; ++i) {
    (void)table.insert_or_get(tuples[i]);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    // ~75% hits, 25% misses: misses walk to the group's first empty tag,
    // the probe pattern the fingerprint compare is built to shortcut.
    benchmark::DoNotOptimize(table.find(tuples[i & 8191]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}

template <bool UseSimd>
void BM_TagProbeChurn(benchmark::State& state) {
  // Insert/erase churn at capacity: every erase backward-shifts a cluster,
  // every insert probes to a fresh slot -- the worst case for tag upkeep.
  constexpr std::size_t kCapacity = 4096;
  disco::flowtable::BasicFlowTable<disco::flowtable::FiveTuple, UseSimd> table(
      kCapacity);
  const auto tuples = sample_tuples(8192);
  for (std::size_t i = 0; i < kCapacity; ++i) {
    (void)table.insert_or_get(tuples[i]);
  }
  std::size_t in = kCapacity, out = 0, ops = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.erase(tuples[out++ & 8191]));
    benchmark::DoNotOptimize(table.insert_or_get(tuples[in++ & 8191]));
    ops += 2;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

void BM_TagProbeFindTelemetry(benchmark::State& state) {
  // BM_TagProbeFindSimd with runtime telemetry forced on, so the sampled
  // probe-length record (1 in 64 lookups, flow_table.hpp) actually fires
  // and pays record_slow's three relaxed fetch_adds.  The delta against
  // BM_TagProbeFindSimd is the observability cost left on the hot path
  // after sampling; docs/telemetry.md records the before/after numbers.
  const bool was = disco::telemetry::enabled();
  disco::telemetry::set_enabled(true);
  BM_TagProbeFind<disco::flowtable::tagprobe::kHaveSimd>(state);
  disco::telemetry::set_enabled(was);
}

// --- atomic-shim A/B --------------------------------------------------------
// SpscRing declares its indices through util::atomic (the model-check shim,
// src/util/atomic.hpp), which in a normal build static_asserts itself to be
// bare std::atomic.  This pair pins that claim empirically: the real ring
// against a verbatim copy of its push/pop protocol written directly on
// std::atomic.  bench_to_json.py derives `shim_overhead` from the ratio --
// it must hover at 1.0, or the shim stopped being free.  (bench/ sits
// outside lint_disco.py's src/ scan, so the deliberate raw std::atomic
// here needs no suppression.)

/// Byte-for-byte mirror of SpscRing<std::uint64_t>'s index protocol and
/// layout, with the shim aliases replaced by the raw standard types.
class RawSpscRing {
 public:
  explicit RawSpscRing(std::size_t capacity)
      : capacity_(capacity), mask_(capacity - 1), slots_(capacity) {}

  bool try_push(std::uint64_t value) noexcept {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ >= capacity_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ >= capacity_) return false;
    }
    slots_[tail & mask_] = value;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  std::size_t pop_batch(std::uint64_t* out, std::size_t max) noexcept {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (cached_tail_ == head) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (cached_tail_ == head) return 0;
    }
    std::size_t n = cached_tail_ - head;
    if (n > max) n = max;
    for (std::size_t i = 0; i < n; ++i) out[i] = slots_[(head + i) & mask_];
    head_.store(head + n, std::memory_order_release);
    return n;
  }

 private:
  const std::size_t capacity_;
  const std::size_t mask_;
  std::vector<std::uint64_t> slots_;
  alignas(disco::pipeline::kCacheLine) std::atomic<std::size_t> head_{0};
  alignas(disco::pipeline::kCacheLine) std::atomic<std::size_t> tail_{0};
  alignas(disco::pipeline::kCacheLine) std::size_t cached_head_ = 0;
  alignas(disco::pipeline::kCacheLine) std::size_t cached_tail_ = 0;
};

template <typename Ring>
void BM_SpscRingAB(benchmark::State& state) {
  // Single-threaded push-then-drain: identical op sequence on both rings
  // (relaxed own-index load, occasional acquire refresh, release store),
  // so any timing delta is the shim's.  One item in flight keeps the
  // cached-index shortcuts on their common path.
  Ring ring(256);
  std::uint64_t buf[8];
  std::uint64_t v = 0;
  std::size_t ops = 0;
  for (auto _ : state) {
    (void)ring.try_push(v++);
    benchmark::DoNotOptimize(ring.pop_batch(buf, 8));
    ++ops;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

// --- full monitor path ------------------------------------------------------
// Flow table lookup + volume update + size update per packet: what one
// ingest costs end to end, and the workload that feeds the telemetry
// snapshot (ingest/eviction counters, occupancy, probe-length histogram).

void BM_MonitorIngest(benchmark::State& state) {
  disco::flowtable::FlowMonitor monitor(
      {.max_flows = 8192, .counter_bits = kBits, .max_flow_bytes = kMaxFlow});
  const auto lens = packet_lengths();
  const auto tuples = sample_tuples(4096);
  std::uint64_t now_ns = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    now_ns += 1000;
    benchmark::DoNotOptimize(monitor.ingest(tuples[i & 4095], lens[i & 4095], now_ns));
    // Periodic idle eviction, as a monitoring appliance would run it; the
    // 2 ms timeout against the 4 ms tuple-cycle period guarantees churn.
    if ((++i & 0xffff) == 0) monitor.evict_idle(now_ns, 2'000'000);
  }
  // Evict the survivors so eviction totals are populated even on short runs.
  monitor.evict_idle(now_ns + 1'000'000, 0);
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}

BENCHMARK(BM_DiscoDouble);
BENCHMARK(BM_DiscoTable);
BENCHMARK(BM_DiscoTableMix);
BENCHMARK(BM_DiscoTableUnit);
BENCHMARK(BM_DiscoArrayBatch);
BENCHMARK(BM_DiscoFixedPoint);
BENCHMARK(BM_Sac);
BENCHMARK(BM_AnlsII);
BENCHMARK(BM_SdExact);
BENCHMARK(BM_BurstAggregated);
BENCHMARK(BM_AdditiveArrayBatch);
BENCHMARK(BM_TagProbeFind<true>)->Name("BM_TagProbeFindSimd");
BENCHMARK(BM_TagProbeFind<false>)->Name("BM_TagProbeFindScalar");
BENCHMARK(BM_TagProbeChurn<true>)->Name("BM_TagProbeChurnSimd");
BENCHMARK(BM_TagProbeChurn<false>)->Name("BM_TagProbeChurnScalar");
BENCHMARK(BM_TagProbeFindTelemetry);
BENCHMARK(BM_SpscRingAB<disco::pipeline::SpscRing<std::uint64_t>>)
    ->Name("BM_SpscRingShim");
BENCHMARK(BM_SpscRingAB<RawSpscRing>)->Name("BM_SpscRingRaw");
BENCHMARK(BM_MonitorIngest);

}  // namespace

int main(int argc, char** argv) {
  const bool telemetry = disco::bench::parse_telemetry_flag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (telemetry) disco::bench::dump_telemetry_snapshot();
  return 0;
}
