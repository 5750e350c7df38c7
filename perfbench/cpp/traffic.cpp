#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include <malloc.h>
#include <unistd.h>

#include "common.hpp"
#include "span.hpp"
#include "core/disco.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace perfbench {

Scale scale_for(Workload workload, bool smoke) {
  Scale s;
  const bool fleet = workload == Workload::Fleet;
  // Interleaved and bursty share the flow population and differ only in run
  // length: no flow twice in a row, or back-to-back runs of 1-16 packets.
  s.flows = fleet ? 200'000 : 100'000;
  s.max_flow_packets = fleet ? 64 : 256;
  s.burst_hi = workload == Workload::Bursty ? 16 : 1;
  s.pipeline_flows = std::size_t{1} << 20;
  s.site_flows = std::size_t{1} << 18;
  s.rounds = fleet ? 1 : 3;
  s.setup_samples = 15;
  s.warmup_epochs = fleet ? 1 : 2;
  s.min_timed_epochs = 3;
  if (smoke) {
    s.flows = fleet ? 10'000 : 5'000;
    s.pipeline_flows = std::size_t{1} << 16;
    s.site_flows = std::size_t{1} << 14;
    s.query_every = 8;
    s.rounds = 1;
    s.setup_samples = 2;
    s.warmup_epochs = 1;
    s.min_timed_epochs = 2;
  }
  return s;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::Interleaved: return "interleaved";
    case Workload::Bursty: return "bursty";
    case Workload::Fleet: return "fleet";
  }
  return "?";
}

FiveTuple tuple_for_flow(std::uint32_t flow_id) {
  FiveTuple t;
  t.src_ip = 0x0a000000u | flow_id;  // 10.x.y.z
  t.dst_ip = 0xc0a80001u;            // 192.168.0.1
  t.src_port = static_cast<std::uint16_t>(1024 + (flow_id & 0x7fff));
  t.dst_port = 443;
  t.protocol = 6;
  return t;
}

Trace make_trace(const Scale& scale, std::uint64_t seed) {
  Trace trace;
  disco::util::Rng rng(seed);
  std::vector<disco::trace::FlowRecord> flows =
      disco::trace::zipf_scenario(1.1, scale.max_flow_packets)
          .make_flows(scale.flows, rng);
  const std::size_t n = flows.size();
  trace.keys.resize(n);
  trace.true_bytes.resize(n);
  trace.true_packets.resize(n);
  trace.id_of.reserve(n);
  for (std::uint32_t id = 0; id < n; ++id) {
    trace.keys[id] = tuple_for_flow(id);
    trace.id_of.emplace(trace.keys[id], id);
    trace.true_bytes[id] = static_cast<double>(flows[id].bytes());
    trace.true_packets[id] = static_cast<double>(flows[id].packets());
    trace.total_bytes += trace.true_bytes[id];
    trace.sum_sq_bytes += trace.true_bytes[id] * trace.true_bytes[id];
  }
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  const std::size_t top = std::min<std::size_t>(1000, n);
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(top),
                    order.end(), [&](std::uint32_t a, std::uint32_t b) {
                      if (trace.true_bytes[a] != trace.true_bytes[b]) {
                        return trace.true_bytes[a] > trace.true_bytes[b];
                      }
                      return a < b;
                    });
  trace.top_flows.assign(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(top));

  disco::trace::PacketStream stream(std::move(flows), 1, scale.burst_hi, seed + 1);
  trace.packets.reserve(stream.total_packets());
  while (auto p = stream.next()) {
    trace.packets.push_back(
        PacketEvent{trace.keys[p->flow_id], p->length, p->timestamp_ns});
  }
  return trace;
}

void Checks::merge(const Checks& o) {
  packets_seen_run += o.packets_seen_run;
  packets_seen_failed += o.packets_seen_failed;
  flows_run += o.flows_run;
  flows_failed += o.flows_failed;
  accepted_run += o.accepted_run;
  accepted_failed += o.accepted_failed;
  total_run += o.total_run;
  total_failed += o.total_failed;
  epochs += o.epochs;
  epochs_failed += o.epochs_failed;
  packets_offered += o.packets_offered;
  packets_delivered += o.packets_delivered;
}

Accuracy assess(const EpochReport& report, const Trace& trace,
                double sum_sq_bytes, bool monitor_intervals) {
  const std::size_t n = trace.keys.size();
  std::vector<double> bytes(n, -1.0), packets(n, -1.0);
  bool clean = true;  // no unknown or repeated keys
  double estimated_total = 0.0;
  for (const auto& flow : report.flows) {
    estimated_total += flow.bytes;
    const auto it = trace.id_of.find(flow.flow);
    if (it == trace.id_of.end() || bytes[it->second] >= 0.0) {
      clean = false;
      continue;
    }
    bytes[it->second] = flow.bytes;
    packets[it->second] = flow.packets;
  }
  Accuracy a;
  a.all_flows = clean;
  double volume_err = 0.0, size_err = 0.0;
  for (std::size_t id = 0; id < n; ++id) {
    if (bytes[id] < 0.0) {  // missing: counts as a 100% error
      a.all_flows = false;
      volume_err += 1.0;
      size_err += 1.0;
      continue;
    }
    volume_err += std::abs(bytes[id] - trace.true_bytes[id]) / trace.true_bytes[id];
    size_err += std::abs(packets[id] - trace.true_packets[id]) / trace.true_packets[id];
  }
  a.volume_rel_err = volume_err / static_cast<double>(n);
  a.size_rel_err = size_err / static_cast<double>(n);

  const double b = report.volume_b > 1.0 ? report.volume_b : 1.0 + 1e-12;
  if (monitor_intervals && !trace.top_flows.empty()) {
    const disco::core::DiscoParams params(b);
    std::size_t covered = 0;
    for (std::uint32_t id : trace.top_flows) {
      const auto ci = params.interval_for_estimate(std::max(bytes[id], 0.0));
      if (ci.low <= trace.true_bytes[id] && trace.true_bytes[id] <= ci.high) ++covered;
    }
    a.ci_coverage = static_cast<double>(covered) /
                    static_cast<double>(trace.top_flows.size());
  }
  // Theorem 2 / Corollary 1: each flow's estimate has sd <= cv(b) * n_i and
  // flows are independent, so the total's sd <= cv(b) * sqrt(sum n_i^2).
  // The total is summed from the flow records -- what a consumer merges --
  // and the report's own totals must agree with it.
  const double sd = std::sqrt((b - 1.0) / (b + 1.0)) * std::sqrt(sum_sq_bytes);
  a.total_ok = std::abs(estimated_total - trace.total_bytes) <= 4.0 * sd &&
               std::abs(report.totals.bytes - estimated_total) <= 1e-9 * estimated_total;
  return a;
}

double ref_kernel_ns() {
  constexpr std::uint64_t kSteps = std::uint64_t{1} << 22;
  std::vector<double> samples;
  std::uint64_t x = 0x243f6a8885a308d3ULL;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < kSteps; ++i) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      x ^= z >> 31;
    }
    samples.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(kSteps));
  }
  keep(x);
  return median(samples);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

double trimmed_rss_mb() {
  malloc_trim(0);
  return rss_mb();
}

namespace {

/// VmHWM from /proc/self/status, MB; negative when it cannot be read.
double high_water_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  double mb = -1.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long kb = 0;
    if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) {
      mb = static_cast<double>(kb) * 1024.0 / 1e6;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

/// Resets VmHWM to the current RSS ("5" in proc(5), clear_refs).
bool reset_high_water() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

}  // namespace

PeakRss::PeakRss()
    : baseline_mb_(trimmed_rss_mb()), sampled_mb_(baseline_mb_),
      high_water_(reset_high_water() && high_water_mb() >= 0.0) {}

void PeakRss::sample() {
  if (!high_water_) sampled_mb_ = std::max(sampled_mb_, rss_mb());
}

double PeakRss::growth_mb() const {
  return (high_water_ ? high_water_mb() : sampled_mb_) - baseline_mb_;
}

}  // namespace perfbench
