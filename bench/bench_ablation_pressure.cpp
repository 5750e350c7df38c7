// Ablation over the bounded-memory pressure policies (docs/robustness.md):
// what each admission x saturation choice costs in throughput and buys in
// accuracy when the flow table is provisioned at a fraction of the true flow
// population -- the regime DISCO's fixed-SRAM deployment (Section VI) lives
// in permanently.
//
// One skewed trace (elephants + mice, same shape as bench_pipeline's
// BurstSource) is ingested into a monitor whose table holds 1/8th of the
// flow id space and whose counters are provisioned for half the trace's
// heaviest flow, so both pressure axes bind.  An unbounded monitor over the
// same trace (whole id space, 1 GiB counters) provides the accuracy
// reference.  Reported per policy:
//
//   * Mpps            single-threaded ingest throughput in 256-packet
//                     ingest_batch calls (the pipeline worker's call shape),
//                     pressure path included (Drop/Saturate is the baseline
//                     the others are read against).
//   * top-100 error   weighted relative error of the 100 largest true flows
//                     (untracked heavy flows count their full volume as
//                     error, so Drop pays for every elephant it refused).
//   * pressure stats  rejected / evicted / saturated / rescaled tallies.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "flowtable/monitor.hpp"
#include "util/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using disco::flowtable::AdmissionPolicy;
using disco::flowtable::FiveTuple;
using disco::flowtable::FlowBurst;
using disco::flowtable::FlowMonitor;
using disco::flowtable::PressureStats;
using disco::flowtable::SaturationPolicy;

constexpr std::uint32_t kFlowSpace = 1u << 15;
constexpr std::uint32_t kBudget = kFlowSpace / 8;
/// Bursts per ingest_batch call: one pipeline pop batch.
constexpr std::size_t kCallBursts = 256;

FiveTuple tuple(std::uint32_t flow) {
  return FiveTuple{0x0a000000u + flow, 0x08080404u,
                   static_cast<std::uint16_t>(flow), 443, 6};
}

struct Packet {
  std::uint32_t flow;
  std::uint32_t length;
};

/// Skewed deterministic trace: AND of two uniforms concentrates mass on low
/// flow ids, giving a heavy-tailed active set far larger than kBudget.
std::vector<Packet> make_trace(std::uint64_t packets) {
  disco::util::Rng rng(71);
  std::vector<Packet> trace;
  trace.reserve(packets);
  for (std::uint64_t i = 0; i < packets; ++i) {
    const auto a = rng.uniform_u64(0, kFlowSpace - 1);
    const auto b = rng.uniform_u64(0, kFlowSpace - 1);
    trace.push_back({static_cast<std::uint32_t>(a & b),
                     static_cast<std::uint32_t>(rng.uniform_u64(64, 1500))});
  }
  return trace;
}

FlowMonitor::Config policy_config(std::uint32_t max_flows,
                                  std::uint64_t max_flow_bytes,
                                  AdmissionPolicy a, SaturationPolicy s) {
  FlowMonitor::Config c;
  c.max_flows = max_flows;
  c.counter_bits = 12;
  c.max_flow_bytes = max_flow_bytes;
  c.max_flow_packets = 1 << 22;
  c.seed = 4242;
  c.pressure.admission = a;
  c.pressure.saturation = s;
  return c;
}

struct Row {
  std::string name;
  double mpps = 0.0;
  double top100_err = 0.0;
  std::uint64_t live = 0;
  PressureStats stats;
};

/// Weighted relative error of the 100 largest true flows: sum|est - true| /
/// sum(true), with untracked flows contributing their whole volume.
double top100_error(const FlowMonitor::EpochReport& report,
                    const std::vector<double>& truth) {
  std::vector<std::uint32_t> ids(truth.size());
  std::iota(ids.begin(), ids.end(), 0u);
  std::partial_sort(ids.begin(), ids.begin() + 100, ids.end(),
                    [&](std::uint32_t x, std::uint32_t y) {
                      return truth[x] > truth[y];
                    });
  std::vector<double> est(truth.size(), 0.0);
  for (const auto& f : report.flows) {
    const std::uint32_t id = f.flow.src_ip - 0x0a000000u;
    if (id < est.size()) est[id] = f.bytes;
  }
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < 100; ++i) {
    const std::uint32_t id = ids[i];
    num += std::abs(est[id] - truth[id]);
    den += truth[id];
  }
  return den > 0.0 ? num / den : 0.0;
}

Row run_policy(const std::string& name, const FlowMonitor::Config& config,
               const std::vector<FlowBurst>& bursts,
               const std::vector<double>& truth) {
  FlowMonitor monitor(config);
  const std::span<const FlowBurst> all(bursts);
  const auto start = Clock::now();
  for (std::size_t i = 0; i < all.size(); i += kCallBursts) {
    (void)monitor.ingest_batch(
        all.subspan(i, std::min(kCallBursts, all.size() - i)));
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  Row row;
  row.name = name;
  row.mpps = static_cast<double>(bursts.size()) / elapsed / 1e6;
  row.live = monitor.totals().flows;
  row.stats = monitor.pressure();
  row.top100_err = top100_error(monitor.rotate(), truth);
  return row;
}

/// Strips `--json=<path>` from argv; returns the path ("" when absent).
std::string parse_json_flag(int* argc, char** argv) {
  std::string path;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      path = argv[i] + 7;
      continue;
    }
    argv[kept++] = argv[i];
  }
  *argc = kept;
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace disco;
  const bool telemetry = bench::parse_telemetry_flag(&argc, argv);
  const std::string json_path = parse_json_flag(&argc, argv);
  bench::print_title(
      "bounded-memory pressure policy ablation",
      "Section VI's fixed-SRAM regime; policies from docs/robustness.md");

  const auto packets = static_cast<std::uint64_t>(1'000'000 * bench::scale());
  const auto trace = make_trace(packets);
  std::vector<double> truth(kFlowSpace, 0.0);
  std::vector<FlowBurst> bursts;
  bursts.reserve(trace.size());
  for (const auto& pkt : trace) {
    truth[pkt.flow] += pkt.length;
    bursts.push_back(FlowBurst{tuple(pkt.flow), pkt.length, 1, 0});
  }
  const std::size_t active = static_cast<std::size_t>(
      std::count_if(truth.begin(), truth.end(), [](double v) { return v > 0; }));
  // Counters provisioned below the heaviest flow, at every bench scale: the
  // elephants overrun their counters, so the Saturate rows clamp and the
  // RescaleB rows rescale.
  const auto heaviest =
      static_cast<std::uint64_t>(*std::max_element(truth.begin(), truth.end()));
  const std::uint64_t counter_budget = heaviest / 2;
  std::cout << "trace: " << packets << " packets, " << active
            << " active flows, heaviest " << heaviest << " bytes ("
            << bench::scale() << "x scale)\n"
            << "policy rows: table budget " << kBudget
            << " flows, counters provisioned for " << counter_budget
            << " bytes\n\n";

  struct Cell {
    const char* name;
    AdmissionPolicy a;
    SaturationPolicy s;
  };
  const Cell kMatrix[] = {
      {"drop/saturate", AdmissionPolicy::Drop, SaturationPolicy::Saturate},
      {"drop/rescale", AdmissionPolicy::Drop, SaturationPolicy::RescaleB},
      {"rap/saturate", AdmissionPolicy::RandomizedAdmission,
       SaturationPolicy::Saturate},
      {"rap/rescale", AdmissionPolicy::RandomizedAdmission,
       SaturationPolicy::RescaleB},
      {"evict-smallest/saturate", AdmissionPolicy::EvictSmallest,
       SaturationPolicy::Saturate},
      {"evict-smallest/rescale", AdmissionPolicy::EvictSmallest,
       SaturationPolicy::RescaleB},
  };

  std::vector<Row> rows;
  // Unbounded reference first: the accuracy floor every policy is read
  // against (its table holds the whole flow id space, so no pressure).
  rows.push_back(run_policy(
      "unbounded",
      policy_config(kFlowSpace, 1ull << 30, AdmissionPolicy::Drop,
                    SaturationPolicy::Saturate),
      bursts, truth));
  for (const auto& cell : kMatrix) {
    rows.push_back(run_policy(
        cell.name, policy_config(kBudget, counter_budget, cell.a, cell.s),
        bursts, truth));
  }

  stats::TextTable table({"policy", "Mpps", "top-100 err", "live flows",
                          "rejected", "evicted", "saturated", "rescales"});
  for (const auto& r : rows) {
    table.add_row({r.name, stats::fmt(r.mpps, 2), stats::fmt(r.top100_err, 4),
                   std::to_string(r.live),
                   std::to_string(r.stats.flows_rejected),
                   std::to_string(r.stats.flows_evicted),
                   std::to_string(r.stats.counters_saturated),
                   std::to_string(r.stats.rescale_events)});
  }
  table.print(std::cout);
  std::cout << "\nreading: Drop keeps whichever flows arrived first; RAP and\n"
               "EvictSmallest pay their Mpps gap only on table-full\n"
               "rejections (victim sampling, eviction) -- accepted packets\n"
               "take the same batch walk under every policy, so admission\n"
               "never touches the per-packet fast path.  Saturate clamps\n"
               "the elephants at the provisioned maximum; RescaleB\n"
               "re-derives b and keeps their estimates unbiased.\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"bench_ablation_pressure\",\n"
        << "  \"scale\": " << bench::scale() << ",\n"
        << "  \"packets\": " << packets << ",\n"
        << "  \"flow_space\": " << kFlowSpace << ",\n"
        << "  \"budget\": " << kBudget << ",\n"
        << "  \"counter_budget\": " << counter_budget << ",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      out << "    {\"policy\": \"" << r.name << "\", \"mpps\": " << r.mpps
          << ", \"top100_err\": " << r.top100_err << ", \"live\": " << r.live
          << ", \"rejected\": " << r.stats.flows_rejected
          << ", \"evicted\": " << r.stats.flows_evicted
          << ", \"saturated\": " << r.stats.counters_saturated
          << ", \"rescales\": " << r.stats.rescale_events << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    if (!out) {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
    std::cout << "\nwrote " << json_path << "\n";
  }

  if (telemetry) bench::dump_telemetry_snapshot();
  return 0;
}
