// Shared scaffolding for the paper-reproduction benches.
//
// Every bench binary prints the rows/series of one paper table or figure.
// Workload sizes default to a laptop-friendly scale that preserves the
// paper's distributions; set DISCO_BENCH_SCALE (a float, default 1.0) to
// grow or shrink every population proportionally, e.g.
//
//   DISCO_BENCH_SCALE=25 ./bench_fig5_volume_avg_error   # ~paper-size trace
#pragma once

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "stats/experiment.hpp"
#include "stats/table.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/registry.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_stats.hpp"

namespace disco::bench {

/// Strips `--telemetry` from argv if present and enables runtime telemetry
/// (the metrics stay zeroed otherwise -- see src/telemetry/metrics.hpp).
/// Returns whether the flag was given, so mains can pair it with
/// dump_telemetry_snapshot() after the workload.  Safe to call before
/// benchmark::Initialize, which rejects flags it does not know.
inline bool parse_telemetry_flag(int* argc, char** argv) {
  bool found = false;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--telemetry") == 0) {
      found = true;
      continue;
    }
    argv[kept++] = argv[i];
  }
  *argc = kept;
  if (found) telemetry::set_enabled(true);
  return found;
}

/// Prints the process-wide metric registry as JSON (docs/telemetry.md has
/// the schema).
inline void dump_telemetry_snapshot(std::ostream& out = std::cout) {
  out << telemetry::to_json(telemetry::Registry::global().snapshot()) << "\n";
}

/// Global scale multiplier from DISCO_BENCH_SCALE (default 1.0).
inline double scale() {
  if (const char* env = std::getenv("DISCO_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0) return s;
  }
  return 1.0;
}

inline std::uint32_t scaled(std::uint32_t base) {
  const double s = static_cast<double>(base) * scale();
  return s < 1.0 ? 1u : static_cast<std::uint32_t>(s);
}

/// The real-trace stand-in at bench scale (paper: 100,728 flows; default
/// here: 4,000 -- DISCO_BENCH_SCALE=25 restores paper size).
inline std::vector<trace::FlowRecord> real_trace_flows(std::uint64_t seed = 1001) {
  util::Rng rng(seed);
  return trace::real_trace_model().make_flows(scaled(4000), rng);
}

inline void print_workload_summary(const std::string& name,
                                   const std::vector<trace::FlowRecord>& flows) {
  const auto s = trace::summarize(flows);
  std::cout << "# workload: " << name << " -- " << s.flow_count << " flows, "
            << s.total_packets << " packets, " << s.total_bytes << " bytes, "
            << "mean flow " << static_cast<std::uint64_t>(s.mean_bytes_per_flow)
            << " B / " << stats::fmt(s.mean_packets_per_flow, 1) << " pkts\n";
}

inline void print_title(const std::string& title, const std::string& paper_ref) {
  std::cout << "==============================================================\n"
            << title << "\n(reproduces " << paper_ref << ")\n"
            << "==============================================================\n";
}

/// One (method x bits) accuracy grid over a fixed trace -- the computation
/// behind Figs. 5-8 and Table II.
struct SweepCell {
  std::string method;
  int bits = 0;
  stats::AccuracyResult result;
};

inline std::vector<SweepCell> run_bits_sweep(
    const std::vector<trace::FlowRecord>& flows, stats::CountingMode mode,
    const std::vector<std::string>& methods, const std::vector<int>& bit_sizes,
    std::uint64_t seed) {
  std::vector<SweepCell> cells;
  for (const auto& name : methods) {
    for (int bits : bit_sizes) {
      const auto method = stats::make_method(name);
      SweepCell cell;
      cell.method = name;
      cell.bits = bits;
      cell.result = stats::run_accuracy(*method, flows, mode, bits, seed);
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

/// Renders one error metric of a sweep as a bits-by-method table.
template <typename MetricFn>
void print_sweep_metric(const std::vector<SweepCell>& cells,
                        const std::vector<std::string>& methods,
                        const std::vector<int>& bit_sizes, MetricFn metric,
                        const std::string& metric_name) {
  std::vector<std::string> headers = {"counter bits"};
  for (const auto& m : methods) headers.push_back(m + " " + metric_name);
  stats::TextTable table(headers);
  for (int bits : bit_sizes) {
    std::vector<std::string> row = {std::to_string(bits)};
    for (const auto& m : methods) {
      for (const auto& cell : cells) {
        if (cell.method == m && cell.bits == bits) {
          row.push_back(stats::fmt(metric(cell.result), 4));
        }
      }
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
}

}  // namespace disco::bench
