// Collector merge throughput: how fast the aggregation tier folds a
// fleet's epoch reports into the global view (src/collect/collector.hpp).
//
// The workload is the collector's worst case for key fusion: every site
// reports the SAME flow population, so each flow record lands in an
// existing MixedEstimateAccumulator pair.  Reports are pre-built outside
// the timed region; the measurement is ingest + epoch finalisation +
// subscriber emission, i.e. everything between "bytes parsed" and "global
// answer updated".  Best-of-3, like the other throughput benches: single
// runs are milliseconds at bench scale.
//
//   ./bench_collector [--json=PATH] [--telemetry]
//   DISCO_BENCH_SCALE=10 ./bench_collector       # ~10x flow population
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "collect/collector.hpp"

namespace {

using disco::collect::Collector;
using disco::collect::CollectorConfig;
using disco::collect::EpochReport;

disco::flowtable::FiveTuple tuple(std::uint32_t i) {
  return disco::flowtable::FiveTuple{0x0a000000u + i, 0xc0a80001u,
                                     static_cast<std::uint16_t>(i & 0x7fff),
                                     443, 6};
}

/// One site's report for one epoch: `flows` records over the shared key
/// population, with per-site error metadata.
EpochReport make_report(std::uint64_t epoch, std::uint32_t flows, double b) {
  EpochReport report;
  report.epoch = epoch;
  report.volume_b = b;
  report.size_b = b;
  report.flows.reserve(flows);
  for (std::uint32_t i = 0; i < flows; ++i) {
    const double bytes = 1000.0 + (i % 977);
    report.flows.push_back({tuple(i), bytes, 1.0 + (i % 13)});
    report.totals.bytes += bytes;
    report.totals.packets += 1.0 + (i % 13);
  }
  report.totals.flows = flows;
  return report;
}

struct Row {
  unsigned sites = 0;
  std::uint64_t reports = 0;
  std::uint64_t records = 0;
  double seconds = 0.0;
  double mrecs = 0.0;      ///< flow records merged per second, millions
  double reports_s = 0.0;  ///< whole reports per second
};

Row run_merge(unsigned sites, std::uint32_t epochs, std::uint32_t flows) {
  // Pre-build the whole fleet's report stream, epoch-major (the order a
  // round-robin spool drain or a healthy socket fleet delivers).
  std::vector<std::pair<std::uint32_t, const EpochReport*>> schedule;
  std::vector<std::vector<EpochReport>> reports(sites);
  for (unsigned site = 0; site < sites; ++site) {
    const double b = 1.002 + 0.001 * site;  // heterogeneous bases
    for (std::uint32_t epoch = 0; epoch < epochs; ++epoch) {
      reports[site].push_back(make_report(epoch, flows, b));
    }
  }
  for (std::uint32_t epoch = 0; epoch < epochs; ++epoch) {
    for (unsigned site = 0; site < sites; ++site) {
      schedule.emplace_back(site, &reports[site][epoch]);
    }
  }

  Row best;
  for (int repeat = 0; repeat < 3; ++repeat) {
    Collector collector;
    for (unsigned site = 0; site < sites; ++site) collector.expect_site(site);
    std::uint64_t emitted = 0;
    collector.subscribe([&emitted](const EpochReport& r) {
      emitted += r.flows.size();  // realistic: someone consumes the merge
    });
    const auto start = std::chrono::steady_clock::now();
    for (const auto& [site, report] : schedule) {
      (void)collector.ingest(site, *report);
    }
    collector.finalize_all();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    Row row;
    row.sites = sites;
    row.reports = schedule.size();
    row.records = static_cast<std::uint64_t>(schedule.size()) * flows;
    row.seconds = elapsed.count();
    row.mrecs = static_cast<double>(row.records) / elapsed.count() / 1e6;
    row.reports_s = static_cast<double>(row.reports) / elapsed.count();
    if (row.mrecs > best.mrecs) best = row;
  }
  return best;
}

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
  bench::print_title("collector merge throughput",
                     "aggregation tier: fold a fleet's epoch reports into "
                     "the global top-k view");

  const auto flows = bench::scaled(20'000);
  constexpr std::uint32_t kEpochs = 8;
  std::cout << "workload: " << flows << " shared flows per report, "
            << kEpochs << " epochs, full cross-site key fusion\n\n";

  std::vector<Row> rows;
  stats::TextTable table(
      {"sites", "reports", "flow records", "Mrec/s", "reports/s"});
  for (unsigned sites : {2u, 4u, 8u}) {
    const Row row = run_merge(sites, kEpochs, flows);
    rows.push_back(row);
    table.add_row({std::to_string(row.sites), std::to_string(row.reports),
                   std::to_string(row.records), stats::fmt(row.mrecs, 2),
                   stats::fmt(row.reports_s, 0)});
  }
  table.print(std::cout);
  std::cout << "(every record updates two MixedEstimateAccumulators and the\n"
               "exact global totals; sites share one key population, so\n"
               "this is the fusion-heavy end of the merge cost range.)\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"bench_collector\",\n"
        << "  \"scale\": " << bench::scale() << ",\n"
        << "  \"flows_per_report\": " << flows << ",\n"
        << "  \"epochs\": " << kEpochs << ",\n"
        << "  \"merge\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      out << "    {\"sites\": " << r.sites << ", \"reports\": " << r.reports
          << ", \"flow_records\": " << r.records
          << ", \"mrecs_per_s\": " << r.mrecs
          << ", \"reports_per_s\": " << r.reports_s << "}"
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
