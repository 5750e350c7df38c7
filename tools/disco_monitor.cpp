// disco_monitor: one monitoring site of a distributed deployment.
//
//   disco_monitor --site I --sites N (--spool PATH | --connect HOST:PORT)
//                 [options]
//
//   --site I           this site's id, 0 <= I < N (required)
//   --sites N          fleet size (required)
//   --spool PATH       append DRPT epoch reports to this spool file
//   --connect H:P      stream reports to a collector's ReportServer instead
//   --flows F          flows in the shared synthetic trace (default 600)
//   --alpha A          Zipf skew of the trace (default 1.1)
//   --seed S           trace seed -- every site MUST pass the same value;
//                      the trace is regenerated identically in each process
//                      and site I keeps the packets with arrival index
//                      congruent to I mod N, an ECMP-style disjoint split
//                      (default 1)
//   --epochs E         measurement intervals / rotations (default 3)
//   --bits B           counter bits per flow (default 12)
//   --estimator disco|additive   counter family (default disco)
//   --format V         DRPT wire version to emit, 1..3 (default 3);
//                      < 3 simulates a legacy monitor in a mixed fleet
//   --max-flows M      monitor table capacity (default 4096)
//
// This is the producer half of the multi-process convergence soak suite
// (tests/test_collector_soak.cpp): N of these processes split one
// deterministic Zipf trace, and the collector's merged answer must match
// single-process ground truth within Theorem 2 bounds.  Measurement
// randomness is seeded per site (seed and site id both feed the monitor
// RNG), so sites' estimation errors are independent -- the property the
// collector's variance accounting relies on.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "collect/transport.hpp"
#include "flowtable/monitor.hpp"
#include "flowtable/report_io.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace {

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::cerr << "error: " << error << "\n\n";
  std::cerr << "usage: disco_monitor --site I --sites N"
               " (--spool PATH | --connect HOST:PORT) [--flows F]"
               " [--alpha A] [--seed S] [--epochs E] [--bits B]"
               " [--estimator disco|additive] [--format V] [--max-flows M]\n";
  std::exit(2);
}

/// Deterministic dense-id-to-5-tuple mapping.  The source address carries
/// the flow id, so the collector side can relate merged keys back to trace
/// flow ids; the destination spreads flows over four hosts and eight
/// service ports, so the key-ranking modules (topports, topdest,
/// autofocus) see more than one key.  tests/test_collector_soak.cpp keeps
/// a copy in step.
disco::flowtable::FiveTuple tuple_for_flow(std::uint32_t flow_id) {
  constexpr std::uint16_t kPorts[] = {443, 80, 53, 22, 8080, 25, 123, 3306};
  disco::flowtable::FiveTuple t;
  t.src_ip = 0x0a000000u | flow_id;         // 10.x.y.z
  t.dst_ip = 0xc0a80001u + (flow_id & 3u);  // 192.168.0.1-4
  t.src_port = static_cast<std::uint16_t>(1024 + (flow_id & 0x7fff));
  t.dst_port = kPorts[(flow_id >> 2) & 7u];
  t.protocol = 6;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace disco;

  std::int64_t site = -1, sites = -1;
  std::string spool, connect;
  std::uint32_t flows = 600;
  double alpha = 1.1;
  std::uint64_t seed = 1;
  std::uint32_t epochs = 3;
  int bits = 12;
  bool additive = false;
  std::uint32_t format = flowtable::kReportVersion;
  std::size_t max_flows = 4096;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--site") site = std::atoll(value().c_str());
    else if (arg == "--sites") sites = std::atoll(value().c_str());
    else if (arg == "--spool") spool = value();
    else if (arg == "--connect") connect = value();
    else if (arg == "--flows") flows = static_cast<std::uint32_t>(std::atoll(value().c_str()));
    else if (arg == "--alpha") alpha = std::atof(value().c_str());
    else if (arg == "--seed") seed = static_cast<std::uint64_t>(std::atoll(value().c_str()));
    else if (arg == "--epochs") epochs = static_cast<std::uint32_t>(std::atoll(value().c_str()));
    else if (arg == "--bits") bits = std::atoi(value().c_str());
    else if (arg == "--estimator") {
      const std::string kind = value();
      if (kind == "disco") additive = false;
      else if (kind == "additive") additive = true;
      else usage("unknown estimator (expected disco|additive)");
    }
    else if (arg == "--format") format = static_cast<std::uint32_t>(std::atoll(value().c_str()));
    else if (arg == "--max-flows") max_flows = static_cast<std::size_t>(std::atoll(value().c_str()));
    else usage(("unknown option: " + arg).c_str());
  }
  if (site < 0 || sites < 1 || site >= sites) {
    usage("--site and --sites are required, with 0 <= site < sites");
  }
  if (spool.empty() == connect.empty()) {
    usage("exactly one of --spool / --connect is required");
  }
  if (epochs == 0 || flows == 0) usage("--epochs and --flows must be > 0");
  if (format < 1 || format > flowtable::kReportVersion) {
    usage("--format must be 1..3");
  }

  // Every site regenerates the identical trace from the shared seed...
  util::Rng traffic_rng(seed);
  const auto flow_records =
      trace::zipf_scenario(alpha).make_flows(flows, traffic_rng);
  trace::PacketStream stream(flow_records, 1, 4, seed + 1);
  const std::uint64_t total_packets = stream.total_packets();

  // ...but measures with its own randomness.
  flowtable::FlowMonitor::Config config;
  config.max_flows = max_flows;
  config.counter_bits = bits;
  config.seed = seed * 7919 + static_cast<std::uint64_t>(site) + 1;
  config.estimator = additive ? flowtable::EstimatorKind::AdditiveError
                              : flowtable::EstimatorKind::Disco;
  config.telemetry_prefix = "site_" + std::to_string(site);
  flowtable::FlowMonitor monitor(config);

  std::ofstream spool_out;
  std::unique_ptr<collect::ReportClient> client;
  if (!spool.empty()) {
    spool_out.open(spool, std::ios::binary | std::ios::trunc);
    if (!spool_out) {
      std::cerr << "error: cannot open spool file " << spool << "\n";
      return 1;
    }
  } else {
    const auto colon = connect.rfind(':');
    if (colon == std::string::npos) usage("--connect expects HOST:PORT");
    try {
      client = std::make_unique<collect::ReportClient>(
          connect.substr(0, colon),
          static_cast<std::uint16_t>(
              std::atoi(connect.c_str() + colon + 1)));
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  const auto site_id = static_cast<std::uint32_t>(site);
  auto ship = [&](const flowtable::FlowMonitor::EpochReport& report) {
    if (client) {
      client->send(report, site_id, format);
    } else {
      flowtable::write_report(spool_out, report, site_id, format);
    }
  };

  // Split the arrival stream into `epochs` equal intervals; this site
  // ingests the packets whose arrival index lands on it mod N.
  const std::uint64_t per_epoch =
      total_packets / epochs > 0 ? total_packets / epochs : 1;
  std::uint64_t index = 0;
  std::uint32_t rotated = 0;
  std::uint64_t ingested = 0;
  while (auto packet = stream.next()) {
    if (index % static_cast<std::uint64_t>(sites) ==
        static_cast<std::uint64_t>(site)) {
      monitor.ingest(tuple_for_flow(packet->flow_id), packet->length);
      ++ingested;
    }
    ++index;
    if (rotated + 1 < epochs && index == per_epoch * (rotated + 1)) {
      ship(monitor.rotate());
      ++rotated;
    }
  }
  ship(monitor.rotate());  // final epoch: remainder of the trace
  ++rotated;

  std::cout << "site " << site << "/" << sites << ": ingested " << ingested
            << " of " << total_packets << " packets, shipped " << rotated
            << " epoch reports (DRPT v" << format << ")\n";
  return 0;
}
