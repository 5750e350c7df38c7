// continuous_monitoring: measurement epochs -- the operational lifecycle of
// a deployed monitor.
//
//   $ ./continuous_monitoring [epochs]
//
// Simulates a monitor running across several measurement intervals: each
// epoch ingests fresh traffic, exports a per-flow report, and rotates.  A
// monitor keeps no checkpoint: a crash loses the open epoch, and a
// collector counts the missing report as an epoch gap (docs/robustness.md).
#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "flowtable/monitor.hpp"
#include "stats/table.hpp"
#include "trace/synthetic.hpp"

namespace {

disco::flowtable::FiveTuple tuple_for(std::uint32_t flow_id, std::uint64_t epoch) {
  // Different epochs see (mostly) different flow populations, as real
  // measurement intervals do.
  return disco::flowtable::FiveTuple{
      0x0a000000u + flow_id + static_cast<std::uint32_t>(epoch) * 1000u,
      0xc0a80101u, static_cast<std::uint16_t>(1024 + flow_id), 443, 6};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace disco;
  const int epochs = argc > 1 ? std::atoi(argv[1]) : 3;

  flowtable::FlowMonitor monitor({.max_flows = 8192,
                                  .counter_bits = 12,
                                  .max_flow_bytes = 1 << 28,
                                  .max_flow_packets = 1 << 20,
                                  .seed = 20100621});  // ICDCS'10 in Genova

  util::Rng traffic_rng(17);
  stats::TextTable summary({"epoch", "flows", "packets", "est. bytes",
                            "heaviest flow (est. B)"});

  for (int e = 0; e < epochs; ++e) {
    auto flows = trace::scenario1().make_flows(600, traffic_rng);
    trace::PacketStream stream(std::move(flows), 1, 8, 100 + e);
    while (auto p = stream.next()) {
      (void)monitor.ingest(tuple_for(p->flow_id, monitor.epoch()), p->length);
    }

    const auto report = monitor.rotate();
    double heaviest = 0.0;
    for (const auto& f : report.flows) heaviest = std::max(heaviest, f.bytes);
    summary.add_row({std::to_string(report.epoch),
                     std::to_string(report.flows.size()),
                     std::to_string(monitor.packets_seen()),
                     std::to_string(static_cast<std::uint64_t>(report.totals.bytes)),
                     std::to_string(static_cast<std::uint64_t>(heaviest))});
  }

  std::cout << '\n';
  summary.print(std::cout);
  std::cout << "\neach rotation exports the interval's per-flow estimates and\n"
               "frees the whole SRAM budget for the next interval.\n";
  return 0;
}
