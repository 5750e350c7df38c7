// Failure injection: corrupted inputs, overload, saturation, and adversarial
// patterns.  Every component must fail loudly (throw / report) or degrade
// gracefully (saturate / reject and count) -- never crash, hang, or corrupt
// neighbouring state.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/disco.hpp"
#include "counters/counter_braids.hpp"
#include "counters/sac.hpp"
#include "flowtable/flow_table.hpp"
#include "flowtable/monitor.hpp"
#include "flowtable/report_io.hpp"
#include "trace/pcap.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"
#include "util/rng.hpp"

namespace disco {
namespace {

// --- corrupted trace inputs --------------------------------------------------

TEST(FailureInjection, TraceReaderSurvivesRandomCorruption) {
  // Flip bytes at every position of a (small, fixed-size) valid trace; the
  // reader must either throw or return records -- never crash.  (Payload
  // corruption is not detectable without checksums, and that is fine: the
  // contract is memory safety plus loud failure on structural damage.)
  util::Rng rng(1);
  const trace::Scenario tiny("tiny", std::make_shared<trace::UniformCount>(3, 6),
                             std::make_shared<trace::UniformLength>(40, 1500));
  auto flows = tiny.make_flows(5, rng);
  trace::PacketStream stream(std::move(flows), 1, 2, 2);
  std::stringstream buf;
  trace::write_trace(buf, stream.drain(), 5);
  const std::string original = buf.str();

  int threw = 0;
  int parsed = 0;
  for (std::size_t pos = 0; pos < original.size(); pos += 3) {
    std::string corrupt = original;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0xff);
    std::stringstream in(corrupt);
    try {
      const auto data = trace::read_trace(in);
      ++parsed;
      (void)data;
    } catch (const std::runtime_error&) {
      ++threw;
    }
  }
  EXPECT_GT(threw, 0);   // header corruption must be detected
  EXPECT_GT(parsed, 0);  // payload corruption parses (structurally valid)
}

TEST(FailureInjection, PcapReaderSurvivesRandomCorruption) {
  std::vector<trace::PacketRecord> packets = {{1, 500, 1000}, {2, 800, 2000}};
  std::stringstream buf;
  trace::write_pcap(buf, packets);
  const std::string original = buf.str();
  for (std::size_t pos = 0; pos < original.size(); ++pos) {
    std::string corrupt = original;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5a);
    std::stringstream in(corrupt);
    try {
      (void)trace::read_pcap(in);
    } catch (const std::runtime_error&) {
      // expected for structural damage
    }
  }
  SUCCEED();  // the contract is "no crash"; throws are fine
}

TEST(FailureInjection, ReportReaderSurvivesBitFlips) {
  // DRPT is what a collector reads from disk or the wire, so it arrives
  // untrusted.  Flip one bit in every 5th byte of a two-report v3 stream:
  // the reader must return reports or throw std::runtime_error -- never
  // crash, and never throw anything else.
  flowtable::FlowMonitor monitor({.max_flows = 64,
                                  .counter_bits = 10,
                                  .max_flow_bytes = 1 << 20,
                                  .max_flow_packets = 1 << 12,
                                  .seed = 3});
  std::stringstream buf;
  for (int epoch = 0; epoch < 2; ++epoch) {
    for (int i = 0; i < 500; ++i) {
      (void)monitor.ingest({static_cast<std::uint32_t>(i % 9), 1, 2, 3, 6},
                           500);
    }
    flowtable::write_report(buf, monitor.rotate());
  }
  const std::string original = buf.str();

  int threw = 0;
  int parsed = 0;
  for (std::size_t pos = 0; pos < original.size(); pos += 5) {
    std::string corrupt = original;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x80);
    std::stringstream in(corrupt);
    flowtable::ReportReader reader(in);
    try {
      while (reader.next()) {
      }
      ++parsed;  // undetectable (estimate-value) corruption: no crash
    } catch (const std::runtime_error&) {
      ++threw;  // structural corruption: loud failure, of the documented type
    }
  }
  EXPECT_GT(threw, 0);   // header flips (the magic at byte 0) are detected
  EXPECT_GT(parsed, 0);  // record payload flips parse
}

// --- overload and saturation ---------------------------------------------------

TEST(FailureInjection, MonitorOverloadRejectsButKeepsServing) {
  flowtable::FlowMonitor monitor({.max_flows = 8,
                                  .counter_bits = 10,
                                  .max_flow_bytes = 1 << 20,
                                  .max_flow_packets = 1 << 12,
                                  .seed = 4});
  auto key = [](std::uint32_t i) {
    return flowtable::FiveTuple{i, 0, 0, 0, 6};
  };
  // 100 distinct flows through an 8-entry table.
  std::uint64_t rejected = 0;
  for (std::uint32_t i = 0; i < 100; ++i) {
    if (!monitor.ingest(key(i), 100)) ++rejected;
  }
  EXPECT_EQ(rejected, 92u);
  EXPECT_EQ(monitor.table().rejected_flows(), 92u);
  // The 8 admitted flows are still fully functional.
  for (std::uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(monitor.ingest(key(i), 100));
    ASSERT_TRUE(monitor.query(key(i)).has_value());
  }
}

TEST(FailureInjection, DiscoAbsurdPacketLengthSaturatesCleanly) {
  // A single "packet" of 2^40 bytes against a counter provisioned for 1 MB:
  // must saturate, count the overflow, and leave neighbours untouched.
  core::DiscoArray array(4, 10, 1 << 20);
  util::Rng rng(5);
  array.add(1, std::uint64_t{1} << 40, rng);
  EXPECT_EQ(array.overflow_count(), 1u);
  EXPECT_EQ(array.value(1), 1023u);
  EXPECT_EQ(array.value(0), 0u);
  EXPECT_EQ(array.value(2), 0u);
  // Subsequent normal updates on other slots still work.
  array.add(2, 500, rng);
  EXPECT_GT(array.value(2), 0u);
}

TEST(FailureInjection, SacAdversarialAlternation) {
  // Alternating tiny/huge increments force SAC through its whole escalation
  // ladder repeatedly; the estimate must remain in the right ballpark.
  counters::SacArray sac(1, 10);
  util::Rng rng(6);
  std::uint64_t truth = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t l = (i % 2 == 0) ? 1 : 9000;
    sac.add(0, l, rng);
    truth += l;
  }
  EXPECT_NEAR(sac.estimate(0), static_cast<double>(truth),
              static_cast<double>(truth) * 0.5);
}

TEST(FailureInjection, BraidOverCapacityThrowsNotCorrupts) {
  counters::CounterBraids cb(counters::CounterBraids::Config{.flow_capacity = 4});
  cb.add(0, 100);
  EXPECT_THROW(cb.add(4, 100), std::out_of_range);
  EXPECT_THROW(cb.add(0xffffffff, 100), std::out_of_range);
  // Valid state unaffected.
  const auto decoded = cb.decode();
  EXPECT_EQ(decoded.counts[0], 100u);
}

// --- adversarial flow-table patterns ------------------------------------------

TEST(FailureInjection, FlowTableClusteredKeysStillResolve) {
  // Keys crafted to be near-identical (sequential ports, one host pair):
  // the avalanche hash must keep probes short and lookups correct.
  flowtable::FlowTable table(4096);
  for (std::uint16_t port = 0; port < 4000; ++port) {
    const flowtable::FiveTuple key{0x0a000001, 0x0a000002, port, 80, 6};
    const auto slot = table.insert_or_get(key);
    ASSERT_TRUE(slot.has_value());
  }
  EXPECT_EQ(table.size(), 4000u);
  EXPECT_LT(table.mean_probe_length(), 8.0);
  // Every key still resolves to its original slot.
  for (std::uint16_t port = 0; port < 4000; ++port) {
    const flowtable::FiveTuple key{0x0a000001, 0x0a000002, port, 80, 6};
    ASSERT_TRUE(table.find(key).has_value());
  }
}

TEST(FailureInjection, RotateUnderOverloadResetsRejectionPressure) {
  flowtable::FlowMonitor monitor({.max_flows = 4,
                                  .counter_bits = 10,
                                  .max_flow_bytes = 1 << 20,
                                  .max_flow_packets = 1 << 12,
                                  .seed = 8});
  auto key = [](std::uint32_t i) {
    return flowtable::FiveTuple{i, 9, 9, 9, 17};
  };
  for (std::uint32_t i = 0; i < 20; ++i) (void)monitor.ingest(key(i), 100);
  const auto report = monitor.rotate();
  EXPECT_EQ(report.flows.size(), 4u);
  // Fresh epoch: capacity available again for new flows.
  for (std::uint32_t i = 20; i < 24; ++i) {
    EXPECT_TRUE(monitor.ingest(key(i), 100)) << i;
  }
}

}  // namespace
}  // namespace disco
