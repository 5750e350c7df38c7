// Tests for epoch-report serialisation and report folding, plus the
// pipeline monitor's merged rotate/evict passthrough across its workers.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "flowtable/report_io.hpp"
#include "pipeline/pipeline.hpp"
#include "util/fault.hpp"

namespace disco::flowtable {
namespace {

FiveTuple tuple(std::uint32_t i) {
  return FiveTuple{0x0b000000u + i, 0x08080808u,
                   static_cast<std::uint16_t>(3000 + i), 53, 17};
}

FlowMonitor::EpochReport sample_report() {
  FlowMonitor::Config c;
  c.max_flows = 64;
  c.counter_bits = 12;
  c.max_flow_bytes = 1 << 24;
  c.max_flow_packets = 1 << 14;
  c.seed = 9;
  FlowMonitor monitor(c);
  for (int i = 0; i < 2000; ++i) {
    (void)monitor.ingest(tuple(static_cast<std::uint32_t>(i % 12)),
                         64 + static_cast<std::uint32_t>(i % 1400));
  }
  return monitor.rotate();
}

TEST(ReportIo, BinaryRoundTrip) {
  const auto report = sample_report();
  std::stringstream buf;
  write_report(buf, report);
  const auto parsed = read_report(buf);
  EXPECT_EQ(parsed.epoch, report.epoch);
  EXPECT_DOUBLE_EQ(parsed.totals.bytes, report.totals.bytes);
  EXPECT_DOUBLE_EQ(parsed.totals.packets, report.totals.packets);
  EXPECT_EQ(parsed.totals.flows, report.totals.flows);
  ASSERT_EQ(parsed.flows.size(), report.flows.size());
  for (std::size_t i = 0; i < report.flows.size(); ++i) {
    EXPECT_EQ(parsed.flows[i].flow, report.flows[i].flow) << i;
    EXPECT_DOUBLE_EQ(parsed.flows[i].bytes, report.flows[i].bytes) << i;
    EXPECT_DOUBLE_EQ(parsed.flows[i].packets, report.flows[i].packets) << i;
  }
}

TEST(ReportIo, EmptyReportRoundTrips) {
  FlowMonitor::EpochReport empty;
  empty.epoch = 7;
  std::stringstream buf;
  write_report(buf, empty);
  const auto parsed = read_report(buf);
  EXPECT_EQ(parsed.epoch, 7u);
  EXPECT_TRUE(parsed.flows.empty());
}

TEST(ReportIo, RejectsGarbageAndTruncation) {
  std::stringstream garbage;
  garbage << "nope";
  EXPECT_THROW((void)read_report(garbage), std::runtime_error);

  const auto report = sample_report();
  std::stringstream buf;
  write_report(buf, report);
  std::string bytes = buf.str();
  bytes.resize(bytes.size() - 9);
  std::stringstream cut(bytes);
  EXPECT_THROW((void)read_report(cut), std::runtime_error);
}

TEST(ReportIo, CsvHasHeaderAndRows) {
  const auto report = sample_report();
  std::stringstream buf;
  write_report_csv(buf, report);
  std::string line;
  ASSERT_TRUE(std::getline(buf, line));
  EXPECT_EQ(line, "src_ip,dst_ip,src_port,dst_port,protocol,bytes,packets");
  std::size_t rows = 0;
  while (std::getline(buf, line)) ++rows;
  EXPECT_EQ(rows, report.flows.size());
}

TEST(ReportIo, CombineSumsTotals) {
  const auto a = sample_report();
  const auto b = sample_report();
  FlowMonitor::EpochReport parts[] = {a, b};
  const auto merged = fold_reports(parts);
  EXPECT_EQ(merged.flows.size(), a.flows.size() + b.flows.size());
  EXPECT_DOUBLE_EQ(merged.totals.bytes, a.totals.bytes + b.totals.bytes);
  EXPECT_EQ(merged.totals.flows, a.totals.flows + b.totals.flows);
}

// --- v2 pressure block -------------------------------------------------------

TEST(ReportIo, PressureStatsRoundTripAndCombine) {
  auto a = sample_report();
  a.pressure = PressureStats{11, 7, 3, 2};
  std::stringstream buf;
  write_report(buf, a);
  const auto parsed = read_report(buf);
  EXPECT_EQ(parsed.pressure.flows_rejected, 11u);
  EXPECT_EQ(parsed.pressure.flows_evicted, 7u);
  EXPECT_EQ(parsed.pressure.counters_saturated, 3u);
  EXPECT_EQ(parsed.pressure.rescale_events, 2u);

  auto b = sample_report();
  b.pressure = PressureStats{1, 2, 3, 4};
  FlowMonitor::EpochReport parts[] = {a, b};
  const auto merged = fold_reports(parts);
  EXPECT_EQ(merged.pressure.flows_rejected, 12u);
  EXPECT_EQ(merged.pressure.rescale_events, 6u);
}

TEST(ReportIo, ReadsLegacyV1WithZeroPressure) {
  // Hand-built v1 stream: magic, version 1, epoch, totals, zero flows --
  // exactly what a pre-pressure writer emitted.
  std::stringstream buf;
  auto put = [&buf](const auto& v) {
    buf.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(kReportMagic);
  put(std::uint32_t{1});
  put(std::uint64_t{5});  // epoch
  put(double{123.0});     // totals.bytes
  put(double{4.0});       // totals.packets
  put(std::uint64_t{2});  // totals.flows
  put(std::uint64_t{0});  // flow records
  const auto parsed = read_report(buf);
  EXPECT_EQ(parsed.epoch, 5u);
  EXPECT_EQ(parsed.totals.flows, 2u);
  EXPECT_EQ(parsed.pressure.flows_rejected, 0u);
  EXPECT_EQ(parsed.pressure.rescale_events, 0u);
}

// --- short-write detection ---------------------------------------------------

/// A sink that buffers every byte happily and only admits failure at sync
/// time -- the way an ofstream over a full disk behaves.  Pre-fix,
/// write_report never flushed, so this failure escaped into a silently
/// truncated report.
class FailOnSyncBuf : public std::stringbuf {
 protected:
  int sync() override { return -1; }
};

TEST(ReportIo, DetectsSinkThatFailsAtFlushTime) {
  FailOnSyncBuf sink;
  std::ostream out(&sink);
  EXPECT_THROW(write_report(out, sample_report()), std::runtime_error);
  EXPECT_THROW(write_report_csv(out, sample_report()), std::runtime_error);
}

/// A sink that stops accepting bytes after a quota -- a short write.
class ShortWriteBuf : public std::streambuf {
 public:
  explicit ShortWriteBuf(std::size_t quota) : quota_(quota) {}

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    if (written_ + static_cast<std::size_t>(n) > quota_) return 0;
    written_ += static_cast<std::size_t>(n);
    return n;
  }
  int overflow(int) override { return traits_type::eof(); }

 private:
  std::size_t quota_;
  std::size_t written_ = 0;
};

TEST(ReportIo, DetectsShortWriteMidReport) {
  ShortWriteBuf sink(40);  // dies inside the header
  std::ostream out(&sink);
  EXPECT_THROW(write_report(out, sample_report()), std::runtime_error);
}

#if DISCO_FAULTS
TEST(ReportIo, InjectedShortWriteThrowsAndRecovers) {
  util::fault::Plan plan;
  plan.start_after = 5;  // header goes out, a flow record write fails
  plan.fail_count = 1;
  util::fault::arm(util::fault::Point::kShortWrite, plan);
  std::stringstream buf;
  EXPECT_THROW(write_report(buf, sample_report()), std::runtime_error);
  util::fault::disarm_all();
  std::stringstream clean;
  write_report(clean, sample_report());
  EXPECT_EQ(read_report(clean).flows.size(), sample_report().flows.size());
}
#endif  // DISCO_FAULTS

// --- pipeline monitor lifecycle passthrough ---------------------------------

using pipeline::PipelineMonitor;

PipelineMonitor::Config pipeline_config() {
  PipelineMonitor::Config c;
  c.base.max_flows = 256;
  c.base.counter_bits = 12;
  c.base.max_flow_bytes = 1 << 24;
  c.base.max_flow_packets = 1 << 14;
  c.base.seed = 11;
  c.workers = 4;
  c.producers = 1;
  return c;
}

/// Distinct workers owning the flows tuple(first) .. tuple(first + n - 1).
std::size_t workers_spanned(std::uint32_t first, std::uint32_t n,
                            unsigned workers) {
  std::set<unsigned> owners;
  for (std::uint32_t i = first; i < first + n; ++i) {
    owners.insert(PipelineMonitor::worker_of(tuple(i), workers));
  }
  return owners.size();
}

TEST(PipelineLifecycle, RotateMergesShardsAndClears) {
  const auto config = pipeline_config();
  PipelineMonitor monitor(config);
  ASSERT_GT(workers_spanned(0, 20, config.workers), 1u);
  for (std::uint32_t i = 0; i < 20; ++i) {
    for (int p = 0; p < 50; ++p) (void)monitor.ingest(0, tuple(i), 500);
  }
  monitor.drain();
  const auto report = monitor.rotate();
  EXPECT_EQ(report.flows.size(), 20u);
  EXPECT_NEAR(report.totals.bytes, 20.0 * 50 * 500, 20.0 * 50 * 500 * 0.2);
  EXPECT_EQ(monitor.totals().flows, 0u);  // every shard cleared
  // The merged report serialises like any single-monitor report.
  std::stringstream buf;
  write_report(buf, report);
  EXPECT_EQ(read_report(buf).flows.size(), 20u);
}

TEST(PipelineLifecycle, EvictIdleSpansWorkers) {
  const auto config = pipeline_config();
  PipelineMonitor monitor(config);
  ASSERT_GT(workers_spanned(0, 8, config.workers), 1u);
  for (std::uint32_t i = 0; i < 16; ++i) {
    (void)monitor.ingest(0, tuple(i), 400, i < 8 ? 0 : 5'000'000'000ull);
  }
  monitor.drain();
  const auto evicted = monitor.evict_idle(6'000'000'000ull, 2'000'000'000ull);
  EXPECT_EQ(evicted.size(), 8u);
  EXPECT_EQ(monitor.totals().flows, 8u);
}

}  // namespace
}  // namespace disco::flowtable
