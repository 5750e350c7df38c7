// Tests for epoch-report serialisation and report folding, plus the
// pipeline monitor's merged rotate/evict passthrough across its workers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <string>

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

/// The first report of `in`, read through ReportReader; throws like it.
FlowMonitor::EpochReport read_one(std::istream& in) {
  ReportReader reader(in);
  auto item = reader.next();
  if (!item) throw std::runtime_error("no report in stream");
  return std::move(item->report);
}

TEST(ReportIo, BinaryRoundTrip) {
  const auto report = sample_report();
  std::stringstream buf;
  write_report(buf, report);
  const auto parsed = read_one(buf);
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
  const auto parsed = read_one(buf);
  EXPECT_EQ(parsed.epoch, 7u);
  EXPECT_TRUE(parsed.flows.empty());
}

TEST(ReportIo, RejectsGarbageAndTruncation) {
  std::stringstream garbage;
  garbage << "nope";
  EXPECT_THROW((void)read_one(garbage), std::runtime_error);

  const auto report = sample_report();
  std::stringstream buf;
  write_report(buf, report);
  std::string bytes = buf.str();
  bytes.resize(bytes.size() - 9);
  std::stringstream cut(bytes);
  EXPECT_THROW((void)read_one(cut), std::runtime_error);
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

// --- pressure block ----------------------------------------------------------

TEST(ReportIo, PressureStatsRoundTripAndCombine) {
  auto a = sample_report();
  a.pressure = PressureStats{11, 7, 3, 2};
  std::stringstream buf;
  write_report(buf, a);
  const auto parsed = read_one(buf);
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

// --- the v3 byte layout and what the reader rejects ---------------------------

/// Appends `value`'s bytes to `out` as the wire carries them (little-endian,
/// no padding).
template <typename T>
void put(std::string& out, T value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// The fields of a hand-built one-record DRPT stream that a test varies.
struct Wire {
  std::uint32_t version = kReportVersion;
  double totals_bytes = 1500.0;
  double volume_b = 1.0625;
  double size_b = 1.03125;
  double volume_error_unit = 0.0;
  double size_error_unit = 0.5;
  double record_bytes = 1500.0;
  double record_packets = 3.0;
};

/// A v3 stream built field by field, in docs/collector.md's table order.
std::string v3_stream(const Wire& w = {}) {
  std::string out;
  put(out, kReportMagic);
  put(out, w.version);
  put(out, std::uint64_t{5});   // epoch
  put(out, std::uint32_t{9});   // site id
  put(out, w.totals_bytes);     // totals.bytes
  put(out, double{3.0});        // totals.packets
  put(out, std::uint64_t{1});   // totals.flows
  put(out, std::uint64_t{11});  // pressure.flows_rejected
  put(out, std::uint64_t{7});   // pressure.flows_evicted
  put(out, std::uint64_t{3});   // pressure.counters_saturated
  put(out, std::uint64_t{2});   // pressure.rescale_events
  put(out, w.volume_b);
  put(out, w.size_b);
  put(out, w.volume_error_unit);
  put(out, w.size_error_unit);
  put(out, std::uint64_t{1});            // record count
  put(out, std::uint32_t{0x0a000001u});  // src_ip
  put(out, std::uint32_t{0xc0a80001u});  // dst_ip
  put(out, std::uint16_t{1234});         // src_port
  put(out, std::uint16_t{443});          // dst_port
  put(out, std::uint8_t{6});             // protocol
  put(out, w.record_bytes);
  put(out, w.record_packets);
  return out;
}

/// What ReportReader::next throws on `bytes` ("" if it returns a report).
/// A reader that threw must stay poisoned.
std::string rejection(const std::string& bytes) {
  std::stringstream in(bytes);
  ReportReader reader(in);
  try {
    (void)reader.next();
  } catch (const std::runtime_error& e) {
    EXPECT_THROW((void)reader.next(), std::runtime_error) << "not poisoned";
    return e.what();
  }
  return "";
}

TEST(ReportIo, V3ByteLayoutIsPinned) {
  const std::string bytes = v3_stream();
  ASSERT_EQ(bytes.size(), 116u + 29u);  // header, then one 29-byte record

  std::stringstream in(bytes);
  ReportReader reader(in);
  const auto item = reader.next();
  ASSERT_TRUE(item.has_value());
  const FlowMonitor::EpochReport& r = item->report;
  EXPECT_EQ(item->site_id, 9u);
  EXPECT_EQ(r.epoch, 5u);
  EXPECT_EQ(r.totals.bytes, 1500.0);
  EXPECT_EQ(r.totals.packets, 3.0);
  EXPECT_EQ(r.totals.flows, 1u);
  EXPECT_EQ(r.pressure.flows_rejected, 11u);
  EXPECT_EQ(r.pressure.flows_evicted, 7u);
  EXPECT_EQ(r.pressure.counters_saturated, 3u);
  EXPECT_EQ(r.pressure.rescale_events, 2u);
  EXPECT_EQ(r.volume_b, 1.0625);
  EXPECT_EQ(r.size_b, 1.03125);
  EXPECT_EQ(r.volume_error_unit, 0.0);
  EXPECT_EQ(r.size_error_unit, 0.5);
  ASSERT_EQ(r.flows.size(), 1u);
  EXPECT_EQ(r.flows[0].flow, (FiveTuple{0x0a000001u, 0xc0a80001u, 1234, 443, 6}));
  EXPECT_EQ(r.flows[0].bytes, 1500.0);
  EXPECT_EQ(r.flows[0].packets, 3.0);
  EXPECT_FALSE(reader.next().has_value());

  // The writer emits exactly these bytes for the same report.
  std::stringstream out;
  write_report(out, r, item->site_id);
  EXPECT_EQ(out.str(), bytes);
}

TEST(ReportIo, RejectsEveryVersionButThree) {
  // v1: magic, version, epoch, totals, record count.
  std::string v1;
  put(v1, kReportMagic);
  put(v1, std::uint32_t{1});
  put(v1, std::uint64_t{5});
  put(v1, double{123.0});
  put(v1, double{4.0});
  put(v1, std::uint64_t{2});
  put(v1, std::uint64_t{0});
  EXPECT_NE(rejection(v1).find("unsupported version"), std::string::npos);

  // v2: v1 plus the four pressure counters before the record count.
  std::string v2;
  put(v2, kReportMagic);
  put(v2, std::uint32_t{2});
  put(v2, std::uint64_t{5});
  put(v2, double{123.0});
  put(v2, double{4.0});
  put(v2, std::uint64_t{2});
  for (int i = 0; i < 4; ++i) put(v2, std::uint64_t{0});
  put(v2, std::uint64_t{0});
  EXPECT_NE(rejection(v2).find("unsupported version"), std::string::npos);

  Wire v4;
  v4.version = 4;
  EXPECT_NE(rejection(v3_stream(v4)).find("unsupported version"),
            std::string::npos);
  EXPECT_EQ(rejection(v3_stream()), "");
}

TEST(ReportIo, RejectsHeadersWithoutAnErrorModel) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Wire zero_base;  // the old "no error metadata" marker
  zero_base.volume_b = 0.0;
  Wire nan_base;
  nan_base.size_b = nan;
  Wire negative_unit;
  negative_unit.volume_error_unit = -1.0;
  Wire infinite_unit;
  infinite_unit.size_error_unit = std::numeric_limits<double>::infinity();
  for (const Wire& w : {zero_base, nan_base, negative_unit, infinite_unit}) {
    EXPECT_NE(rejection(v3_stream(w)), "");
  }
  Wire additive;  // b == 1 with a unit: an additive-error report
  additive.volume_b = 1.0;
  additive.size_b = 1.0;
  additive.volume_error_unit = 4.0;
  EXPECT_EQ(rejection(v3_stream(additive)), "");
}

TEST(ReportIo, RejectsEstimatesNoMonitorWrites) {
  Wire nan_bytes;
  nan_bytes.record_bytes = std::numeric_limits<double>::quiet_NaN();
  Wire negative_packets;
  negative_packets.record_packets = -2.0;
  Wire infinite_totals;
  infinite_totals.totals_bytes = std::numeric_limits<double>::infinity();
  for (const Wire& w : {nan_bytes, negative_packets, infinite_totals}) {
    EXPECT_NE(rejection(v3_stream(w)), "");
  }
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
  EXPECT_EQ(read_one(clean).flows.size(), sample_report().flows.size());
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
  EXPECT_EQ(read_one(buf).flows.size(), 20u);
}

}  // namespace
}  // namespace disco::flowtable
