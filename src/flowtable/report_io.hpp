// Epoch-report serialisation: the export half of a measurement pipeline.
//
// A monitoring appliance rotates epochs and ships each interval's per-flow
// records to a collector.  This module defines the wire format ("DRPT"): a
// fixed header (epoch id, site id, totals, pressure counters, and the error
// metadata -- effective bases volume_b/size_b and additive error units --
// that lets a collector attach Theorem 2 / additive confidence intervals to
// estimates merged across sites) followed by per-flow records (5-tuple,
// estimated bytes, estimated packets).  docs/collector.md has the
// byte-level table.  The collector side (src/collect) re-aggregates reports
// from several appliances at the estimate level; counter-level aggregation
// is core/disco.hpp's merge.
//
// There is one wire version, 3.  The reader rejects any other, and any
// report whose error metadata or estimates no monitor would write, so
// every report it returns carries a usable error model.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>

#include "flowtable/monitor.hpp"

namespace disco::flowtable {

inline constexpr std::uint32_t kReportMagic = 0x54505244;  // "DRPT" LE
inline constexpr std::uint32_t kReportVersion = 3;

/// Writes one epoch report.  `site_id` identifies the producing monitor
/// process in a multi-site deployment.  Throws std::runtime_error on I/O
/// failure -- including short writes a buffered sink only surfaces at flush
/// time: the stream is flushed before this returns, so a report that came
/// back without an exception is fully on the wire.
void write_report(std::ostream& out, const FlowMonitor::EpochReport& report,
                  std::uint32_t site_id = 0);

/// Streaming reader for a concatenated sequence of reports -- a spool file
/// a monitor appends to, or a collector socket.  next() distinguishes the
/// two ways a stream can end: cleanly BETWEEN reports (nullopt) versus
/// mid-report (std::runtime_error), so a truncated spool tail or a torn
/// socket write is detected, never silently dropped.
class ReportReader {
 public:
  explicit ReportReader(std::istream& in) : in_(&in) {}

  struct Item {
    std::uint32_t site_id = 0;
    FlowMonitor::EpochReport report;
  };

  /// The next report, or nullopt at a clean end-of-stream.  Throws
  /// std::runtime_error on truncation or malformed bytes: a bad magic, a
  /// version other than kReportVersion, a base that is not finite and >= 1,
  /// an error unit that is not finite and >= 0, or totals or a record's
  /// bytes or packets that are NaN, infinite or negative.  The reader is
  /// then poisoned (every later call rethrows) because resynchronising
  /// inside a torn binary stream would risk double-counting.
  [[nodiscard]] std::optional<Item> next();

 private:
  std::istream* in_;
  bool poisoned_ = false;
};

/// Merges the reports of one epoch's shards (or appliances) into one, in
/// order: the flow records are moved out of `parts` and concatenated after
/// a single reserve; totals and pressure are summed part by part, so the
/// sums are bit-identical to adding the parts' totals in that order; the
/// effective bases and error units take the max across parts, keeping any
/// interval derived from the merged report conservative for every record.
/// The epoch id is the first part's.  PipelineMonitor::rotate folds its
/// shard reports through it, and collect::Collector its sites' reports.
/// Same-key flows from different parts stay separate records; the
/// collector fuses them afterwards.
[[nodiscard]] FlowMonitor::EpochReport fold_reports(
    std::span<FlowMonitor::EpochReport> parts);

}  // namespace disco::flowtable
