// Epoch-report serialisation: the export half of a measurement pipeline.
//
// A monitoring appliance rotates epochs and ships each interval's per-flow
// records to a collector.  This module defines the wire format ("DRPT"): a
// fixed header (epoch id, totals) followed by per-flow records (5-tuple,
// estimated bytes, estimated packets).  Binary for collectors, CSV for
// humans.  The collector side (src/collect, docs/collector.md) re-aggregates
// reports from several appliances at the estimate level; counter-level
// aggregation is core/disco.hpp's merge.
//
// Version history (docs/collector.md has the byte-level tables):
//   v1  header (epoch, totals) + flow records.
//   v2  inserts the report's PressureStats between totals and flows, so a
//       collector can tell a clean report from one produced under pressure.
//   v3  adds a site id after the epoch, and the estimator error metadata
//       (effective bases volume_b/size_b, additive error units) after the
//       pressure block -- everything a collector needs to attach Theorem 2
//       / additive confidence intervals to estimates merged across sites.
// Readers accept all versions; absent fields read as zero (volume_b == 0
// marks a legacy report whose base is unknown).
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
/// process in a multi-site deployment (v3+ field; dropped when emitting
/// older versions).  `version` selects the wire version, for mixed fleets
/// where the collector is newer than some monitors.  Throws
/// std::runtime_error on I/O failure -- including short writes a buffered
/// sink only surfaces at flush time: the stream is flushed before this
/// returns, so a report that came back without an exception is fully on the
/// wire.
void write_report(std::ostream& out, const FlowMonitor::EpochReport& report,
                  std::uint32_t site_id = 0,
                  std::uint32_t version = kReportVersion);

/// Reads a report written by write_report (any supported version).  Throws
/// std::runtime_error on malformed input.  Fields a version lacks read as
/// zero; the v3 site id is not surfaced here (use ReportReader).
[[nodiscard]] FlowMonitor::EpochReport read_report(std::istream& in);

/// Streaming reader for a concatenated sequence of reports -- a spool file
/// a monitor appends to, or a collector socket.  next() distinguishes the
/// two ways a stream can end: cleanly BETWEEN reports (nullopt) versus
/// mid-report (std::runtime_error), so a truncated spool tail or a torn
/// socket write is detected, never silently dropped.
class ReportReader {
 public:
  explicit ReportReader(std::istream& in) : in_(&in) {}

  struct Item {
    std::uint32_t version = 0;  ///< wire version this report arrived as
    std::uint32_t site_id = 0;  ///< 0 for pre-v3 reports
    FlowMonitor::EpochReport report;
  };

  /// The next report, or nullopt at a clean end-of-stream.  Throws
  /// std::runtime_error on truncation or malformed bytes; the reader is
  /// then poisoned (every later call rethrows) because resynchronising
  /// inside a torn binary stream would risk double-counting.
  [[nodiscard]] std::optional<Item> next();

  /// Reports returned so far (spool-offset bookkeeping for pollers).
  [[nodiscard]] std::uint64_t items_read() const noexcept { return items_; }

 private:
  std::istream* in_;
  std::uint64_t items_ = 0;
  bool poisoned_ = false;
};

/// Human-readable CSV: header row then "src_ip,dst_ip,src_port,dst_port,
/// protocol,bytes,packets" per flow.
void write_report_csv(std::ostream& out, const FlowMonitor::EpochReport& report);

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
