#include "flowtable/report_io.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/fault.hpp"

namespace disco::flowtable {
namespace {

template <typename T>
void put(std::ostream& out, const T& value) {
  // kShortWrite models the collector socket / spool disk failing mid-report:
  // the sink stops taking bytes, which on a std::ostream manifests as badbit.
  // Compiles to the bare write() when DISCO_FAULTS is off.
  if (util::fault::fires(util::fault::Point::kShortWrite)) {
    out.setstate(std::ios::badbit);
    return;
  }
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
[[nodiscard]] T get(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!in) throw std::runtime_error("report_io: truncated input");
  return value;
}

// One double of a report that must be finite and at least `min`: 1 for a
// base, 0 for an error unit or an estimate.  A NaN fails the comparison.
[[nodiscard]] double get_at_least(std::istream& in, double min,
                                  const char* field) {
  const auto value = get<double>(in);
  if (!(std::isfinite(value) && value >= min)) {
    throw std::runtime_error(std::string("report_io: ") + field +
                             " out of range");
  }
  return value;
}

// Everything of one report after its magic.
[[nodiscard]] ReportReader::Item read_after_magic(std::istream& in) {
  if (get<std::uint32_t>(in) != kReportVersion) {
    throw std::runtime_error("report_io: unsupported version");
  }
  ReportReader::Item item;
  FlowMonitor::EpochReport& report = item.report;
  report.epoch = get<std::uint64_t>(in);
  item.site_id = get<std::uint32_t>(in);
  report.totals.bytes = get_at_least(in, 0.0, "totals.bytes");
  report.totals.packets = get_at_least(in, 0.0, "totals.packets");
  report.totals.flows = static_cast<std::size_t>(get<std::uint64_t>(in));
  report.pressure.flows_rejected = get<std::uint64_t>(in);
  report.pressure.flows_evicted = get<std::uint64_t>(in);
  report.pressure.counters_saturated = get<std::uint64_t>(in);
  report.pressure.rescale_events = get<std::uint64_t>(in);
  report.volume_b = get_at_least(in, 1.0, "volume_b");
  report.size_b = get_at_least(in, 1.0, "size_b");
  report.volume_error_unit = get_at_least(in, 0.0, "volume_error_unit");
  report.size_error_unit = get_at_least(in, 0.0, "size_error_unit");
  const auto count = get<std::uint64_t>(in);
  report.flows.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, std::uint64_t{1} << 20)));
  for (std::uint64_t i = 0; i < count; ++i) {
    FlowMonitor::FlowEstimate flow;
    flow.flow.src_ip = get<std::uint32_t>(in);
    flow.flow.dst_ip = get<std::uint32_t>(in);
    flow.flow.src_port = get<std::uint16_t>(in);
    flow.flow.dst_port = get<std::uint16_t>(in);
    flow.flow.protocol = get<std::uint8_t>(in);
    flow.bytes = get_at_least(in, 0.0, "record bytes");
    flow.packets = get_at_least(in, 0.0, "record packets");
    report.flows.push_back(flow);
  }
  return item;
}

}  // namespace

void write_report(std::ostream& out, const FlowMonitor::EpochReport& report,
                  std::uint32_t site_id) {
  put(out, kReportMagic);
  put(out, kReportVersion);
  put(out, report.epoch);
  put(out, site_id);
  put(out, report.totals.bytes);
  put(out, report.totals.packets);
  put(out, static_cast<std::uint64_t>(report.totals.flows));
  put(out, report.pressure.flows_rejected);
  put(out, report.pressure.flows_evicted);
  put(out, report.pressure.counters_saturated);
  put(out, report.pressure.rescale_events);
  put(out, report.volume_b);
  put(out, report.size_b);
  put(out, report.volume_error_unit);
  put(out, report.size_error_unit);
  put(out, static_cast<std::uint64_t>(report.flows.size()));
  for (const auto& flow : report.flows) {
    put(out, flow.flow.src_ip);
    put(out, flow.flow.dst_ip);
    put(out, flow.flow.src_port);
    put(out, flow.flow.dst_port);
    put(out, flow.flow.protocol);
    put(out, flow.bytes);
    put(out, flow.packets);
  }
  // A buffered sink can swallow every write() above and only hit the device
  // at flush time; flushing here makes short/failed writes THIS call's
  // exception instead of a silently truncated report discovered by the
  // collector.
  out.flush();
  if (!out) throw std::runtime_error("report_io: write failed");
}

std::optional<ReportReader::Item> ReportReader::next() {
  if (poisoned_) {
    throw std::runtime_error("report_io: reader poisoned by earlier error");
  }
  // Clean end-of-stream is only clean BETWEEN reports: probe for the magic
  // byte-by-byte so EOF before any magic byte means "no more reports" while
  // EOF inside the magic -- or anywhere after it -- means truncation.
  std::uint32_t magic = 0;
  char* bytes = reinterpret_cast<char*>(&magic);
  for (std::size_t i = 0; i < sizeof(magic); ++i) {
    if (!in_->read(bytes + i, 1)) {
      if (i == 0 && in_->eof()) return std::nullopt;
      poisoned_ = true;
      throw std::runtime_error("report_io: truncated input");
    }
  }
  try {
    if (magic != kReportMagic) {
      throw std::runtime_error("report_io: bad magic (not a DRPT report)");
    }
    return read_after_magic(*in_);
  } catch (...) {
    poisoned_ = true;
    throw;
  }
}

FlowMonitor::EpochReport fold_reports(
    std::span<FlowMonitor::EpochReport> parts) {
  FlowMonitor::EpochReport merged;
  if (parts.empty()) return merged;
  merged.epoch = parts.front().epoch;
  std::size_t records = 0;
  for (const auto& part : parts) records += part.flows.size();
  merged.flows.reserve(records);
  for (auto& part : parts) {
    merged.flows.insert(merged.flows.end(),
                        std::make_move_iterator(part.flows.begin()),
                        std::make_move_iterator(part.flows.end()));
    merged.totals.bytes += part.totals.bytes;
    merged.totals.packets += part.totals.packets;
    merged.totals.flows += part.totals.flows;
    merged.pressure += part.pressure;
    // RescaleB may diverge the parts' bases, and additive scale-ups their
    // error units; the max keeps merged-report intervals conservative.
    merged.volume_b = std::max(merged.volume_b, part.volume_b);
    merged.size_b = std::max(merged.size_b, part.size_b);
    merged.volume_error_unit =
        std::max(merged.volume_error_unit, part.volume_error_unit);
    merged.size_error_unit =
        std::max(merged.size_error_unit, part.size_error_unit);
  }
  return merged;
}

}  // namespace disco::flowtable
