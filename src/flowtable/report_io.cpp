#include "flowtable/report_io.hpp"

#include <algorithm>
#include <istream>
#include <iterator>
#include <ostream>
#include <stdexcept>

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

// Body shared by read_report and ReportReader: everything after the magic.
[[nodiscard]] ReportReader::Item read_after_magic(std::istream& in) {
  ReportReader::Item item;
  const auto version = get<std::uint32_t>(in);
  if (version < 1 || version > kReportVersion) {
    throw std::runtime_error("report_io: unsupported version");
  }
  item.version = version;
  FlowMonitor::EpochReport& report = item.report;
  report.epoch = get<std::uint64_t>(in);
  if (version >= 3) item.site_id = get<std::uint32_t>(in);
  report.totals.bytes = get<double>(in);
  report.totals.packets = get<double>(in);
  report.totals.flows = static_cast<std::size_t>(get<std::uint64_t>(in));
  if (version >= 2) {
    report.pressure.flows_rejected = get<std::uint64_t>(in);
    report.pressure.flows_evicted = get<std::uint64_t>(in);
    report.pressure.counters_saturated = get<std::uint64_t>(in);
    report.pressure.rescale_events = get<std::uint64_t>(in);
  }
  if (version >= 3) {
    report.volume_b = get<double>(in);
    report.size_b = get<double>(in);
    report.volume_error_unit = get<double>(in);
    report.size_error_unit = get<double>(in);
  }
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
    flow.bytes = get<double>(in);
    flow.packets = get<double>(in);
    report.flows.push_back(flow);
  }
  return item;
}

}  // namespace

void write_report(std::ostream& out, const FlowMonitor::EpochReport& report,
                  std::uint32_t site_id, std::uint32_t version) {
  if (version < 1 || version > kReportVersion) {
    // Programmer error (a caller invented a version), not an I/O failure.
    throw std::invalid_argument("report_io: cannot write unsupported version");
  }
  put(out, kReportMagic);
  put(out, version);
  put(out, report.epoch);
  if (version >= 3) put(out, site_id);
  put(out, report.totals.bytes);
  put(out, report.totals.packets);
  put(out, static_cast<std::uint64_t>(report.totals.flows));
  if (version >= 2) {
    put(out, report.pressure.flows_rejected);
    put(out, report.pressure.flows_evicted);
    put(out, report.pressure.counters_saturated);
    put(out, report.pressure.rescale_events);
  }
  if (version >= 3) {
    put(out, report.volume_b);
    put(out, report.size_b);
    put(out, report.volume_error_unit);
    put(out, report.size_error_unit);
  }
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

FlowMonitor::EpochReport read_report(std::istream& in) {
  if (get<std::uint32_t>(in) != kReportMagic) {
    throw std::runtime_error("report_io: bad magic (not a DRPT report)");
  }
  return read_after_magic(in).report;
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
    Item item = read_after_magic(*in_);
    ++items_;
    return item;
  } catch (...) {
    poisoned_ = true;
    throw;
  }
}

void write_report_csv(std::ostream& out, const FlowMonitor::EpochReport& report) {
  out << "src_ip,dst_ip,src_port,dst_port,protocol,bytes,packets\n";
  for (const auto& flow : report.flows) {
    out << flow.flow.src_ip << ',' << flow.flow.dst_ip << ','
        << flow.flow.src_port << ',' << flow.flow.dst_port << ','
        << static_cast<int>(flow.flow.protocol) << ',' << flow.bytes << ','
        << flow.packets << '\n';
  }
  out.flush();  // same short-write rationale as write_report
  if (!out) throw std::runtime_error("report_io: CSV write failed");
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
