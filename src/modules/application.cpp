#include "modules/application.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "modules/json_util.hpp"

namespace disco::modules {

namespace {

AppClass classify_port(std::uint16_t port) noexcept {
  switch (port) {
    case 80: case 443: case 8080: case 8443: return AppClass::Web;
    case 53: return AppClass::Dns;
    case 25: case 110: case 143: case 465: case 587: case 993: case 995:
      return AppClass::Mail;
    case 22: return AppClass::Ssh;
    case 20: case 21: return AppClass::Ftp;
    case 123: return AppClass::Ntp;
    default: return AppClass::Other;
  }
}

}  // namespace

AppClass classify_flow(const FiveTuple& flow) noexcept {
  if (flow.protocol == 1) return AppClass::Icmp;
  // The server side of a connection carries the registered port; it is
  // almost always the smaller of the two (ephemeral ports start at 1024+).
  const std::uint16_t lo = std::min(flow.src_port, flow.dst_port);
  const std::uint16_t hi = std::max(flow.src_port, flow.dst_port);
  const AppClass by_lo = classify_port(lo);
  return by_lo != AppClass::Other ? by_lo : classify_port(hi);
}

std::string_view app_class_name(AppClass c) noexcept {
  switch (c) {
    case AppClass::Web: return "web";
    case AppClass::Dns: return "dns";
    case AppClass::Mail: return "mail";
    case AppClass::Ssh: return "ssh";
    case AppClass::Ftp: return "ftp";
    case AppClass::Ntp: return "ntp";
    case AppClass::Icmp: return "icmp";
    case AppClass::Other: return "other";
  }
  return "other";
}

ApplicationModule::ApplicationModule(const ModuleOptions& options)
    : options_(options) {}

void ApplicationModule::on_epoch(const EpochReport& report) {
  const core::ErrorModel volume =
      core::error_model(report.volume_b, report.volume_error_unit);
  const core::ErrorModel size =
      core::error_model(report.size_b, report.size_error_unit);
  for (const auto& flow : report.flows) {
    ClassStats& stats = classes_[static_cast<std::size_t>(classify_flow(flow.flow))];
    stats.bytes.add(flow.bytes, volume, flow.packets);
    stats.packets.add(flow.packets, size, flow.packets);
    stats.flows += 1;
    total_bytes_ += flow.bytes;
  }
  ++epochs_;
}

void ApplicationModule::reset() {
  classes_ = {};
  total_bytes_ = 0.0;
  epochs_ = 0;
}

void ApplicationModule::export_text(std::ostream& out) const {
  out << "application: byte share by class after " << epochs_ << " epoch(s)\n";
  for (std::size_t i = 0; i < kAppClassCount; ++i) {
    const ClassStats& stats = classes_[i];
    if (stats.flows == 0) continue;
    const double share =
        total_bytes_ > 0.0 ? stats.bytes.sum() / total_bytes_ : 0.0;
    out << "  " << app_class_name(static_cast<AppClass>(i)) << "  "
        << share * 100.0 << "%  bytes " << stats.bytes.sum() << "  flows "
        << stats.flows;
    if (!stats.bytes.interval_valid()) out << "  [interval unavailable]";
    out << '\n';
  }
}

std::string ApplicationModule::export_json() const {
  std::ostringstream out;
  out << "{\"module\": \"application\", \"epochs\": " << epochs_
      << ", \"total_bytes\": " << json::number(total_bytes_)
      << ", \"classes\": [";
  bool first = true;
  for (std::size_t i = 0; i < kAppClassCount; ++i) {
    const ClassStats& stats = classes_[i];
    if (stats.flows == 0) continue;
    if (!first) out << ", ";
    first = false;
    const auto ci = stats.bytes.interval(options_.confidence);
    const double share = total_bytes_ > 0.0 ? ci.estimate / total_bytes_ : 0.0;
    out << "{\"class\": \"" << app_class_name(static_cast<AppClass>(i))
        << "\", \"bytes\": " << json::number(ci.estimate)
        << ", \"bytes_low\": " << json::bound(ci.low, ci.valid)
        << ", \"bytes_high\": " << json::bound(ci.high, ci.valid)
        << ", \"share\": " << json::number(share)
        << ", \"packets\": " << json::number(stats.packets.sum())
        << ", \"flows\": " << stats.flows << '}';
  }
  out << "]}";
  return out.str();
}

}  // namespace disco::modules
