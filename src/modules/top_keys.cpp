#include "modules/top_keys.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "modules/json_util.hpp"

namespace disco::modules {

TopKeysModule::TopKeysModule(TopKeyKind kind, const ModuleOptions& options)
    : kind_(kind),
      name_(kind == TopKeyKind::DstPort ? "topports" : "topdest"),
      options_(options) {}

void TopKeysModule::on_epoch(const EpochReport& report) {
  const core::ErrorModel volume =
      core::error_model(report.volume_b, report.volume_error_unit);
  const core::ErrorModel size =
      core::error_model(report.size_b, report.size_error_unit);
  for (const auto& flow : report.flows) {
    const std::uint32_t key = kind_ == TopKeyKind::DstPort
                                  ? flow.flow.dst_port
                                  : flow.flow.dst_ip;
    Agg& agg = aggregates_[key];
    agg.bytes.add(flow.bytes, volume, flow.packets);
    agg.packets.add(flow.packets, size, flow.packets);
    agg.flows += 1;
  }
  ++epochs_;
}

void TopKeysModule::reset() {
  aggregates_.clear();
  epochs_ = 0;
}

std::vector<TopKeysModule::Entry> TopKeysModule::top() const {
  std::vector<Entry> entries;
  entries.reserve(aggregates_.size());
  for (const auto& [key, agg] : aggregates_) {
    Entry entry;
    entry.key = key;
    entry.bytes = agg.bytes.interval(options_.confidence);
    entry.packets = agg.packets.interval(options_.confidence);
    entry.flows = agg.flows;
    entries.push_back(entry);
  }
  // Deterministic order: bytes descending, key ascending as tie-break.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.bytes.estimate != b.bytes.estimate) {
      return a.bytes.estimate > b.bytes.estimate;
    }
    return a.key < b.key;
  });
  if (entries.size() > options_.top_k) entries.resize(options_.top_k);
  return entries;
}

std::string TopKeysModule::render_key(std::uint32_t key) const {
  return kind_ == TopKeyKind::DstPort ? std::to_string(key) : json::ipv4(key);
}

void TopKeysModule::export_text(std::ostream& out) const {
  const char* label = kind_ == TopKeyKind::DstPort ? "port" : "dest";
  out << name_ << ": top " << options_.top_k << " by bytes after " << epochs_
      << " epoch(s)\n";
  for (const Entry& entry : top()) {
    out << "  " << label << ' ' << render_key(entry.key) << "  bytes "
        << entry.bytes.estimate << " [" << entry.bytes.low << ", "
        << entry.bytes.high << "]  packets " << entry.packets.estimate
        << "  flows " << entry.flows << '\n';
  }
}

std::string TopKeysModule::export_json() const {
  std::ostringstream out;
  out << "{\"module\": \"" << name_ << "\", \"epochs\": " << epochs_
      << ", \"confidence\": " << json::number(options_.confidence)
      << ", \"top\": [";
  bool first = true;
  for (const Entry& entry : top()) {
    if (!first) out << ", ";
    first = false;
    out << "{\"key\": \"" << render_key(entry.key)
        << "\", \"bytes\": " << json::number(entry.bytes.estimate)
        << ", \"bytes_low\": " << json::number(entry.bytes.low)
        << ", \"bytes_high\": " << json::number(entry.bytes.high)
        << ", \"packets\": " << json::number(entry.packets.estimate)
        << ", \"packets_low\": " << json::number(entry.packets.low)
        << ", \"packets_high\": " << json::number(entry.packets.high)
        << ", \"flows\": " << entry.flows << '}';
  }
  out << "]}";
  return out.str();
}

}  // namespace disco::modules
