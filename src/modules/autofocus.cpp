#include "modules/autofocus.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "modules/json_util.hpp"

namespace disco::modules {

AutofocusModule::AutofocusModule(const ModuleOptions& options)
    : options_(options) {}

void AutofocusModule::on_epoch(const EpochReport& report) {
  const core::ErrorModel volume =
      core::error_model(report.volume_b, report.volume_error_unit);
  for (const auto& flow : report.flows) {
    leaves_[flow.flow.dst_ip].add(flow.bytes, volume, flow.packets);
    total_bytes_ += flow.bytes;
  }
  ++epochs_;
  recompute();
}

void AutofocusModule::reset() {
  leaves_.clear();
  reported_.clear();
  total_bytes_ = 0.0;
  epochs_ = 0;
}

void AutofocusModule::recompute() {
  reported_.clear();
  if (total_bytes_ <= 0.0) return;
  const double threshold = options_.heavy_share * total_bytes_;

  // Per-node fold state at the current level: total traffic under the
  // prefix with its variance bound, and traffic already explained by
  // reported descendants.
  struct Node {
    core::MixedEstimateAccumulator bytes;
    double explained = 0.0;
  };

  std::unordered_map<std::uint32_t, Node> level;
  level.reserve(leaves_.size());
  for (const auto& [ip, bytes] : leaves_) {
    level[ip].bytes = bytes;
  }

  // Bottom-up: examine each level, then fold pairs into the parent level.
  // A node is reported when its residual clears the threshold; a reported
  // node's FULL traffic counts as explained for its ancestors (AutoFocus's
  // compression rule), so ancestors only surface for what their reported
  // children do not cover.
  for (int length = 32; length >= 0; --length) {
    for (auto& [prefix, node] : level) {
      const double residual = node.bytes.sum() - node.explained;
      if (residual >= threshold) {
        Prefix out;
        out.prefix = prefix;
        out.length = length;
        out.bytes = node.bytes.sum();
        out.residual = residual;
        out.bytes_ci = node.bytes.interval(options_.confidence);
        reported_.push_back(out);
        node.explained = node.bytes.sum();
      }
    }
    if (length == 0) break;
    std::unordered_map<std::uint32_t, Node> parents;
    parents.reserve(level.size());
    const std::uint32_t parent_mask =
        length >= 2 ? ~((std::uint32_t{1} << (33 - length)) - 1) : 0;
    for (auto& [prefix, node] : level) {
      Node& parent = parents[prefix & parent_mask];
      parent.bytes.merge(node.bytes);
      parent.explained += node.explained;
    }
    level = std::move(parents);
  }

  std::sort(reported_.begin(), reported_.end(),
            [](const Prefix& a, const Prefix& b) {
              if (a.residual != b.residual) return a.residual > b.residual;
              if (a.length != b.length) return a.length > b.length;
              return a.prefix < b.prefix;
            });
}

void AutofocusModule::export_text(std::ostream& out) const {
  out << "autofocus: " << reported_.size() << " prefix(es) >= "
      << options_.heavy_share * 100.0 << "% residual of " << total_bytes_
      << " bytes, " << epochs_ << " epoch(s)\n";
  for (const Prefix& p : reported_) {
    out << "  " << json::ipv4(p.prefix) << '/' << p.length << "  bytes "
        << p.bytes;
    if (p.bytes_ci.valid) {
      out << " [" << p.bytes_ci.low << ", " << p.bytes_ci.high << ']';
    } else {
      out << " [interval unavailable]";
    }
    out << "  residual " << p.residual << '\n';
  }
}

std::string AutofocusModule::export_json() const {
  std::ostringstream out;
  out << "{\"module\": \"autofocus\", \"epochs\": " << epochs_
      << ", \"total_bytes\": " << json::number(total_bytes_)
      << ", \"heavy_share\": " << json::number(options_.heavy_share)
      << ", \"prefixes\": [";
  bool first = true;
  for (const Prefix& p : reported_) {
    if (!first) out << ", ";
    first = false;
    out << "{\"prefix\": \"" << json::ipv4(p.prefix) << '/' << p.length
        << "\", \"bytes\": " << json::number(p.bytes)
        << ", \"bytes_low\": " << json::bound(p.bytes_ci.low, p.bytes_ci.valid)
        << ", \"bytes_high\": "
        << json::bound(p.bytes_ci.high, p.bytes_ci.valid)
        << ", \"residual\": " << json::number(p.residual) << '}';
  }
  out << "]}";
  return out.str();
}

}  // namespace disco::modules
