// application -- traffic breakdown by application class.
//
// Modeled on the CoMo exemplar application.c: classify each flow by its
// well-known port (the smaller-numbered of src/dst wins, matching the
// convention that servers sit on the registered port) and report each
// class's share of total estimated bytes, packets, and flows, cumulative
// across epochs.  Byte totals carry aggregate intervals
// (core/estimate_merge.hpp).
//
// Options read: confidence.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "core/estimate_merge.hpp"
#include "modules/module.hpp"

namespace disco::modules {

/// Application classes the classifier distinguishes.  Kept coarse on
/// purpose: port-based classification is a triage signal, not DPI.
enum class AppClass : std::uint8_t {
  Web,      ///< 80, 443, 8080, 8443
  Dns,      ///< 53
  Mail,     ///< 25, 110, 143, 465, 587, 993, 995
  Ssh,      ///< 22
  Ftp,      ///< 20, 21
  Ntp,      ///< 123
  Icmp,     ///< protocol 1 (ports are meaningless)
  Other,    ///< everything else
};
inline constexpr std::size_t kAppClassCount = 8;

/// Class of one flow, from protocol + well-known ports.
[[nodiscard]] AppClass classify_flow(const FiveTuple& flow) noexcept;

/// Stable lowercase label ("web", "dns", ...).
[[nodiscard]] std::string_view app_class_name(AppClass c) noexcept;

class ApplicationModule final : public AnalysisModule {
 public:
  explicit ApplicationModule(const ModuleOptions& options = {});

  [[nodiscard]] std::string_view name() const noexcept override {
    return "application";
  }
  void on_epoch(const EpochReport& report) override;
  void reset() override;
  void export_text(std::ostream& out) const override;
  [[nodiscard]] std::string export_json() const override;

  struct ClassStats {
    core::MixedEstimateAccumulator bytes;
    core::MixedEstimateAccumulator packets;
    std::uint64_t flows = 0;
  };
  /// Cumulative stats for one class (index by static_cast<size_t>(AppClass)).
  [[nodiscard]] const ClassStats& stats(AppClass c) const noexcept {
    return classes_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] double total_bytes() const noexcept { return total_bytes_; }
  [[nodiscard]] std::uint64_t epochs() const noexcept { return epochs_; }

 private:
  std::array<ClassStats, kAppClassCount> classes_{};
  double total_bytes_ = 0.0;
  std::uint64_t epochs_ = 0;
  ModuleOptions options_;
};

}  // namespace disco::modules
