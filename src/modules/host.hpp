// ModuleHost -- owns a set of analysis modules and drives their lifecycle.
//
// The host is the glue between a monitor's epoch subscription and the
// modules: attach() modules, subscribe_to() a monitor (or call on_epoch()
// by hand), and every rotate() fans the report out to every module with
// per-module telemetry around each dispatch:
//
//   modules.<name>.epochs_total   epochs delivered to the module
//   modules.<name>.flows_total    flow records the module has seen
//   modules.<name>.epoch_ns       wall time of each on_epoch call
//
// ('-' in module names maps to '_' in metric names, keeping the registry's
// dotted-path convention; docs/telemetry.md has the catalogue entry.)
//
// The factory functions at the bottom are the CLI's registry: every
// built-in module is constructible by name, so tools expose
// `--modules=topports,autofocus` without knowing the concrete types.
//
// Ownership/lifetime: the host must outlive any monitor it subscribed to
// (monitors hold a raw `this` in the subscriber closure), and like the
// modules themselves it is single-threaded -- drive it from the rotating /
// control-plane thread only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "modules/module.hpp"
#include "telemetry/metrics.hpp"

namespace disco::modules {

class ModuleHost {
 public:
  /// `telemetry_prefix` scopes the per-module metrics ("modules" gives the
  /// documented names above).
  explicit ModuleHost(std::string telemetry_prefix = "modules");

  ModuleHost(const ModuleHost&) = delete;
  ModuleHost& operator=(const ModuleHost&) = delete;

  /// Takes ownership of `module`.  Throws std::invalid_argument when a
  /// module with the same name is already attached (names are the CLI and
  /// export identity, so duplicates would shadow each other).  Returns the
  /// attached module for convenience.
  AnalysisModule& attach(std::unique_ptr<AnalysisModule> module);

  /// Delivers one epoch report to every module, in attach order.
  void on_epoch(const EpochReport& report);

  /// Forwards flush() / reset() to every module.
  void flush();
  void reset();

  /// Registers this host's on_epoch with a monitor's epoch subscription.
  /// Works for FlowMonitor, PipelineMonitor, and collect::Collector -- any
  /// type with subscribe(EpochSubscriber).  The host must outlive `monitor`.
  template <typename Monitor>
  void subscribe_to(Monitor& monitor) {
    monitor.subscribe([this](const EpochReport& report) { on_epoch(report); });
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::uint64_t epochs_dispatched() const noexcept {
    return epochs_dispatched_;
  }

  /// The attached module with this name, or nullptr.
  [[nodiscard]] AnalysisModule* find(std::string_view name) noexcept;
  [[nodiscard]] const AnalysisModule* find(std::string_view name) const noexcept;

  /// Concatenated text reports (one block per module, attach order).
  void export_text(std::ostream& out) const;

  /// Combined document: {"epochs": N, "modules": [<module docs>]}.
  [[nodiscard]] std::string export_json() const;

 private:
  struct Entry {
    std::unique_ptr<AnalysisModule> module;
    telemetry::Counter* epochs = nullptr;
    telemetry::Counter* flows = nullptr;
    telemetry::LatencyHistogram* epoch_ns = nullptr;
  };

  std::string telemetry_prefix_;
  std::vector<Entry> entries_;
  std::uint64_t epochs_dispatched_ = 0;
};

// --- factory ----------------------------------------------------------------

/// Names of every built-in module, in canonical (documentation) order.
[[nodiscard]] const std::vector<std::string>& available_modules();

/// Constructs a built-in module by name.  Throws std::invalid_argument for
/// unknown names (the message lists the valid ones).
[[nodiscard]] std::unique_ptr<AnalysisModule> make_module(
    std::string_view name, const ModuleOptions& options = {});

/// Parses a comma-separated selection ("topports,autofocus"; "all" or ""
/// selects every built-in) and constructs each named module.  Throws
/// std::invalid_argument on unknown names or duplicates.
[[nodiscard]] std::vector<std::unique_ptr<AnalysisModule>> make_modules(
    std::string_view selection, const ModuleOptions& options = {});

}  // namespace disco::modules
