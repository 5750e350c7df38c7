// topports / topdest -- top-k aggregation with DISCO confidence intervals.
//
// Modeled on the CoMo exemplars topports.c / topdest.c: fold every epoch's
// per-flow estimates into per-key aggregates (destination port or
// destination address), keep the running totals across epochs, and report
// the k heaviest keys by estimated bytes.  Unlike CoMo's exact counters,
// the inputs here are DISCO (or additive-error) estimates, so each reported
// key carries an aggregate interval (core/estimate_merge.hpp), every record
// folded under its own epoch report's error model -- the number a collector
// needs to decide whether #1 and #2 are really distinguishable.
//
// Options read: top_k, confidence.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/estimate_merge.hpp"
#include "modules/module.hpp"

namespace disco::modules {

/// What a TopKeysModule aggregates by.
enum class TopKeyKind {
  DstPort,  ///< key = destination port (module name "topports")
  DstIp,    ///< key = destination IPv4 address (module name "topdest")
};

class TopKeysModule final : public AnalysisModule {
 public:
  explicit TopKeysModule(TopKeyKind kind, const ModuleOptions& options = {});

  [[nodiscard]] std::string_view name() const noexcept override { return name_; }
  void on_epoch(const EpochReport& report) override;
  void reset() override;
  void export_text(std::ostream& out) const override;
  [[nodiscard]] std::string export_json() const override;

  /// One reported key, heaviest first.
  struct Entry {
    std::uint32_t key = 0;  ///< port number or IPv4 address, per kind()
    core::MergedInterval bytes;  ///< estimate + aggregate interval
    core::MergedInterval packets;
    std::uint64_t flows = 0;  ///< flow records folded into this key
  };

  /// The current top-k, recomputed on demand from the cumulative aggregates.
  [[nodiscard]] std::vector<Entry> top() const;

  [[nodiscard]] TopKeyKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::uint64_t epochs() const noexcept { return epochs_; }

 private:
  struct Agg {
    core::MixedEstimateAccumulator bytes;
    core::MixedEstimateAccumulator packets;
    std::uint64_t flows = 0;
  };

  [[nodiscard]] std::string render_key(std::uint32_t key) const;

  TopKeyKind kind_;
  std::string name_;
  ModuleOptions options_;
  std::unordered_map<std::uint32_t, Agg> aggregates_;
  std::uint64_t epochs_ = 0;
};

}  // namespace disco::modules
