// autofocus -- hierarchical heavy-hitter prefixes (AutoFocus-style).
//
// Modeled on the CoMo exemplar autofocus.c, which implements Estan et al.'s
// AutoFocus compression: instead of listing every heavy /32, report the
// most specific prefixes whose UNEXPLAINED (residual) traffic -- bytes not
// already attributed to a reported descendant prefix -- reaches
// `heavy_share` of total bytes.  A single hot host surfaces as its /32; a
// scanned /24 whose individual hosts are all small surfaces as the /24; the
// root absorbs whatever is left only if the leftovers themselves clear the
// threshold.
//
// State is a cumulative per-/32 destination byte map (DISCO estimates);
// each epoch the prefix tree is re-derived bottom-up from it, 33 levels of
// hash-map folding -- O(distinct dsts * 33), trivial next to ingest.
//
// Options read: heavy_share, confidence.
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

class AutofocusModule final : public AnalysisModule {
 public:
  explicit AutofocusModule(const ModuleOptions& options = {});

  [[nodiscard]] std::string_view name() const noexcept override {
    return "autofocus";
  }
  void on_epoch(const EpochReport& report) override;
  void reset() override;
  void export_text(std::ostream& out) const override;
  [[nodiscard]] std::string export_json() const override;

  struct Prefix {
    std::uint32_t prefix = 0;  ///< network address (low bits zero)
    int length = 0;            ///< prefix length, 0..32
    double bytes = 0.0;        ///< total estimated bytes under the prefix
    double residual = 0.0;     ///< bytes minus reported-descendant bytes
    core::MergedInterval bytes_ci;  ///< aggregate interval on `bytes`
  };
  /// Reported prefixes, residual descending (recomputed each epoch).
  [[nodiscard]] const std::vector<Prefix>& report() const noexcept {
    return reported_;
  }
  [[nodiscard]] double total_bytes() const noexcept { return total_bytes_; }
  [[nodiscard]] std::uint64_t epochs() const noexcept { return epochs_; }

 private:
  void recompute();

  ModuleOptions options_;
  /// Per dst /32.
  std::unordered_map<std::uint32_t, core::MixedEstimateAccumulator> leaves_;
  std::vector<Prefix> reported_;
  double total_bytes_ = 0.0;
  std::uint64_t epochs_ = 0;
};

}  // namespace disco::modules
