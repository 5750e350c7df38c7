// CounterBank -- one counter array, two selectable estimator families.
//
// FlowMonitor's volume and size counters can run either estimator:
//
//   * EstimatorKind::Disco (default): core::DiscoArray, the paper's
//     logarithmic counters -- multiplicative error bounded by Theorem 2,
//     RescaleB, and always the decision-table fast path.
//   * EstimatorKind::AdditiveError: core::AdditiveErrorArray -- cheaper
//     shift-and-round updates with an additive error envelope
//     (core/additive.hpp), for workloads that tolerate a noise floor on
//     mice in exchange for faster ingest and near-exact elephants.
//
// The bank is a tagged union with branch dispatch: the kind is fixed at
// construction, so the branch in add() is perfectly predicted and costs
// nothing next to the counter update itself.  The one method that only
// exists for one family (RescaleB) is a documented no-op for the other,
// which keeps FlowMonitor free of kind checks.
#pragma once

#include <cstdint>
#include <optional>

#include "core/additive.hpp"
#include "core/disco.hpp"
#include "util/rng.hpp"

namespace disco::flowtable {

/// Which estimator family backs a monitor's counter arrays.
enum class EstimatorKind {
  Disco,          ///< logarithmic DISCO counters (multiplicative error)
  AdditiveError,  ///< additive-error counters (sampled exact counting)
};

class CounterBank {
 public:
  /// Builds `size` counters of `bits` bits each.  `max_flow` provisions the
  /// DISCO base b (EstimatorKind::Disco only; the additive family's range
  /// is managed dynamically by scale-ups).  DISCO counters get their
  /// core::DecisionTable here: transcendental-free updates with
  /// bit-identical decisions, from a process-wide cache shared by shards.
  CounterBank(EstimatorKind kind, std::size_t size, int bits,
              std::uint64_t max_flow)
      : kind_(kind) {
    if (kind_ == EstimatorKind::Disco) {
      disco_.emplace(size, bits, core::DiscoParams::for_budget(max_flow, bits));
      disco_->attach_decision_table();
    } else {
      additive_.emplace(size, bits);
    }
  }

  [[nodiscard]] bool is_disco() const noexcept {
    return kind_ == EstimatorKind::Disco;
  }

  // --- hot path --------------------------------------------------------------
  void add(std::size_t i, std::uint64_t l, util::Rng& rng) noexcept {
    if (kind_ == EstimatorKind::Disco) [[likely]] {
      disco_->add(i, l, rng);
    } else {
      additive_->add(i, l, rng);
    }
  }

  void prefetch(std::size_t i) const noexcept {
    if (kind_ == EstimatorKind::Disco) [[likely]] {
      disco_->prefetch(i);
    } else {
      additive_->prefetch(i);
    }
  }

  // --- queries ---------------------------------------------------------------
  [[nodiscard]] double estimate(std::size_t i) const noexcept {
    return is_disco() ? disco_->estimate(i) : additive_->estimate(i);
  }
  [[nodiscard]] std::uint64_t value(std::size_t i) const noexcept {
    return is_disco() ? disco_->value(i) : additive_->value(i);
  }
  [[nodiscard]] std::size_t storage_bits() const noexcept {
    return is_disco() ? disco_->storage_bits() : additive_->storage_bits();
  }
  [[nodiscard]] std::uint64_t overflow_count() const noexcept {
    return is_disco() ? disco_->overflow_count() : additive_->overflow_count();
  }
  [[nodiscard]] std::uint64_t rescale_count() const noexcept {
    return is_disco() ? disco_->rescale_count() : additive_->rescale_count();
  }

  /// Effective DISCO base for epoch reports: the additive family counts on
  /// a linear grid, reported as b = 1.0 -- exactly the degenerate value
  /// downstream interval math treats as "no multiplicative error"
  /// (core::error_model).  Its error is carried separately by error_unit().
  [[nodiscard]] double effective_b() const noexcept {
    return is_disco() ? disco_->params().b() : 1.0;
  }

  /// Additive counting grid 2^s for epoch reports (0.0 for DISCO kinds --
  /// their error is multiplicative, carried by effective_b()).
  [[nodiscard]] double error_unit() const noexcept {
    return is_disco() ? 0.0 : additive_->unit();
  }

  // --- lifecycle / policy ----------------------------------------------------
  void set_value(std::size_t i, std::uint64_t v) {
    if (is_disco()) {
      disco_->set_value(i, v);
    } else {
      additive_->set_value(i, v);
    }
  }

  /// Epoch reset of an array whose counters at index >= `used` are already
  /// zero -- FlowMonitor passes the slots its flow table handed out.
  void reset(std::size_t used) noexcept {
    if (is_disco()) {
      disco_->reset(used);
    } else {
      additive_->reset(used);
    }
  }

  /// Disco only: SaturationPolicy::RescaleB.  The additive family already
  /// rescales natively (halve-all), so this is a no-op for it.
  void enable_rescale(double growth, unsigned max_rescales) noexcept {
    if (is_disco()) disco_->enable_rescale(growth, max_rescales);
  }

 private:
  EstimatorKind kind_;
  std::optional<core::DiscoArray> disco_;
  std::optional<core::AdditiveErrorArray> additive_;
};

}  // namespace disco::flowtable
