// Aggregate intervals over flow ESTIMATES with mixed error models.
//
// This is the one place that builds an interval for a sum of estimates: the
// collector (src/collect) folds every site's records into a per-key and a
// global sum, and the analysis modules (src/modules) fold every epoch's
// records into per-port, per-class and per-prefix sums.  A single flow's
// interval is core::DiscoParams::interval_for_estimate.
//
// Counter-level merging (core::DiscoParams::merge) requires both counters to
// share one DiscoParams deployment.  Reports from many monitors do not:
// sites run different counter widths, RescaleB drifts their effective bases
// apart, and some sites may use additive-error counters (core/additive.hpp)
// instead of DISCO.  What every report exports is an UNBIASED per-flow
// estimate plus enough error metadata (effective base b, or additive error
// unit) to bound its variance -- so sums are taken at the estimate level:
//
//   X = sum_i X_i,   E[X] = sum_i n_i = n   (unbiasedness survives the sum)
//
// and, because distinct flows and sites consume independent randomness,
//
//   Var(X) = sum_i Var(X_i)
//     <=  sum_{i in DISCO}  e_i^2 * est_i^2     (Theorem 2, e_i = cv_bound(b_i))
//       + sum_{i in additive} sd_i^2            (additive_error_sd bound)
//
// The half-width z * sqrt(Var) is strictly tighter than the naive
// z * e * sum(est_i) whenever more than one estimate contributes:
// aggregation helps accuracy, which is why the paper's per-port error plots
// beat its per-flow ones.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/theory.hpp"

namespace disco::core {

/// A two-sided interval around a merged estimate.  `valid` is false when a
/// contribution carried no usable error metadata (e.g. a v1/v2 legacy
/// report with unknown base and no collector-level fallback): the estimate
/// itself is still the unbiased sum, but no variance bound exists for it.
struct MergedInterval {
  double estimate = 0.0;
  double low = 0.0;   ///< clamped at 0: traffic cannot be negative
  double high = 0.0;
  bool valid = true;
};

/// The error model one report declares for one metric axis (bytes come from
/// its volume array, packets from its size array).  Decode it once per
/// report with error_model(), then fold each record under it.
struct ErrorModel {
  /// e(b)^2 for a DISCO axis at effective base b > 1; 0 when the axis
  /// counts exactly (b == 1) or has no multiplicative error.
  double cv2 = 0.0;
  /// Counting grid of an additive-error axis (the `unit` of
  /// theory::additive_error_sd); 0 when the axis has no additive error.
  double unit = 0.0;
  /// False when the report carried no error metadata and no fallback base
  /// applies: its estimates still sum unbiasedly, but bound nothing.
  bool bounded = true;
};

/// The base one report axis is read at: its own `b`, or `fallback_b` when
/// the axis declares neither a base nor an additive error unit (a v1/v2
/// legacy report).
[[nodiscard]] inline double effective_b(double b, double error_unit,
                                        double fallback_b) {
  return error_unit > 0.0 || b >= 1.0 ? b : fallback_b;
}

/// Decodes one report axis: its effective base `b`, its additive error unit,
/// and the base to assume when the report carries neither (a v1/v2 legacy
/// report; 0 = none, leaving its records unbounded).
///
/// A single monitor's report declares one family: b > 1 with unit 0
/// (DISCO), or b == 1 with unit > 0 (additive).  A merged report of a mixed
/// fleet (fold_reports keeps the max of both) declares b > 1 AND unit > 0;
/// its records then carry both terms, e^2 * est^2 + sd^2, so neither
/// family's records are under-covered.
[[nodiscard]] inline ErrorModel error_model(double b, double error_unit,
                                            double fallback_b = 0.0) {
  ErrorModel model;
  if (error_unit > 0.0) {
    model.unit = error_unit;
  } else {
    b = effective_b(b, error_unit, fallback_b);
    model.bounded = b >= 1.0;
  }
  if (b > 1.0) {
    const double e = theory::cv_bound(b);
    model.cv2 = e * e;
  }
  return model;
}

/// Streaming accumulator for a sum of independent unbiased estimates with
/// per-contribution error models.  Copyable POD-style state: a collector
/// keeps one per (flow key, metric), a module one per reported key.
class MixedEstimateAccumulator {
 public:
  /// Folds one record's estimate under its report's error model.
  /// `packets` bounds the number of randomized roundings behind an
  /// additive-error estimate: each packet update rounds once, so the
  /// record's (estimated) packet count is the natural bound
  /// (docs/collector.md).
  void add(double estimate, const ErrorModel& model, double packets) {
    sum_ += estimate;
    if (!model.bounded) {
      valid_ = false;  // unknown base: sum stays unbiased, bound is gone
      return;
    }
    if (model.cv2 > 0.0) variance_ += model.cv2 * estimate * estimate;
    if (model.unit > 0.0) {
      const long long rounded = std::llround(packets);
      const std::uint64_t roundings =
          rounded > 0 ? static_cast<std::uint64_t>(rounded) : 1;
      const double sd = theory::additive_error_sd(model.unit, roundings);
      variance_ += sd * sd;
    }
  }

  void merge(const MixedEstimateAccumulator& other) {
    sum_ += other.sum_;
    variance_ += other.variance_;
    valid_ = valid_ && other.valid_;
  }

  [[nodiscard]] double sum() const noexcept { return sum_; }
  /// Upper bound on Var(sum); meaningless when !interval_valid().
  [[nodiscard]] double variance_bound() const noexcept { return variance_; }
  [[nodiscard]] bool interval_valid() const noexcept { return valid_; }

  /// Normal-approximation interval for the merged sum at the given
  /// two-sided confidence level.  Degenerates to [sum, sum] when the
  /// variance bound is zero (all contributions exact) and to an invalid
  /// interval when any contribution lacked error metadata.
  [[nodiscard]] MergedInterval interval(double confidence) const {
    MergedInterval out;
    out.estimate = sum_;
    out.valid = valid_;
    if (!valid_ || confidence <= 0.0 || confidence >= 1.0 ||
        variance_ <= 0.0) {
      out.low = out.high = sum_;
      return out;
    }
    const double z = theory::normal_quantile(0.5 + confidence / 2.0);
    const double half = z * std::sqrt(variance_);
    out.low = std::max(0.0, sum_ - half);
    out.high = sum_ + half;
    return out;
  }

 private:
  double sum_ = 0.0;
  double variance_ = 0.0;
  bool valid_ = true;
};

}  // namespace disco::core
