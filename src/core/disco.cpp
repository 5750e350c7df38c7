#include "core/disco.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/theory.hpp"

namespace disco::core {

void DiscoParams::attach_table(std::shared_ptr<const DecisionTable> table) {
  if (!table) {
    table_.reset();
    return;
  }
  if (table->b() != scale_.b()) {
    throw std::invalid_argument(
        "DiscoParams::attach_table: table built for a different base b");
  }
  table_ = std::move(table);
}

UpdateDecision DiscoParams::decide_real(std::uint64_t c, double l) const noexcept {
  const auto& s = scale();
  const double fc = s.f(static_cast<double>(c));
  const double target = fc + l;
  if (!std::isfinite(target)) {
    // The counter sits beyond double range (far past any provisioned
    // budget): treat it as numerically saturated rather than invoke UB on
    // the ceil cast below.
    return UpdateDecision{0, 0.0};
  }

  // j = the smallest integer >= c+1 with f(j) >= target, up to a relative
  // tolerance that forgives float noise at exact-integer landings (where
  // p_d must come out as 1, not roll over to the next step with p_d ~ 0).
  // The closed form gives the neighbourhood; direct comparisons against the
  // SAME f the DecisionTable stores make the landing canonical, so table
  // and transcendental decisions agree bit for bit.
  const double cutoff = target - 1e-9 * std::max(1.0, target);
  const double j_real = s.f_inv(target);
  if (!std::isfinite(j_real)) {
    // target*(b-1) overflowed inside f^-1 even though the target itself is
    // finite (reachable by merging two nearly-saturated counters at large
    // b): saturate, mirroring the !isfinite(target) branch, instead of
    // feeding inf to the ceil cast below.
    return UpdateDecision{0, 0.0};
  }
  auto j = static_cast<std::uint64_t>(std::ceil(j_real - 1e-9));
  if (j <= c) j = c + 1;
  double f_prev = s.f(static_cast<double>(j - 1));  // f(j-1)
  while (j > c + 1 && f_prev >= cutoff) {
    --j;
    f_prev = s.f(static_cast<double>(j - 1));
  }
  for (double f_j = s.f(static_cast<double>(j)); f_j < cutoff;
       f_j = s.f(static_cast<double>(j))) {
    ++j;
    f_prev = f_j;
  }

  UpdateDecision d;
  d.delta = j - c - 1;
  d.p_d = std::clamp((target - f_prev) / s.step(static_cast<double>(j - 1)),
                     0.0, 1.0);
  return d;
}

std::uint64_t DiscoParams::merge(std::uint64_t c1, std::uint64_t c2,
                                 util::Rng& rng) const noexcept {
  if (c2 == 0) return c1;
  if (c1 == 0) return c2;
  // Apply f(c2) -- the second counter's traffic estimate -- as one real-
  // valued discounted update to c1: E[f(result)] = f(c1) + f(c2).
  const double addend = estimate(c2);
  const UpdateDecision d = decide_value(c1, addend);
  return c1 + d.delta + (rng.bernoulli(d.p_d) ? 1 : 0);
}

namespace {

/// Randomized rounding of the f-value `x` into `scale`: the counter value
/// lo = floor(f^-1(x)) and the chance `up` of lo + 1 instead, so that
/// E[f(lo + Bernoulli(up))] = x.  The caller draws the coin (the RNG
/// call-site rule keeps draws in the canonical update functions); lo + 1
/// may exceed the array's width.
struct Rounding {
  std::uint64_t lo = 0;
  double up = 0.0;
};

Rounding rounding_into(const util::GeometricScale& scale, double x) noexcept {
  double lo = std::floor(scale.f_inv(x));
  if (lo < 0.0) lo = 0.0;
  const double f_lo = scale.f(lo);
  const double width = scale.step(lo);  // f(lo+1) - f(lo)
  return Rounding{static_cast<std::uint64_t>(lo),
                  std::clamp((x - f_lo) / width, 0.0, 1.0)};
}

}  // namespace

void DiscoArray::saturate_or_rescale(std::size_t i, std::uint64_t next,
                                     util::Rng& rng) noexcept {
  // The f-value the realised (oversized) counter stands for in the scale
  // that decided it.  Held fixed across rescale rounds: the decision is
  // final, only its representation changes, so E[f_new(mapped)] = f_old(next)
  // and no overflow-conditioned re-draw can skew the estimator (see the
  // declaration comment in disco.hpp).
  const double x = params_.scale().f(static_cast<double>(next));
  while (rescale_enabled_ && rescales_ < max_rescales_) {
    if (!rescale_once(rng)) break;
    const Rounding r = rounding_into(params_.scale(), x);
    const std::uint64_t mapped = r.lo + (rng.bernoulli(r.up) ? 1 : 0);
    if (mapped <= store_.max_value()) {
      store_.set(i, mapped);
      return;
    }
  }
  store_.set(i, store_.max_value());
  ++overflows_;
}

bool DiscoArray::rescale_once(util::Rng& rng) noexcept {
  // Target budget: growth x what the full-width counter represents today.
  const double old_budget = params_.estimate(store_.max_value());
  const double target = old_budget * rescale_growth_;
  if (!std::isfinite(target) || target <= old_budget || target >= 9.2e18) {
    rescale_enabled_ = false;
    return false;
  }
  double new_b = 0.0;
  try {
    new_b = util::choose_b(static_cast<std::uint64_t>(target), store_.width());
  } catch (const std::exception&) {
    // Even b = 4 cannot reach the grown budget at this width; from here on
    // the array saturates (and counts) like the default policy.
    rescale_enabled_ = false;
    return false;
  }
  const util::GeometricScale old_scale = params_.scale();
  DiscoParams new_params(new_b);
  // Remap every live counter into the new scale with randomized rounding,
  // so conditional on the old value E[f_new(c')] = f_old(c) and the
  // estimator stays unbiased through any number of rescales (tower
  // property).
  for (std::size_t j = 0; j < store_.size(); ++j) {
    const std::uint64_t c = store_.get(j);
    if (c == 0) continue;
    const Rounding r = rounding_into(new_params.scale(),
                                     old_scale.f(static_cast<double>(c)));
    const std::uint64_t mapped = r.lo + (rng.bernoulli(r.up) ? 1 : 0);
    store_.set(j, std::min(mapped, store_.max_value()));
  }
  const bool had_table = params_.decision_table() != nullptr;
  params_ = new_params;
  if (had_table) params_.attach_table(store_.max_value());
  ++rescales_;
  return true;
}

DiscoParams::ConfidenceInterval DiscoParams::confidence_interval(
    std::uint64_t c, double confidence) const {
  return interval_for_estimate(estimate(c), confidence);
}

DiscoParams::ConfidenceInterval DiscoParams::interval_for_estimate(
    double estimate, double confidence) const {
  if (!(confidence > 0.0) || !(confidence < 1.0)) {
    throw std::invalid_argument(
        "DiscoParams::interval_for_estimate: confidence must be in (0, 1)");
  }
  if (!(estimate >= 0.0)) {
    throw std::invalid_argument(
        "DiscoParams::interval_for_estimate: estimate must be >= 0");
  }
  // Corollary 1 bounds the coefficient of variation by cv_bound(b); under
  // the normal approximation the two-sided interval is z * e wide.  It takes
  // the estimate, not the counter: epoch reports carry f(c), not c.
  ConfidenceInterval ci;
  ci.estimate = estimate;
  const double e = theory::cv_bound(b());
  const double z = theory::normal_quantile(0.5 + confidence / 2.0);
  ci.low = std::max(0.0, estimate * (1.0 - z * e));
  ci.high = estimate * (1.0 + z * e);
  return ci;
}

}  // namespace disco::core
