#include "util/fault.hpp"

#if DISCO_FAULTS

#include <atomic>

#include "util/rng.hpp"
#include "util/atomic.hpp"

namespace disco::util::fault {
namespace {

// Per-point state.  `epoch` invalidates in-flight readers of a stale plan:
// fires() snapshots the plan only when the armed flag (acquire) matches the
// epoch it read, and tests arm() from quiesced setup code, so the plan
// fields themselves need no per-field atomicity.
struct PointState {
  Plan plan;
  util::atomic<bool> armed{false};
  util::atomic<std::uint64_t> call_count{0};
  util::atomic<std::uint64_t> trip_count{0};
};

PointState g_points[kPointCount];

PointState& state(Point p) noexcept {
  return g_points[static_cast<unsigned>(p)];
}

/// Stateless Bernoulli draw for call `index` under `seed`: one SplitMix64
/// step, so concurrent callers at different indices agree with a serial
/// replay of the same plan.
bool probabilistic_hit(std::uint64_t seed, std::uint64_t index,
                       double probability) noexcept {
  SplitMix64 mix(seed ^ (index * 0x9e3779b97f4a7c15ULL));
  const double u =
      static_cast<double>(mix.next() >> 11) * 0x1.0p-53;  // [0, 1)
  return u < probability;
}

bool plan_fires(const Plan& plan, std::uint64_t index) noexcept {
  if (index < plan.start_after) return false;
  const std::uint64_t past = index - plan.start_after;
  if (plan.probability > 0.0) {
    return probabilistic_hit(plan.seed, index, plan.probability);
  }
  if (past < plan.fail_count) return true;
  if (plan.period != 0) return (past - plan.fail_count) % plan.period == 0;
  return false;
}

}  // namespace

void arm(Point p, const Plan& plan) noexcept {
  PointState& s = state(p);
  s.armed.store(false, std::memory_order_release);
  s.plan = plan;
  s.call_count.store(0, std::memory_order_relaxed);
  s.trip_count.store(0, std::memory_order_relaxed);
  s.armed.store(true, std::memory_order_release);
}

void disarm(Point p) noexcept {
  state(p).armed.store(false, std::memory_order_release);
}

void disarm_all() noexcept {
  for (unsigned i = 0; i < kPointCount; ++i) {
    g_points[i].armed.store(false, std::memory_order_release);
  }
}

std::uint64_t calls(Point p) noexcept {
  return state(p).call_count.load(std::memory_order_relaxed);
}

std::uint64_t trips(Point p) noexcept {
  return state(p).trip_count.load(std::memory_order_relaxed);
}

bool fires(Point p) noexcept {
  PointState& s = state(p);
  if (!s.armed.load(std::memory_order_acquire)) return false;
  const std::uint64_t index =
      s.call_count.fetch_add(1, std::memory_order_relaxed);
  if (!plan_fires(s.plan, index)) return false;
  s.trip_count.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace disco::util::fault

#else  // DISCO_FAULTS == 0

// Intentionally empty: the header provides constexpr no-ops, and this
// translation unit exists so the build graph is identical in both modes.
namespace disco::util::fault {
namespace {
[[maybe_unused]] constexpr int kFaultsCompiledOut = 0;
}  // namespace
}  // namespace disco::util::fault

#endif  // DISCO_FAULTS
