// Deterministic fault injection -- the harness that drives the bounded-memory
// robustness layer (docs/robustness.md) through exhaustion on purpose.
//
// A *fault point* is a named site in the library where a scarce resource can
// run out in production: flow-table slot allocation, pipeline ring space, the
// monotonic clock feeding burst boundaries, the byte sink behind report
// writes.  Tests arm a point with a Plan (skip N calls, then fail M, then
// optionally every K-th, or Bernoulli(p) from a fixed seed) and the library
// behaves exactly as if the real resource had failed -- same code path, same
// counters, same recovery -- repeatably, because every schedule is a pure
// function of the plan and the call index.
//
// Cost model: the whole harness compiles to nothing unless the build sets
// -DDISCO_FAULTS=ON (CMake option, macro DISCO_FAULTS=1).  In the default
// build `fires()` is a constexpr `false` and `skew_clock()` the identity, so
// instrumented call sites are bit-identical to uninstrumented ones -- the
// acceptance bar for shipping fault points inside hot paths.
//
// Thread safety (fault builds): `fires()`/`skew_clock()` are lock-free and
// callable from any thread (the pipeline producers hit kRingFull
// concurrently).  arm()/disarm() are for quiesced test setup only; arming
// while worker threads run is a test bug, not a supported mode.
#pragma once

#include <cstdint>

#ifndef DISCO_FAULTS
#define DISCO_FAULTS 0
#endif

namespace disco::util::fault {

/// The library's injection sites.  Keep in sync with docs/robustness.md.
enum class Point : unsigned {
  kAllocFailure = 0,  ///< flow-table slot allocation (BasicFlowTable::insert_or_get)
  kRingFull,          ///< pipeline ring accept (PipelineMonitor::ingest_batch)
  kClockSkew,         ///< packet timestamps at burst boundaries (pipeline ingest)
  kShortWrite,        ///< report byte sink (write_report)
  kCount,
};

inline constexpr unsigned kPointCount = static_cast<unsigned>(Point::kCount);

/// A deterministic failure schedule.  With `probability == 0` the schedule is
/// a pure countdown: calls 0..start_after-1 pass, the next `fail_count` fail,
/// and afterwards every `period`-th call fails (period == 0: no tail).  With
/// `probability > 0`, each call past `start_after` fails independently with
/// that probability, derived from `seed` and the call index alone -- the same
/// plan produces the same schedule on every run and every thread interleaving.
struct Plan {
  std::uint64_t start_after = 0;
  std::uint64_t fail_count = 0;
  std::uint64_t period = 0;
  double probability = 0.0;
  std::uint64_t seed = 0x5eedfa11;
  std::int64_t skew_ns = 0;  ///< applied by skew_clock() while the plan fires
};

#if DISCO_FAULTS

/// Installs `plan` at `p` and zeroes its call/trip counters.
void arm(Point p, const Plan& plan) noexcept;

/// Removes the plan at `p`; the point passes again.
void disarm(Point p) noexcept;

/// Removes every plan (test fixture teardown).
void disarm_all() noexcept;

/// Calls observed / failures injected at `p` since the last arm().
[[nodiscard]] std::uint64_t calls(Point p) noexcept;
[[nodiscard]] std::uint64_t trips(Point p) noexcept;

/// Consumes one call at `p`: true when the armed plan says this call fails.
/// Unarmed points always return false.
[[nodiscard]] bool fires(Point p) noexcept;

/// Clock-skew transform for timestamps crossing burst boundaries: when
/// kClockSkew fires for this call, returns `now_ns + skew_ns` (saturating at
/// 0 for negative skews), otherwise `now_ns` unchanged.
[[nodiscard]] std::uint64_t skew_clock(std::uint64_t now_ns) noexcept;

#else  // DISCO_FAULTS == 0: every entry point is a free no-op.

constexpr void arm(Point, const Plan&) noexcept {}
constexpr void disarm(Point) noexcept {}
constexpr void disarm_all() noexcept {}
[[nodiscard]] constexpr std::uint64_t calls(Point) noexcept { return 0; }
[[nodiscard]] constexpr std::uint64_t trips(Point) noexcept { return 0; }
[[nodiscard]] constexpr bool fires(Point) noexcept { return false; }
[[nodiscard]] constexpr std::uint64_t skew_clock(std::uint64_t now_ns) noexcept {
  return now_ns;
}

#endif  // DISCO_FAULTS

}  // namespace disco::util::fault
