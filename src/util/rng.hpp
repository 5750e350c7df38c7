// Deterministic pseudo-random number generation for all DISCO experiments.
//
// Every stochastic component in this repository draws randomness through the
// engines defined here, seeded explicitly, so that every experiment --
// simulation, test, or benchmark -- is reproducible bit for bit across runs
// and machines. We implement the generators ourselves (SplitMix64 for seed
// expansion, xoshiro256** as the workhorse engine) rather than relying on
// implementation-defined std::default_random_engine behaviour.
#pragma once

#include <cstdint>
#include <limits>

namespace disco::util {

/// SplitMix64: a tiny, high-quality 64-bit generator.  Used mainly to expand
/// a single user seed into the 256-bit state required by Xoshiro256StarStar,
/// per the construction recommended by the xoshiro authors.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast all-purpose 64-bit PRNG (Blackman & Vigna).
/// Satisfies the UniformRandomBitGenerator requirements so it can also be
/// plugged into <random> distributions if ever needed.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Xoshiro256StarStar(std::uint64_t seed = 0x9d1ce4e5b9ULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept { return next(); }

  constexpr std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): 53 random mantissa bits.
  constexpr double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial: true with probability p (p outside [0,1] clamps).
  constexpr bool bernoulli(double p) noexcept { return next_double() < p; }

  /// Uniform integer in [lo, hi], inclusive.  Uses Lemire-style rejection to
  /// avoid modulo bias.
  constexpr std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi) noexcept {
    const std::uint64_t range = hi - lo + 1;  // hi == max, lo == 0 never used here
    if (range == 0) return next();            // full 64-bit range requested
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * range;
    auto low = static_cast<std::uint64_t>(m);
    if (low < range) {
      const std::uint64_t threshold = (0 - range) % range;
      while (low < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * range;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return lo + static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform_double(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

  /// Derive an independent child generator (used to give each flow /
  /// MicroEngine / experiment repetition its own stream).
  constexpr Xoshiro256StarStar fork() noexcept {
    return Xoshiro256StarStar(next());
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

/// Default engine alias used across the library.
using Rng = Xoshiro256StarStar;

}  // namespace disco::util
