// DecisionTable: the transcendental-free DISCO update fast path
// (src/core/decision_table.hpp).  The contract under test is strict
// BIT-IDENTITY with the double-precision path: same delta, same p_d (to the
// last mantissa bit), same RNG consumption -- so attaching a table can never
// change an estimate, a parity baseline, or a snapshot.
#include "core/decision_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/disco.hpp"
#include "core/theory.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace disco::core {
namespace {

/// EXPECT bitwise equality of doubles: NaN == NaN, +0 != -0.  Parity must
/// hold at this strength because p_d feeds rng.bernoulli() -- any mantissa
/// difference could flip a coin and desynchronise the RNG stream.
void expect_bits_eq(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

/// The table's decision for (c, l) equals the detached double path's, bit
/// for bit.
::testing::AssertionResult parity(const DiscoParams& plain,
                                  const DiscoParams& fast, std::uint64_t c,
                                  std::uint64_t l) {
  const UpdateDecision expected = plain.decide(c, l);
  const UpdateDecision got = fast.decide(c, l);
  if (got.delta == expected.delta &&
      std::bit_cast<std::uint64_t>(got.p_d) ==
          std::bit_cast<std::uint64_t>(expected.p_d)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "c=" << c << " l=" << l << " delta " << got.delta << " vs "
         << expected.delta << " p_d " << got.p_d << " vs " << expected.p_d;
}

struct SweepConfig {
  std::uint64_t max_flow;
  int bits;
  std::uint64_t c_stride;  // every c_stride-th counter value
};

// The acceptance sweep: every integer addend in [1, 4096] against every
// counter value the table covers (strided at 16 bits), plus the lengths
// past that range that matter (jumbo, the provisioning-limit addend).
// About 25 M decisions; this is the proof that the index is a pure lookup
// optimisation.
TEST(DecisionTable, ExhaustiveParityWithDoublePath) {
  const std::vector<SweepConfig> configs = {
      {std::uint64_t{1} << 30, 12, 1},
      {std::uint64_t{1} << 24, 8, 1},
      {std::uint64_t{1} << 30, 10, 1},
      {std::uint64_t{1} << 32, 16, 97},
  };
  for (const auto& config : configs) {
    const DiscoParams plain = DiscoParams::for_budget(config.max_flow, config.bits);
    DiscoParams fast = plain;
    const std::uint64_t c_max = std::min((std::uint64_t{1} << config.bits) - 1,
                                         DecisionTable::kMaxCmax);
    fast.attach_table(c_max);
    ASSERT_NE(fast.decision_table(), nullptr);
    ASSERT_EQ(fast.decision_table()->c_max(), c_max);

    const std::string where = "bits=" + std::to_string(config.bits);
    for (std::uint64_t c = 0; c <= c_max; c += config.c_stride) {
      for (std::uint64_t l = 1; l <= 4096; ++l) {
        ASSERT_TRUE(parity(plain, fast, c, l)) << where;
      }
      for (std::uint64_t l : {std::uint64_t{9000}, config.max_flow}) {
        ASSERT_TRUE(parity(plain, fast, c, l)) << where;
      }
    }
    // estimate() reads f(c) from the table up to its sentinel entry and
    // falls back to expm1 past it; both must match the detached path.
    ASSERT_EQ(plain.decision_table(), nullptr);
    for (std::uint64_t c = 0; c <= c_max + 64; ++c) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(fast.estimate(c)),
                std::bit_cast<std::uint64_t>(plain.estimate(c)))
          << where << " c=" << c;
    }
  }
}

/// Eq. 2/3 by plain search over the table's entries (which
/// TableEntriesMatchScaleExactly pins to the scalar path's doubles), for a
/// real addend: the first j > c with f(j) >= the landing cutoff.  Returns
/// false when no entry reaches the cutoff.
bool reference_decide(const DecisionTable& table, std::uint64_t c, double l,
                      UpdateDecision& d) {
  const double target = table.f(c) + l;
  const double cutoff = target - 1e-9 * std::max(1.0, target);
  std::uint64_t lo = c + 1;  // first candidate
  std::uint64_t hi = table.c_max() + 2;  // one past the last entry
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (table.f(mid) >= cutoff) hi = mid;
    else lo = mid + 1;
  }
  if (lo > table.c_max() + 1) return false;
  d.delta = lo - c - 1;
  d.p_d = std::clamp((target - table.f(lo - 1)) / table.step(lo - 1), 0.0, 1.0);
  return true;
}

TEST(DecisionTable, RealAddendsMatchPlainSearch) {
  // Merges feed real addends: f(c2), which need not be an integer.  Seeded
  // log-uniform addends from 1e-12 to 2^40.  The tiny ones put the cutoff
  // at or below f(c), where the small-addend rule answers j = c + 1 without
  // reading the index; the large ones run past the last entry.
  for (int bits : {8, 12, 16}) {
    const util::GeometricScale scale(
        util::choose_b(std::uint64_t{1} << 32, bits));
    const auto table = DecisionTable::shared(
        scale, std::min((std::uint64_t{1} << bits) - 1, DecisionTable::kMaxCmax));
    util::Rng rng(static_cast<std::uint64_t>(bits));
    for (int i = 0; i < 200'000; ++i) {
      const std::uint64_t c = rng.uniform_u64(0, table->c_max());
      const double l = std::exp2(rng.uniform_double(-39.86, 40.0));
      UpdateDecision expected, got;
      const bool in_table = reference_decide(*table, c, l, expected);
      ASSERT_EQ(table->decide(c, l, got), in_table)
          << "bits=" << bits << " c=" << c << " l=" << l;
      if (!in_table) continue;
      ASSERT_EQ(got.delta, expected.delta)
          << "bits=" << bits << " c=" << c << " l=" << l;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.p_d),
                std::bit_cast<std::uint64_t>(expected.p_d))
          << "bits=" << bits << " c=" << c << " l=" << l;
    }
  }
}

/// Sweeps every counter value the table covers against addends that land
/// on, just below and just above entry boundaries, and a spread of plain
/// lengths.
void expect_parity_at_base(double b, std::uint64_t c_max) {
  const DiscoParams plain(b);
  DiscoParams fast = plain;
  fast.attach_table(c_max);
  const DecisionTable& table = *fast.decision_table();
  const std::string where = "b=" + std::to_string(b);
  for (std::uint64_t c = 0; c <= table.c_max(); ++c) {
    for (std::uint64_t l = 1; l <= 64; ++l) {
      ASSERT_TRUE(parity(plain, fast, c, l)) << where;
    }
    for (std::uint64_t l : {1500ull, 4096ull, 9000ull, 1ull << 30, 1ull << 40}) {
      ASSERT_TRUE(parity(plain, fast, c, l)) << where;
    }
    // Exact landings: l = f(j) - f(c) for the next few entries.
    for (std::uint64_t j = c + 1; j <= std::min(c + 40, table.c_max() + 1); ++j) {
      const double gap = table.f(j) - table.f(c);
      if (gap >= 9.0e18) break;
      const auto l = static_cast<std::uint64_t>(gap);
      for (std::uint64_t near : {l - 1, l, l + 1}) {
        if (near == 0) continue;
        ASSERT_TRUE(parity(plain, fast, c, near)) << where;
      }
    }
  }
}

TEST(DecisionTable, ParityWhereBucketEdgesMeetEntries) {
  // b - 1 a power of two: bucket edges fall exactly on b^j, so rounding can
  // put an entry just below the edge its successor lands on.  b = 2 is the
  // base that needs one index bit more than 2^-M <= b - 1 asks for.
  for (double b : {1.25, 1.5, 2.0, 3.0}) {
    expect_parity_at_base(b, 4095);
    const DecisionTable table(util::GeometricScale(b), 4095);
    EXPECT_LE(std::ldexp(1.0, -table.index_bits()), b - 1.0) << "b=" << b;
  }
  EXPECT_EQ(DecisionTable(util::GeometricScale(2.0), 4095).index_bits(), 1);
}

TEST(DecisionTable, ParityAtARescaledBase) {
  // A RescaleB array re-derives b from a grown budget (choose_b on a target
  // that is no power of two); its re-attached table must still agree.
  DiscoArray array(4, 8, DiscoParams::for_budget(1 << 16, 8));
  array.enable_rescale(2.0, 4);
  array.attach_decision_table();
  const double b0 = array.params().b();
  util::Rng rng(5);
  array.add(0, 1 << 20, rng);  // far past the budget: forces rescales
  ASSERT_GT(array.rescale_count(), 0u);
  ASSERT_NE(array.params().b(), b0);
  ASSERT_NE(array.params().decision_table(), nullptr);
  expect_parity_at_base(array.params().b(), array.params().decision_table()->c_max());
}

TEST(DecisionTable, IndexSeparatesEveryEntry) {
  // The constructor's invariant, recomputed from the documented key: the
  // bits of 1 + f(c)(b-1) with index_bits() mantissa bits kept strictly
  // increase over the entries, so no bucket holds two of them.
  for (double b : {1.0 + 1e-12, 1.00001, 1.0041, 1.0125, 1.25, 1.5, 2.0, 3.0, 4.0}) {
    const DecisionTable table(util::GeometricScale(b), DecisionTable::kMaxCmax);
    const int shift = 52 - table.index_bits();
    ASSERT_GE(shift, 0);
    std::uint64_t prev = 0;
    for (std::uint64_t c = 0; c <= table.c_max() + 1; ++c) {
      const double y = 1.0 + table.f(c) * (b - 1.0);
      const std::uint64_t key = std::bit_cast<std::uint64_t>(y) >> shift;
      if (c > 0) {
        ASSERT_GT(key, prev) << "b=" << b << " c=" << c;
      }
      prev = key;
    }
  }
}

TEST(DecisionTable, TableEntriesMatchScaleExactly) {
  // The table must store the very doubles GeometricScale computes -- that,
  // not approximate agreement, is what makes the comparisons above hold.
  const util::GeometricScale scale(util::choose_b(1 << 24, 10));
  const auto table = DecisionTable::shared(scale, 1023);
  for (std::uint64_t c = 0; c <= table->c_max() + 1; ++c) {
    expect_bits_eq(table->f(c), scale.f(static_cast<double>(c)), "f");
    expect_bits_eq(table->step(c), scale.step(static_cast<double>(c)), "step");
  }
}

TEST(DecisionTable, RngStreamIdenticalAfterManyUpdates) {
  // Drive two counters through the same packet stream, one with the table.
  // Counters must agree after every step AND the RNGs must remain in
  // lockstep (checked by comparing their next outputs at the end).
  const DiscoParams plain = DiscoParams::for_budget(1 << 30, 12);
  DiscoParams fast = plain;
  fast.attach_table((std::uint64_t{1} << 12) - 1);

  util::Rng rng_plain(77), rng_fast(77), lens(123);
  std::uint64_t c_plain = 0, c_fast = 0;
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t l = lens.uniform_u64(1, 9000);
    c_plain = plain.update(c_plain, l, rng_plain);
    c_fast = fast.update(c_fast, l, rng_fast);
    ASSERT_EQ(c_fast, c_plain) << "diverged at packet " << i;
  }
  EXPECT_EQ(rng_fast.next(), rng_plain.next());
}

TEST(DecisionTable, MergeParityWithDoublePath) {
  const DiscoParams plain = DiscoParams::for_budget(1 << 30, 12);
  DiscoParams fast = plain;
  fast.attach_table((std::uint64_t{1} << 12) - 1);
  for (std::uint64_t c1 : {0ull, 5ull, 117ull, 900ull, 4000ull}) {
    for (std::uint64_t c2 : {1ull, 33ull, 512ull, 4095ull}) {
      util::Rng rng_plain(c1 * 131 + c2), rng_fast(c1 * 131 + c2);
      EXPECT_EQ(fast.merge(c1, c2, rng_fast), plain.merge(c1, c2, rng_plain))
          << "c1=" << c1 << " c2=" << c2;
      EXPECT_EQ(rng_fast.next(), rng_plain.next());
    }
  }
}

TEST(DecisionTable, SmallTableFallsBackBitIdentically) {
  // A table covering only c <= 16: decisions above it (and targets beyond
  // its last entry) must route to the scalar path and still agree.
  const DiscoParams plain = DiscoParams::for_budget(1 << 24, 10);
  DiscoParams fast = plain;
  fast.attach_table(16);
  for (std::uint64_t c = 0; c <= 64; ++c) {
    for (std::uint64_t l : {1ull, 1500ull, 1ull << 24}) {
      const UpdateDecision expected = plain.decide(c, l);
      const UpdateDecision got = fast.decide(c, l);
      ASSERT_EQ(got.delta, expected.delta) << "c=" << c << " l=" << l;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.p_d),
                std::bit_cast<std::uint64_t>(expected.p_d))
          << "c=" << c << " l=" << l;
    }
    // Estimates below 18 come from the table, the rest from expm1.
    ASSERT_EQ(std::bit_cast<std::uint64_t>(fast.estimate(c)),
              std::bit_cast<std::uint64_t>(plain.estimate(c)))
        << "c=" << c;
  }
}

TEST(DecisionTable, OverflowSaturationParityAtExtremeCounters) {
  // b = 3 overflows double range near c ~ 646: the table must truncate
  // there, and decisions around the edge (where f(c), the target, or
  // target*(b-1) goes non-finite) must agree with the guarded scalar path.
  const DiscoParams plain(3.0);
  DiscoParams fast = plain;
  fast.attach_table(DecisionTable::kMaxCmax);
  const DecisionTable* table = fast.decision_table();
  ASSERT_NE(table, nullptr);
  EXPECT_LT(table->c_max(), 700u);  // truncated well below the request
  for (std::uint64_t c = 600; c <= table->c_max() + 8; ++c) {
    for (std::uint64_t l : {std::uint64_t{1}, std::uint64_t{1} << 40,
                            ~std::uint64_t{0} >> 1}) {
      const UpdateDecision expected = plain.decide(c, l);
      const UpdateDecision got = fast.decide(c, l);
      ASSERT_EQ(got.delta, expected.delta) << "c=" << c << " l=" << l;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.p_d),
                std::bit_cast<std::uint64_t>(expected.p_d))
          << "c=" << c << " l=" << l;
    }
  }
}

TEST(DecisionTable, SharedCacheReturnsSameTable) {
  const util::GeometricScale scale(1.0125);
  const auto a = DecisionTable::shared(scale, 4095);
  const auto b = DecisionTable::shared(scale, 4095);
  EXPECT_EQ(a.get(), b.get());  // one table per (b, c_max) process-wide
  const auto c = DecisionTable::shared(scale, 255);
  EXPECT_NE(a.get(), c.get());
}

TEST(DecisionTable, StorageCountsEntriesAndIndex) {
  const double b = 1.02;
  const DecisionTable table(util::GeometricScale(b), 1023);
  // Entries 0..c_max+1 (sentinel), two doubles each: f and b^c.  Plus one
  // 16-bit index slot per key from key(f(0)) to key(f(c_max+1)).
  const int shift = 52 - table.index_bits();
  const auto key = [&](double f) {
    return std::bit_cast<std::uint64_t>(1.0 + f * (b - 1.0)) >> shift;
  };
  const std::size_t index_slots = key(table.f(1024)) - key(0.0) + 1;
  EXPECT_EQ(table.index_bits(), 6);  // 2^-6 <= 0.02 < 2^-5
  EXPECT_EQ(table.storage_bytes(),
            (1023 + 2) * 2 * sizeof(double) + index_slots * sizeof(std::uint16_t));
}

TEST(DecisionTable, AttachRejectsMismatchedBase) {
  DiscoParams params(1.02);
  const util::GeometricScale other(1.05);
  EXPECT_THROW(params.attach_table(DecisionTable::shared(other, 255)),
               std::invalid_argument);
  EXPECT_NO_THROW(params.attach_table(nullptr));  // detach via null is fine
}

TEST(DecisionTable, AttachedArrayMatchesDetachedArray) {
  // End to end through DiscoArray::add: the same slot/length stream into an
  // array with the table attached (as every monitor's counters run) and
  // one without must leave identical counters and RNG positions.
  const auto params = DiscoParams::for_budget(1 << 30, 12);
  DiscoArray attached(64, 12, params);
  DiscoArray detached(64, 12, params);
  attached.attach_decision_table();

  util::Rng source(21);
  util::Rng rng_attached(33), rng_detached(33);
  for (int i = 0; i < 500; ++i) {
    const std::size_t slot = source.uniform_u64(0, 63);
    const std::uint64_t length = source.uniform_u64(40, 9000);
    attached.add(slot, length, rng_attached);
    detached.add(slot, length, rng_detached);
  }
  for (std::size_t i = 0; i < attached.size(); ++i) {
    ASSERT_EQ(attached.value(i), detached.value(i)) << "slot " << i;
  }
  EXPECT_EQ(rng_attached.next(), rng_detached.next());
}

TEST(DecisionTable, EstimatesStayUnbiasedAndWithinTheorem2Cv) {
  // Statistical closure through the table path: counting n bytes many times
  // must land on n in the mean with relative spread within the Theorem 2
  // bound.  (Parity already implies this -- the check guards the harness
  // itself against a future change that breaks both paths together.)
  DiscoParams params = DiscoParams::for_budget(1 << 24, 12);
  params.attach_table((std::uint64_t{1} << 12) - 1);
  const double cv_limit = theory::cv_bound(params.b());

  constexpr int kTrials = 400;
  constexpr int kPackets = 300;
  util::Rng rng(2026);
  double sum = 0.0, sum_sq = 0.0;
  std::uint64_t n = 0;
  for (int t = 0; t < kTrials; ++t) {
    std::uint64_t c = 0, total = 0;
    util::Rng lens(1000 + t);
    for (int p = 0; p < kPackets; ++p) {
      const std::uint64_t l = lens.uniform_u64(64, 1500);
      c = params.update(c, l, rng);
      total += l;
    }
    n = total;  // same per-trial total: lens streams differ only in order
    const double est = params.estimate(c);
    sum += est;
    sum_sq += est * est;
  }
  const double mean = sum / kTrials;
  const double var = sum_sq / kTrials - mean * mean;
  const double cv = std::sqrt(std::max(0.0, var)) / mean;
  // Trial totals differ slightly (independent length streams), which only
  // widens the spread -- the bound plus sampling slack must still hold.
  EXPECT_NEAR(mean, static_cast<double>(n), 0.05 * static_cast<double>(n));
  EXPECT_LT(cv, cv_limit * 1.5 + 0.02);
}

}  // namespace
}  // namespace disco::core
