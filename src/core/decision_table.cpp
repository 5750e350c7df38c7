#include "core/decision_table.hpp"

#include <map>
#include <mutex>
#include <utility>

namespace disco::core {

DecisionTable::DecisionTable(const util::GeometricScale& scale,
                             std::uint64_t c_max)
    : b_(scale.b()), bm1_(scale.b() - 1.0), c_max_(std::min(c_max, kMaxCmax)) {
  // Entries 0..c_max+1: the sentinel at c_max+1 lets a decision that lands
  // exactly one past the widest representable counter still resolve here.
  // The values MUST be produced by the same GeometricScale calls the scalar
  // decide path makes -- that identity is what makes table decisions
  // bit-identical to transcendental ones.
  entries_.reserve(c_max_ + 2);
  for (std::uint64_t c = 0; c <= c_max_ + 1; ++c) {
    const Entry e{scale.f(static_cast<double>(c)),
                  scale.step(static_cast<double>(c))};
    // Saturated tail (f or its key overflows): scalar fallback territory.
    if (!std::isfinite(e.f) || !std::isfinite(1.0 + e.f * bm1_)) break;
    // decide() resolves an addend l <= b^(c-1) to j = c without looking:
    // the largest such target must not cut off above f(c).
    if (c > 0) {
      const Entry& prev = entries_.back();
      if (landing_cutoff(prev.f + prev.step) > e.f) break;
    }
    entries_.push_back(e);
  }

  // Index resolution: start from the smallest M with 2^-M <= b - 1 (b > 1
  // is a double, so b - 1 >= 2^-52 and M <= 52), and raise it until every
  // bucket holds at most one entry, i.e. the entries' keys strictly
  // increase.  Rounding can put an entry just below the edge of the bucket
  // its successor lands in when b - 1 is a power of two (b = 2 needs one
  // extra bit).  At M = 52 a bucket is one double, so only two entries with
  // the same 1 + f(b-1) can still collide; the table ends before them.
  int bits = 0;
  while (std::ldexp(1.0, -bits) > bm1_) ++bits;
  for (;; ++bits) {
    shift_ = 52 - bits;
    key_of_one_ = std::bit_cast<std::uint64_t>(1.0) >> shift_;
    std::size_t end = 1;
    while (end < entries_.size() &&
           key(entries_[end].f) > key(entries_[end - 1].f)) {
      ++end;
    }
    if (end == entries_.size()) break;
    if (bits == 52) {
      entries_.resize(end);
      break;
    }
  }
  // f(0) = 0 and f(1) = 1 are always finite and separable, so at least
  // c_max_ = 0 remains.
  c_max_ = static_cast<std::uint64_t>(entries_.size()) - 2;

  index_.resize(key(entries_.back().f) + 1);
  std::uint64_t c = 0;
  for (std::uint64_t k = 0; k < index_.size(); ++k) {
    while (key(entries_[c].f) < k) ++c;
    index_[k] = static_cast<std::uint16_t>(c);
  }
}

std::shared_ptr<const DecisionTable> DecisionTable::shared(
    const util::GeometricScale& scale, std::uint64_t c_max) {
  using Key = std::pair<std::uint64_t, std::uint64_t>;
  static std::mutex mutex;
  static std::map<Key, std::weak_ptr<const DecisionTable>> cache;

  const Key key{std::bit_cast<std::uint64_t>(scale.b()),
                std::min(c_max, kMaxCmax)};
  const std::lock_guard<std::mutex> lock(mutex);
  auto& slot = cache[key];
  if (auto existing = slot.lock()) return existing;
  auto table = std::make_shared<const DecisionTable>(scale, c_max);
  slot = table;
  return table;
}

}  // namespace disco::core
