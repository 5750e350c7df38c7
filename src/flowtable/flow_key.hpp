// Flow identity: the classic 5-tuple and its hash.
#pragma once

#include <cstdint>
#include <functional>

namespace disco::flowtable {

/// IPv4 5-tuple.  Ports are host byte order; protocol is the IP protocol
/// number (6 = TCP, 17 = UDP, ...).
struct FiveTuple {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;

  friend bool operator==(const FiveTuple&, const FiveTuple&) = default;
};

/// 64-bit mix of the tuple fields (xorshift-multiply avalanche, the same
/// family as SplitMix64's finaliser).  Deterministic across runs -- flow
/// placement in the table is part of an experiment's reproducible state.
[[nodiscard]] constexpr std::uint64_t hash_tuple(const FiveTuple& t) noexcept {
  std::uint64_t h = (static_cast<std::uint64_t>(t.src_ip) << 32) | t.dst_ip;
  h ^= (static_cast<std::uint64_t>(t.src_port) << 24) ^
       (static_cast<std::uint64_t>(t.dst_port) << 8) ^ t.protocol;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace disco::flowtable

template <>
struct std::hash<disco::flowtable::FiveTuple> {
  std::size_t operator()(const disco::flowtable::FiveTuple& t) const noexcept {
    return static_cast<std::size_t>(disco::flowtable::hash_tuple(t));
  }
};
