// Bit-packed fixed-width counter storage.
//
// The paper evaluates counters by the number of SRAM bits they occupy
// ("largest counter bits").  To keep that measurement honest the counter
// arrays in this repository store values packed at exactly W bits each; an
// update that would exceed 2^W - 1 is reported as an overflow instead of
// being silently widened.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/prefetch.hpp"

namespace disco::util {

/// Array of `size` unsigned counters, each exactly `width` bits (1..64),
/// packed contiguously into 64-bit words.  get/set are O(1) and touch at most
/// two words.
class BitPackedArray {
 public:
  BitPackedArray(std::size_t size, int width) : size_(size), width_(width) {
    if (width < 1 || width > 64) {
      throw std::invalid_argument("BitPackedArray: width must be in [1, 64]");
    }
    const std::size_t total_bits = size * static_cast<std::size_t>(width);
    words_.assign((total_bits + 63) / 64, 0);
    mask_ = width == 64 ? ~std::uint64_t{0}
                        : ((std::uint64_t{1} << width) - 1);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] std::uint64_t max_value() const noexcept { return mask_; }

  /// Total SRAM footprint in bits (the quantity the paper budgets).
  [[nodiscard]] std::size_t storage_bits() const noexcept {
    return size_ * static_cast<std::size_t>(width_);
  }

  [[nodiscard]] std::uint64_t get(std::size_t i) const noexcept {
    assert(i < size_);
    const std::size_t bit = i * static_cast<std::size_t>(width_);
    const std::size_t word = bit / 64;
    const unsigned off = static_cast<unsigned>(bit % 64);
    std::uint64_t v = words_[word] >> off;
    if (off + static_cast<unsigned>(width_) > 64) {
      v |= words_[word + 1] << (64 - off);
    }
    return v & mask_;
  }

  /// Stores v at slot i.  Precondition: v fits in `width` bits.
  void set(std::size_t i, std::uint64_t v) noexcept {
    assert(i < size_);
    assert(v <= mask_);
    const std::size_t bit = i * static_cast<std::size_t>(width_);
    const std::size_t word = bit / 64;
    const unsigned off = static_cast<unsigned>(bit % 64);
    words_[word] = (words_[word] & ~(mask_ << off)) | (v << off);
    if (off + static_cast<unsigned>(width_) > 64) {
      const unsigned hi_bits = off + static_cast<unsigned>(width_) - 64;
      const std::uint64_t hi_mask = (std::uint64_t{1} << hi_bits) - 1;
      words_[word + 1] = (words_[word + 1] & ~hi_mask) | (v >> (64 - off));
    }
  }

  /// Adds `delta` to slot i.  Returns false (leaving the slot saturated at
  /// max_value) on overflow, true otherwise.
  [[nodiscard]] bool try_add(std::size_t i, std::uint64_t delta) noexcept {
    const std::uint64_t cur = get(i);
    if (delta > mask_ - cur) {
      set(i, mask_);
      return false;
    }
    set(i, cur + delta);
    return true;
  }

  void fill_zero() noexcept { fill_zero(size_); }

  /// Zeroes slots [0, count) by rewriting only the words that hold them.
  /// Other slots sharing the last of those words are zeroed too, so callers
  /// use it where every slot past `count` is already zero.
  void fill_zero(std::size_t count) noexcept {
    const std::size_t bits =
        std::min(count, size_) * static_cast<std::size_t>(width_);
    std::fill_n(words_.begin(), (bits + 63) / 64, std::uint64_t{0});
  }

  /// Pulls the word(s) holding slot i toward the cache -- the batched
  /// ingest path prefetches counter words between probing and updating.
  void prefetch(std::size_t i) const noexcept {
    prefetch_read(words_.data() + (i * static_cast<std::size_t>(width_)) / 64);
  }

 private:
  std::size_t size_;
  int width_;
  std::uint64_t mask_;
  std::vector<std::uint64_t> words_;
};

}  // namespace disco::util
