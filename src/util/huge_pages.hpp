// Transparent huge pages for large flat arrays.
//
// The flow table's bucket and tag arrays and the bit-packed counter words
// are allocated once and written in full when they are built (zero-filled),
// then random-accessed per packet.  At a gated shard's size the bucket array
// alone spans 1,024 pages of 4 KiB, most of a second-level TLB, and
// building it takes one page fault per 4 KiB.
// HugePageAllocator gives such an array 2 MiB-aligned storage and asks the
// kernel (MADV_HUGEPAGE) to back its whole 2 MiB pages with huge pages
// BEFORE the first write, so the zero-fill itself faults them in 2 MiB at a
// time.  Advice given after the fill cannot do that: the range is then
// mapped with 4 KiB pages, which only khugepaged's slow background collapse
// would promote.
//
// Only whole 2 MiB pages inside the array are advised, never a page that
// sticks out of it, so resident memory is what it would be without the
// advice.  Freeing the array advises its pages against huge pages, so
// memory the heap later reuses there is not faulted in 2 MiB at a time
// (where THP runs in `always` mode, those reused pages stay on 4 KiB).  The storage comes from the sized, aligned operator new, so the
// sanitizers keep their redzones and leak checks.  Arrays below 2 MiB, and
// every array off Linux, take std::allocator.  The advice is advisory: a
// kernel with THP off, or with no free huge page, leaves 4 KiB pages.
//
// Not for arrays that grow one element at a time (the flow table's
// slot-ordered key list): their resident size would jump 2 MiB at a time.
//
// The one place in src/ that may call madvise, mmap or munmap
// (tools/lint_disco.py, rule madvise-confined).
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <new>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace disco::util {

/// The huge-page size this allocator aligns to and advises in units of.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// True when an array of `bytes` gets huge-page storage.
[[nodiscard]] constexpr bool on_huge_pages(std::size_t bytes) noexcept {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  return bytes >= kHugePageBytes;
#else
  (void)bytes;
  return false;
#endif
}

template <typename T>
class HugePageAllocator {
 public:
  using value_type = T;

  HugePageAllocator() noexcept = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (!huge(n)) return std::allocator<T>{}.allocate(n);
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    const std::size_t bytes = n * sizeof(T);
    void* p = ::operator new(bytes, std::align_val_t{kHugePageBytes});
    advise_whole_pages(p, bytes, /*huge_pages=*/true);
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (!huge(n)) {
      std::allocator<T>{}.deallocate(p, n);
      return;
    }
    // Advice belongs to the address range, not to the allocation: left in
    // place, it would make whatever the heap later puts there fault in
    // 2 MiB at a time.
    advise_whole_pages(p, n * sizeof(T), /*huge_pages=*/false);
    ::operator delete(p, n * sizeof(T), std::align_val_t{kHugePageBytes});
  }

  friend bool operator==(const HugePageAllocator&,
                         const HugePageAllocator&) noexcept {
    return true;
  }

 private:
  /// on_huge_pages(n * sizeof(T)), without overflowing the product.
  static constexpr bool huge(std::size_t n) noexcept {
    return on_huge_pages(kHugePageBytes) &&
           n > (kHugePageBytes - 1) / sizeof(T);
  }

  /// Advises the whole 2 MiB pages of the array at `p` (2 MiB-aligned, so
  /// they start at p) for huge pages, or against them.  A refused advice
  /// (THP compiled out of the kernel) leaves 4 KiB pages, so the result is
  /// not checked.
  static void advise_whole_pages(void* p, std::size_t bytes,
                                 bool huge_pages) noexcept {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
    (void)madvise(p, bytes / kHugePageBytes * kHugePageBytes,
                  huge_pages ? MADV_HUGEPAGE : MADV_NOHUGEPAGE);
#else
    (void)p;
    (void)bytes;
    (void)huge_pages;
#endif
  }
};

/// A flat array on huge pages once it reaches 2 MiB (see above).
template <typename T>
using HugePageVector = std::vector<T, HugePageAllocator<T>>;

}  // namespace disco::util
