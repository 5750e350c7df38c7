// Tests for util::HugePageAllocator (util/huge_pages.hpp): which arrays get
// huge-page storage, its alignment, and what the kernel was told about it,
// read back from /proc/self/smaps.  THPeligible reports the advice, not
// whether a huge page was free, so these checks hold on a fragmented host.
//
// The small-array case runs first: it reads the flags of a mapping no
// earlier allocation in this process has advised.  The freed-array case
// runs last: it changes how glibc places large blocks.
#include "util/huge_pages.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace disco::util {
namespace {

/// The THP mode the kernel runs in ("always [madvise] never" lists the
/// choices, the active one bracketed); empty when the kernel has no THP.
std::string thp_enabled() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  std::getline(in, line);
  return line;
}

/// Two fields of the /proc/self/smaps entry holding an address.
struct Mapping {
  std::optional<int> thp_eligible;  ///< THPeligible, when smaps has it
  std::string vm_flags;             ///< VmFlags, e.g. "rd wr mr mw me ac hg"
};

std::optional<Mapping> mapping_at(std::uintptr_t addr) {
  std::ifstream smaps("/proc/self/smaps");
  std::optional<Mapping> found;
  std::string line;
  while (std::getline(smaps, line)) {
    // An entry starts with "start-end perms ..."; field lines are
    // "Name: value" and never parse as two hex numbers joined by '-'.
    unsigned long lo = 0;
    unsigned long hi = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx ", &lo, &hi) == 2) {
      if (found) break;  // the entry holding p has ended
      if (lo <= addr && addr < hi) found.emplace();
      continue;
    }
    if (!found) continue;
    if (line.rfind("THPeligible:", 0) == 0) {
      found->thp_eligible = std::stoi(line.substr(12));
    } else if (line.rfind("VmFlags:", 0) == 0) {
      found->vm_flags = line.substr(8);
    }
  }
  return found;
}

std::optional<Mapping> mapping_of(const void* p) {
  return mapping_at(reinterpret_cast<std::uintptr_t>(p));
}

bool advised(const Mapping& m) {
  return (m.vm_flags + " ").find(" hg ") != std::string::npos;
}

TEST(HugePageAllocator, SmallArrayTakesStdAllocator) {
  constexpr std::size_t kBytes = std::size_t{64} << 10;
  EXPECT_FALSE(on_huge_pages(kBytes));
  HugePageVector<std::uint8_t> small(kBytes, 1);
  const auto m = mapping_of(small.data());
  ASSERT_TRUE(m.has_value());
  EXPECT_FALSE(advised(*m)) << m->vm_flags;
}

TEST(HugePageAllocator, LargeArrayIsAlignedAndAdvisedInside) {
  if (!on_huge_pages(kHugePageBytes)) {
    GTEST_SKIP() << "no MADV_HUGEPAGE on this target: std::allocator only";
  }
  // Three whole huge pages and a 40-byte tail.
  HugePageVector<std::uint64_t> big(3 * kHugePageBytes / 8 + 5, 0);
  const auto* first = reinterpret_cast<const std::uint8_t*>(big.data());
  ASSERT_EQ(reinterpret_cast<std::uintptr_t>(first) % kHugePageBytes, 0u);

  const std::string mode = thp_enabled();
  if (mode.empty() || mode.find("[never]") != std::string::npos) {
    GTEST_SKIP() << "transparent huge pages off: '" << mode << "'";
  }
  const auto head = mapping_of(first);
  const auto last = mapping_of(first + 3 * kHugePageBytes - 1);
  const auto tail = mapping_of(first + 3 * kHugePageBytes);
  ASSERT_TRUE(head && last && tail);
  if (!head->thp_eligible) GTEST_SKIP() << "smaps has no THPeligible field";
  EXPECT_EQ(*head->thp_eligible, 1) << head->vm_flags;
  EXPECT_EQ(*last->thp_eligible, 1) << last->vm_flags;
  EXPECT_TRUE(advised(*head)) << head->vm_flags;
  // The tail shares its 2 MiB page with memory outside the array, so the
  // advice stops before it.
  EXPECT_FALSE(advised(*tail)) << tail->vm_flags;
}

TEST(HugePageAllocator, ArraysRoundTripThroughBothPaths) {
  // Growth crosses the 2 MiB line: each reallocation frees through the
  // path that allocated (a mismatch is a sanitizer error).
  HugePageVector<std::uint32_t> grown;
  for (std::uint32_t i = 0; i < (3u << 20) / 4; ++i) grown.push_back(i);
  EXPECT_EQ(grown.back(), (3u << 20) / 4 - 1);
  const HugePageVector<std::uint32_t> copy = grown;
  EXPECT_EQ(copy, grown);
}

TEST(HugePageAllocator, AdviceEndsWithTheArray) {
  if (!on_huge_pages(kHugePageBytes)) {
    GTEST_SKIP() << "no MADV_HUGEPAGE on this target: std::allocator only";
  }
  const std::string mode = thp_enabled();
  if (mode.empty() || mode.find("[never]") != std::string::npos) {
    GTEST_SKIP() << "transparent huge pages off: '" << mode << "'";
  }
#if defined(__GLIBC__)
  // Serve large blocks from the heap and keep freed ones mapped, as a
  // long-running process that has freed big blocks does; a block returned
  // with munmap would leave nothing to inspect.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
#endif
  std::uintptr_t first = 0;
  {
    HugePageVector<std::uint64_t> big(2 * kHugePageBytes / 8, 0);
    first = reinterpret_cast<std::uintptr_t>(big.data());
    const auto m = mapping_of(big.data());
    ASSERT_TRUE(m.has_value());
    ASSERT_TRUE(advised(*m)) << m->vm_flags;
  }
  // Whatever the heap puts in the freed range next must not be faulted in
  // 2 MiB at a time.
  const auto after = mapping_at(first);
  if (after) {
    EXPECT_FALSE(advised(*after)) << after->vm_flags;
  }
}

}  // namespace
}  // namespace disco::util
