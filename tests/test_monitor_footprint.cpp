// Pins the heap a monitor shard really holds per provisioned flow, and
// FlowMonitor::memory() to it.
//
// memory() counts the flow table's slot ids and tags, its key list and slot
// bitmap (both reserved to capacity) and the counters, the per-flow state
// the paper budgets.  What it leaves out is small: the free list and the
// decision tables.  This binary replaces the global operator new and delete
// and counts the bytes requested and not yet freed, so the test sees every
// array the shard allocates.  Every form is replaced, so that no block this
// file hands out reaches another delete (a sanitizer runtime brings its
// own).  glibc's mallinfo2 would not do: it also counts the slack in front
// of each 2 MiB-aligned array (util/huge_pages.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "flowtable/monitor.hpp"
#include "pipeline/pipeline.hpp"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};

// Every block keeps its requested size just in front of the pointer handed
// out, in a header of `align` bytes, so a delete that is not told the size
// still takes off what its new added.
constexpr std::size_t kMinAlign = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

void* allocate(std::size_t bytes, std::size_t align) noexcept {
  align = std::max(align, kMinAlign);
  void* base = nullptr;
  if (posix_memalign(&base, align, bytes + align) != 0) return nullptr;
  unsigned char* user = static_cast<unsigned char*>(base) + align;
  std::memcpy(user - sizeof bytes, &bytes, sizeof bytes);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(bytes),
                         std::memory_order_relaxed);
  return user;
}

void* allocate_or_throw(std::size_t bytes, std::size_t align) {
  void* p = allocate(bytes, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void release(void* p, std::size_t align) noexcept {
  if (p == nullptr) return;
  align = std::max(align, kMinAlign);
  unsigned char* user = static_cast<unsigned char*>(p);
  std::size_t bytes = 0;
  std::memcpy(&bytes, user - sizeof bytes, sizeof bytes);
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(bytes),
                         std::memory_order_relaxed);
  std::free(user - align);
}

std::size_t align_of(std::align_val_t align) {
  return static_cast<std::size_t>(align);
}

}  // namespace

void* operator new(std::size_t n) { return allocate_or_throw(n, 0); }
void* operator new[](std::size_t n) { return allocate_or_throw(n, 0); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return allocate_or_throw(n, align_of(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate_or_throw(n, align_of(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return allocate(n, align_of(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return allocate(n, align_of(a));
}

void operator delete(void* p) noexcept { release(p, 0); }
void operator delete[](void* p) noexcept { release(p, 0); }
void operator delete(void* p, std::size_t) noexcept { release(p, 0); }
void operator delete[](void* p, std::size_t) noexcept { release(p, 0); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  release(p, 0);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p, 0);
}
void operator delete(void* p, std::align_val_t a) noexcept {
  release(p, align_of(a));
}
void operator delete[](void* p, std::align_val_t a) noexcept {
  release(p, align_of(a));
}
void operator delete(void* p, std::size_t, std::align_val_t a) noexcept {
  release(p, align_of(a));
}
void operator delete[](void* p, std::size_t, std::align_val_t a) noexcept {
  release(p, align_of(a));
}
void operator delete(void* p, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  release(p, align_of(a));
}
void operator delete[](void* p, std::align_val_t a,
                       const std::nothrow_t&) noexcept {
  release(p, align_of(a));
}

namespace disco::flowtable {
namespace {

FiveTuple tuple(std::uint32_t i) {
  return FiveTuple{0x0a000000u + i, 0xc0a80001u,
                   static_cast<std::uint16_t>(1024 + (i & 0x3fff)), 443, 6};
}

// One shard as perfbench's gated pipelines build it: 2^20 flows over two
// workers (655,360 provisioned flows per shard), 12-bit counters, holding
// 50,000 live flows.  The bound sits above the slot ids (51.2 bits per
// provisioned flow), the tags (12.8), the key list (128), the slot bitmap
// (1) and the counters (24); one more 64-bit word per flow breaks it.
// memory() must read within 2% of the heap, so the accounting cannot drift
// from what the shard holds.
TEST(MonitorFootprint, GatedShardHeapBitsPerProvisionedFlow) {
  pipeline::PipelineMonitor::Config config;
  config.base.max_flows = std::size_t{1} << 20;
  config.base.counter_bits = 12;
  config.workers = 2;
  const FlowMonitor::Config shard =
      pipeline::PipelineMonitor::shard_config(config, 0);
  const auto flows = static_cast<double>(shard.max_flows);

  const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  FlowMonitor monitor(shard);
  std::uint32_t accepted = 0;
  for (std::uint32_t i = 0; i < 50'000; ++i) {
    accepted += monitor.ingest(tuple(i), 64) ? 1 : 0;
  }
  const std::int64_t held =
      g_live_bytes.load(std::memory_order_relaxed) - before;
  ASSERT_EQ(accepted, 50'000u);

  const double heap_bits = static_cast<double>(held) * 8.0 / flows;
  const double reported_bits =
      static_cast<double>(monitor.memory().total()) / flows;
  std::printf("heap bits per provisioned flow: %.1f (memory(): %.1f)\n",
              heap_bits, reported_bits);
  // memory() names a subset of the heap, so a lower reading means the
  // counting operators are not the ones in use.
  EXPECT_GE(heap_bits, reported_bits);
  EXPECT_NEAR(reported_bits, heap_bits, 0.02 * heap_bits);
  EXPECT_LE(heap_bits, 225.0);
}

}  // namespace
}  // namespace disco::flowtable
