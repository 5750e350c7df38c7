// Spin-loop hint portability shim.
//
// A thread that waits by spinning, and must leave shared cache lines alone
// while it does (the pipeline worker's pause after a thin ring pop), burns
// its time in the core's spin-loop hint: x86 `pause`, AArch64 `yield`.  The
// hint touches no memory and frees execution resources for a sibling
// hyperthread.  Other targets get a compiler barrier, so a loop of hints is
// still never optimised away.
#pragma once

namespace disco::util {

/// One spin-loop hint.  Its duration is the core's: about 20 ns on recent
/// Intel server cores, a few ns on older ones.
inline void cpu_relax() noexcept {
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
  __builtin_ia32_pause();
#elif (defined(__GNUC__) || defined(__clang__)) && defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#elif defined(__GNUC__) || defined(__clang__)
  asm volatile("" ::: "memory");
#endif
}

}  // namespace disco::util
