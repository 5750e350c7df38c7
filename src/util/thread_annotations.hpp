// Clang Thread Safety Analysis annotations, and mutex types that carry them.
//
// The concurrency invariants of this repo -- "Registry's maps are only
// touched under mutex_", "PipelineMonitor::post is only called while
// control_mutex_ serialises the control plane" -- were previously enforced
// by convention, TSan runs, and code review.  These macros make them part
// of the type system: building with
//
//     cmake -B build-analyze -S . -DDISCO_ANALYZE=ON -DCMAKE_CXX_COMPILER=clang++
//
// turns on -Wthread-safety -Werror=thread-safety-analysis, and Clang proves
// at compile time that every access to a DISCO_GUARDED_BY member happens
// with its capability held, and that every DISCO_REQUIRES function is only
// called from contexts that hold it.  See docs/static-analysis.md.
//
// On GCC (the default toolchain here) every macro expands to nothing; the
// annotations are free documentation.  The macro set mirrors the standard
// Clang/Abseil vocabulary so readers coming from either recognise it:
//   https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
//
// libstdc++'s std::mutex is not annotated as a capability, so annotating
// members with GUARDED_BY(some_std_mutex) would be rejected by the analysis
// (-Wthread-safety-attributes).  util::Mutex wraps std::mutex with the
// capability attributes, and util::MutexLock is the matching scoped lock;
// lock-protected structures in this repo use these instead of the std types
// so the analysis sees every acquire and release.
#pragma once

#include <mutex>

// clang-format off
#if defined(__clang__) && defined(__has_attribute)
#  if __has_attribute(capability)
#    define DISCO_THREAD_ANNOTATION(x) __attribute__((x))
#  endif
#endif
#ifndef DISCO_THREAD_ANNOTATION
#  define DISCO_THREAD_ANNOTATION(x)  // no-op: not Clang, or too old
#endif

/// Declares a type to be a lockable capability ("mutex", "shard", ...).
#define DISCO_CAPABILITY(name)        DISCO_THREAD_ANNOTATION(capability(name))
/// Declares an RAII type whose lifetime equals a capability hold.
#define DISCO_SCOPED_CAPABILITY       DISCO_THREAD_ANNOTATION(scoped_lockable)
/// Member may only be read or written while `mu` is held.
#define DISCO_GUARDED_BY(mu)          DISCO_THREAD_ANNOTATION(guarded_by(mu))
/// Pointee may only be dereferenced while `mu` is held.
#define DISCO_PT_GUARDED_BY(mu)       DISCO_THREAD_ANNOTATION(pt_guarded_by(mu))
/// Function may only be called while already holding the capabilities.
#define DISCO_REQUIRES(...)           DISCO_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function may only be called while NOT holding them (non-reentrancy).
#define DISCO_EXCLUDES(...)           DISCO_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function acquires the capability and holds it on return.
#define DISCO_ACQUIRE(...)            DISCO_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the capability.
#define DISCO_RELEASE(...)            DISCO_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns `result`.
#define DISCO_TRY_ACQUIRE(result, ...) \
  DISCO_THREAD_ANNOTATION(try_acquire_capability(result, __VA_ARGS__))
/// Function returns a reference to the capability guarding something.
#define DISCO_RETURN_CAPABILITY(mu)   DISCO_THREAD_ANNOTATION(lock_returned(mu))
/// Escape hatch; every use must carry a justification comment.
#define DISCO_NO_THREAD_SAFETY_ANALYSIS \
  DISCO_THREAD_ANNOTATION(no_thread_safety_analysis)
// clang-format on

namespace disco::util {

/// std::mutex with the capability attributes the analysis needs.  Same cost,
/// same semantics.
class DISCO_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DISCO_ACQUIRE() { mutex_.lock(); }
  void unlock() DISCO_RELEASE() { mutex_.unlock(); }
  [[nodiscard]] bool try_lock() DISCO_TRY_ACQUIRE(true) {
    return mutex_.try_lock();
  }

 private:
  std::mutex mutex_;
};

/// Scoped lock over util::Mutex -- the std::lock_guard of this vocabulary.
class DISCO_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) DISCO_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }

  ~MutexLock() DISCO_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

}  // namespace disco::util
