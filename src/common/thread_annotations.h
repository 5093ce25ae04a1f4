// Clang Thread Safety Analysis for the whole concurrency surface.
//
// Two layers live here:
//
//  1. Capability-annotation macros (GUARDED_BY, REQUIRES, ACQUIRE, ...)
//     that expand to Clang's thread-safety attributes under Clang and to
//     nothing elsewhere, so GCC builds are unaffected. Build with
//     -DSCRPQO_THREAD_SAFETY=ON (Clang only) to compile the tree under
//     `-Wthread-safety -Wthread-safety-beta -Werror`: every "this lock
//     protects that field" comment in the codebase is then a machine-
//     checked proof obligation instead of documentation.
//
//  2. Annotated synchronization primitives — Mutex, SharedMutex, CondVar
//     and the scoped lock types MutexLock / ReaderMutexLock /
//     WriterMutexLock — thin wrappers over the std primitives that carry
//     the CAPABILITY / SCOPED_CAPABILITY attributes the analysis needs.
//     Raw std::mutex / std::shared_mutex / std::condition_variable are
//     banned outside this header (enforced by the `raw-mutex` rule of
//     tools/analyze/scrpqo_effects.py), because a raw mutex is invisible
//     to the analysis and silently exempts every field it guards.
//
// The wrapper API mirrors abseil's Mutex/MutexLock shape (the canonical
// battle-tested user of these attributes) rather than the std lock
// adapters: std::unique_lock's movable/unlockable protocol is largely
// opaque to the analysis, while scoped-capability RAII types and explicit
// Lock()/Unlock() pairs are fully tracked.
//
// Lock-ordering note: the DAG of lock acquisition order is documented in
// DESIGN.md ("Capability map & lock order") and asserted with
// ACQUIRED_BEFORE / EXCLUDES where the annotation language can express it
// (same-object member mutexes; cross-object orders stay prose).
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// ---------------------------------------------------------------------------
// Attribute macros (clang.llvm.org/docs/ThreadSafetyAnalysis.html).
// ---------------------------------------------------------------------------

#if defined(__clang__) && !defined(SWIG)
#define SCRPQO_TS_ATTRIBUTE__(x) __attribute__((x))
#else
#define SCRPQO_TS_ATTRIBUTE__(x)  // no-op on GCC/MSVC
#endif

/// Class is a lockable capability ("mutex", "shared_mutex", ...).
#define CAPABILITY(x) SCRPQO_TS_ATTRIBUTE__(capability(x))

/// RAII class that acquires a capability in its constructor and releases
/// it in its destructor.
#define SCOPED_CAPABILITY SCRPQO_TS_ATTRIBUTE__(scoped_lockable)

/// Field is protected by the given capability: reads require at least a
/// shared hold, writes an exclusive one.
#define GUARDED_BY(x) SCRPQO_TS_ATTRIBUTE__(guarded_by(x))

/// Pointer field whose *pointee* is protected by the given capability.
#define PT_GUARDED_BY(x) SCRPQO_TS_ATTRIBUTE__(pt_guarded_by(x))

/// Declared lock-ordering edges, checked under -Wthread-safety-beta.
#define ACQUIRED_BEFORE(...) SCRPQO_TS_ATTRIBUTE__(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) SCRPQO_TS_ATTRIBUTE__(acquired_after(__VA_ARGS__))

/// Caller must hold the capability exclusively (REQUIRES) or at least
/// shared (REQUIRES_SHARED) when calling.
#define REQUIRES(...) \
  SCRPQO_TS_ATTRIBUTE__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  SCRPQO_TS_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))

/// Function acquires (and does not release) the capability.
#define ACQUIRE(...) SCRPQO_TS_ATTRIBUTE__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  SCRPQO_TS_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (exclusive / shared / either).
#define RELEASE(...) SCRPQO_TS_ATTRIBUTE__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  SCRPQO_TS_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  SCRPQO_TS_ATTRIBUTE__(release_generic_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns the given value.
#define TRY_ACQUIRE(...) \
  SCRPQO_TS_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  SCRPQO_TS_ATTRIBUTE__(try_acquire_shared_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (deadlock guard for self-locking
/// public entry points).
#define EXCLUDES(...) SCRPQO_TS_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (no acquire/release).
#define ASSERT_CAPABILITY(x) SCRPQO_TS_ATTRIBUTE__(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  SCRPQO_TS_ATTRIBUTE__(assert_shared_capability(x))

/// Function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) SCRPQO_TS_ATTRIBUTE__(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Serving-path
/// code must not use this (CI greps for it outside tests/benches); every
/// remaining use carries a comment justifying why the analysis cannot see
/// the invariant.
#define NO_THREAD_SAFETY_ANALYSIS \
  SCRPQO_TS_ATTRIBUTE__(no_thread_safety_analysis)

namespace scrpqo {

// ---------------------------------------------------------------------------
// Annotated primitives.
// ---------------------------------------------------------------------------

class CondVar;

/// Annotated exclusive mutex. Prefer the scoped MutexLock; use explicit
/// Lock()/Unlock() only for hand-over-hand patterns (worker loops that
/// drop the lock around the work item).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Annotated reader/writer mutex (AsyncScr's cache lock).
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  void LockShared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// Condition variable bound to Mutex. Waits are annotated REQUIRES(mu):
/// the analysis models the wait as "holds mu across the call" (the
/// transient unlock/relock inside is invisible, which is exactly the
/// invariant guarded predicates rely on). Use explicit
/// `while (!pred) cv.Wait(mu);` loops rather than predicate lambdas —
/// the analysis checks lambda bodies as separate functions and cannot see
/// that the enclosing wait holds the lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.mu_, std::adopt_lock);
    cv_.wait(adopted);
    adopted.release();
  }

  template <typename Rep, typename Period>
  void WaitFor(Mutex& mu,
               const std::chrono::duration<Rep, Period>& timeout)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.mu_, std::adopt_lock);
    cv_.wait_for(adopted, timeout);
    adopted.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// RAII exclusive hold of a Mutex for the enclosing scope.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII shared (reader) hold of a SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() RELEASE_GENERIC() { mu_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII exclusive (writer) hold of a SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace scrpqo
