// Copyable relaxed atomics for statistics counters that are bumped from
// const hot paths (Recost call counts, usage counters, violation
// flags). Plain `mutable int64_t` members race the moment two threads
// share the object — exactly what the concurrent getPlan read path does —
// so every such counter goes through RelaxedCounter instead.
//
// Copy/assignment transfer the current value non-atomically (relaxed
// load + store). That is only safe while no other thread touches either
// side, which holds for every use here: containers of entries grow only
// under the cache's exclusive lock, and snapshots run single-threaded.
#pragma once

#include <atomic>
#include <cstdint>

namespace scrpqo {

template <typename T>
class RelaxedCounter {
 public:
  constexpr RelaxedCounter() noexcept = default;
  constexpr RelaxedCounter(T v) noexcept : v_(v) {}  // NOLINT(runtime/explicit)

  RelaxedCounter(const RelaxedCounter& other) noexcept : v_(other.value()) {}
  RelaxedCounter& operator=(const RelaxedCounter& other) noexcept {
    Store(other.value());
    return *this;
  }
  RelaxedCounter& operator=(T v) noexcept {
    Store(v);
    return *this;
  }

  T value() const noexcept { return v_.load(std::memory_order_relaxed); }
  operator T() const noexcept { return value(); }  // NOLINT(runtime/explicit)

  /// Named Store (not std::atomic's `store`) so the project lint rule
  /// `atomic-order` can tell a blessed relaxed wrapper from a raw
  /// default-seq_cst atomic store by spelling alone.
  void Store(T v) noexcept { v_.store(v, std::memory_order_relaxed); }

  void Add(T delta) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Monotone max update (CAS loop; contention is negligible for stats).
  void UpdateMax(T candidate) noexcept {
    T cur = v_.load(std::memory_order_relaxed);
    while (candidate > cur &&
           !v_.compare_exchange_weak(cur, candidate,
                                     std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<T> v_{};
};

}  // namespace scrpqo
