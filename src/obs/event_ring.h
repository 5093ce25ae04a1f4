// Single-producer single-consumer ring buffer of DecisionEvents.
//
// The producer is the one thread that owns the ring (RingTracer hands
// each emitting thread its own ring via TLS); the consumer is the
// exporter thread. Coordination is two monotonic cursors: `tail_` is
// written only by the producer, `head_` only by the consumer, so each
// side needs a single release store and the opposite acquire load per
// operation — no CAS, no locks, no allocation after construction.
//
// When the ring is full the producer DROPS the new event (never blocks,
// never overwrites in-flight slots) and bumps `dropped_`; the exporter
// surfaces the count as a synthesized kRingDropped event so loss is
// visible in the trace itself, not just in a side-channel metric.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/effects.h"
#include "obs/trace.h"

namespace scrpqo {

class SpscEventRing {
 public:
  /// `capacity` is rounded up to a power of two (masking beats modulo on
  /// the hot path) with a floor of 8.
  explicit SpscEventRing(size_t capacity) {
    size_t cap = 8;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscEventRing(const SpscEventRing&) = delete;
  SpscEventRing& operator=(const SpscEventRing&) = delete;

  size_t capacity() const { return slots_.size(); }

  /// Producer side. Returns false (and counts a drop) when full.
  /// Wait-free: two atomic loads, one 128-byte slot copy, one release
  /// store — proved alloc-free and non-blocking by the effect analyzer;
  /// noexcept because DecisionEvent is trivially copyable.
  SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING SCRPQO_NOTHROW
  SCRPQO_LOCK_BOUNDED()
  bool TryPush(const DecisionEvent& event) noexcept {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    const uint64_t head = head_.load(std::memory_order_acquire);
    if (tail - head > mask_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    slots_[tail & mask_] = event;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: appends every currently-visible event to `out` in
  /// push order and frees the slots. Returns the number drained.
  size_t DrainInto(std::vector<DecisionEvent>* out) {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    uint64_t head = head_.load(std::memory_order_relaxed);
    const size_t n = static_cast<size_t>(tail - head);
    for (; head != tail; ++head) {
      out->push_back(slots_[head & mask_]);
    }
    head_.store(head, std::memory_order_release);
    return n;
  }

  /// All-time events rejected because the ring was full. Any thread.
  int64_t dropped() const {
    return static_cast<int64_t>(dropped_.load(std::memory_order_relaxed));
  }

  /// Consumer-side estimate of buffered events (racy by nature).
  size_t size() const {
    return static_cast<size_t>(tail_.load(std::memory_order_acquire) -
                               head_.load(std::memory_order_acquire));
  }

 private:
  std::vector<DecisionEvent> slots_;
  size_t mask_ = 0;
  // The cursors live on separate cache lines so the producer's tail
  // stores never invalidate the consumer's head line and vice versa.
  alignas(64) std::atomic<uint64_t> tail_{0};
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) std::atomic<uint64_t> dropped_{0};
};

}  // namespace scrpqo
