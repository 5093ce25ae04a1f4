// Lock-free decision-event capture, and the only tracer: each emitting
// thread gets its own SPSC ring (obs/event_ring.h), registered lazily
// through a thread-local handle on first Record; a background exporter
// thread drains every ring a few thousand times a second, assigns global
// sequence numbers in drain order, and fans the merged stream out to
// pluggable TraceSinks (obs/sink.h). Producers never contend on a lock or
// with each other — a warmed Record is one TLS scan plus one SPSC push,
// proved allocation-free and non-blocking by tools/analyze.
//
// Loss policy: a full ring drops (never blocks the serving path). The
// exporter notices the ring's drop counter advancing and (a) adds it to
// dropped(), (b) synthesizes a kRingDropped event carrying the delta in
// its `dropped` field, so the loss is recorded in-band in the trace.
//
// Thread-handle lifetime: handles are keyed by a process-unique tracer
// id (not the tracer's address, which the allocator can reuse), and hold
// shared ownership of their ring, so a thread that outlives the tracer
// can still touch its handle safely; retired handles are pruned the next
// time the thread registers with a new tracer.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/event_ring.h"
#include "obs/sink.h"
#include "obs/trace.h"

namespace scrpqo {

class RingTracer {
 public:
  struct Options {
    /// Per-producer-thread ring capacity (rounded up to a power of two).
    size_t ring_capacity = 1 << 12;
    /// Retained in-memory window backing Snapshot().
    size_t window_capacity = 1 << 16;
    /// Exporter wake-up period between drains, microseconds.
    int64_t drain_interval_micros = 200;
  };

  RingTracer();
  explicit RingTracer(Options options);
  /// Lossless configuration for one-shot runs (CLI, tests): each thread's
  /// ring and the retained window both hold `capacity` events, so a
  /// thread that records at most `capacity` events never drops one, no
  /// matter how late the exporter runs.
  explicit RingTracer(size_t capacity);
  ~RingTracer();

  RingTracer(const RingTracer&) = delete;
  RingTracer& operator=(const RingTracer&) = delete;

  /// Copies `event` into the calling thread's ring (registering the ring
  /// on this thread's first Record against this tracer). Wait-free once
  /// registered; drops the event when the ring is full.
  void Record(const DecisionEvent& event);

  /// Events exported so far (drained, seq-stamped, and fanned out).
  /// Record attempts = total_recorded() + dropped() + still-buffered.
  int64_t total_recorded() const;

  /// All-time events lost to full rings.
  int64_t dropped() const;

  /// Drains every ring, then returns the retained window (from the
  /// built-in InMemorySink), oldest first: exact for quiesced producers.
  std::vector<DecisionEvent> Snapshot() EXCLUDES(export_mu_);

  /// Attaches a sink to the fan-out. Safe at any time; the sink starts
  /// receiving batches at the next drain.
  void AddSink(std::shared_ptr<TraceSink> sink) EXCLUDES(export_mu_);

  /// Drains every ring now and flushes all sinks. On return, every event
  /// recorded-before-Flush by *quiesced* producers is exported; a push
  /// racing with the drain may land in the next round.
  Status Flush() EXCLUDES(export_mu_);

 private:
  struct ThreadRing {
    explicit ThreadRing(size_t capacity) : ring(capacity) {}
    SpscEventRing ring;
    /// Drop count already accounted for by the exporter (exporter-only,
    /// serialized by export_mu_).
    int64_t drops_seen = 0;
  };

  /// Registry node: rings are pushed onto a lock-free list by their
  /// producer threads and only freed by the destructor, so the exporter
  /// walks the list without coordinating with registration.
  struct RingNode {
    std::shared_ptr<ThreadRing> ring;
    RingNode* next = nullptr;
  };

  SpscEventRing* RegisterThisThread();
  /// One drain round over all rings.
  void DrainLocked() REQUIRES(export_mu_);
  void ExporterLoop();

  const Options options_;
  const uint64_t tracer_id_;
  /// Technique name stamped on synthesized kRingDropped events.
  const NameId loss_name_;
  /// Set by the destructor; threads use it to prune dead TLS handles.
  const std::shared_ptr<std::atomic<bool>> retired_;

  /// Head of the ring registry (push-only until destruction).
  std::atomic<RingNode*> rings_{nullptr};

  /// Serializes drain rounds (exporter loop vs. explicit Flush/Snapshot)
  /// and guards the exporter-side state: sink list, sequence counter,
  /// drain scratch, and the ThreadRing::drops_seen bookkeeping.
  mutable Mutex export_mu_;
  std::vector<std::shared_ptr<TraceSink>> sinks_ GUARDED_BY(export_mu_);
  /// Built-in retained window (first sink of the fan-out). The pointer is
  /// immutable after construction; InMemorySink locks itself internally.
  const std::shared_ptr<InMemorySink> window_;
  int64_t next_seq_ GUARDED_BY(export_mu_) = 0;
  /// Drain-round scratch: reused across rounds so the exporter's steady
  /// state allocates nothing.
  std::vector<DecisionEvent> batch_scratch_ GUARDED_BY(export_mu_);

  std::atomic<int64_t> exported_total_{0};
  std::atomic<int64_t> dropped_total_{0};

  Mutex stop_mu_;
  CondVar stop_cv_;
  bool stopping_ GUARDED_BY(stop_mu_) = false;
  std::thread exporter_;
};

}  // namespace scrpqo
