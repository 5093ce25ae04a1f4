// Asynchronous manageCache (paper Section 4.1: "Since manageCache does not
// need to occur on the critical path of query execution, it can be
// implemented asynchronously on a background thread").
//
// AsyncScr is the serving cache PqoManager backs every template with.
// getPlan runs on the caller's thread under the shared side of a
// reader/writer lock, so request threads reuse plans in parallel
// (everything TryReuse writes is a relaxed atomic). A miss is optimized on
// the caller's thread with no lock held, and its manageCache runs under
// the exclusive side in one of two modes, fixed at construction:
//  - deferred (default): on a worker thread, and the fresh optimal plan
//    is served at once. An instance arriving before its predecessor's
//    manageCache completes may take an extra optimizer call. The task
//    queue has its own plain mutex, so producers never wait on readers.
//  - inline: on the caller's thread, with no worker thread, serving the
//    store's plan. With one client this decides, serves and traces
//    exactly as Scr::OnInstance does.
// Either way concurrent misses may each optimize before either registers
// its plan. An optimizer failure serves the cheapest cached plan under
// the shared side; with nothing cached, the retries and their backoff run
// with no lock held, and a successful retry's manageCache runs inline. No
// optimizer call or sleep runs under cache_mu_. Lock-acquisition counters
// ("async_scr.lock_shared" / "async_scr.lock_exclusive") expose the
// read/write mix through the metrics registry.
//
// Every field's guarding capability is declared with GUARDED_BY, so a
// read outside the right lock is a compile error under
// SCRPQO_THREAD_SAFETY=ON (see common/thread_annotations.h). Lock order:
// queue_mu_ and cache_mu_ are never held together — the worker drops the
// queue lock before taking the cache lock, and producers release the
// cache lock before enqueueing.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <thread>

#include "common/thread_annotations.h"
#include "pqo/scr.h"

namespace scrpqo {

class AsyncScr : public PqoTechnique {
 public:
  /// `deferred`: manageCache on a worker thread (true) or inline on the
  /// missing caller's thread (false, no worker is started).
  explicit AsyncScr(ScrOptions options, bool deferred = true);
  ~AsyncScr() override;

  /// Computed once at construction (the analysis would otherwise demand
  /// the cache lock for the inner_.name() read on every call).
  std::string name() const override { return name_; }

  /// Forwards the sinks to the wrapped Scr. Decision events for misses are
  /// emitted by the worker thread when a deferred manageCache runs, and
  /// sel/cost-check hits may be emitted from concurrent request threads, so
  /// the sinks must be thread-safe (RingTracer and MetricsRegistry are).
  void SetObs(const ObsHooks& hooks) override EXCLUDES(cache_mu_);

  PlanChoice OnInstance(const WorkloadInstance& wi, EngineContext* engine)
      override EXCLUDES(cache_mu_, queue_mu_);

  /// Blocks until every queued manageCache task has been applied. Tests and
  /// metric collection call this before inspecting cache state.
  void Flush() EXCLUDES(queue_mu_);

  void FlushBackgroundWork() override { Flush(); }

  int64_t NumPlansCached() const override EXCLUDES(cache_mu_);
  int64_t PeakPlansCached() const override EXCLUDES(cache_mu_);

  /// manageCache tasks executed on the worker so far.
  int64_t tasks_processed() const EXCLUDES(queue_mu_);

  // --- cross-template budget support (see Scr's counterparts). Each call
  // takes the appropriate side of the cache lock, so PqoManager's global
  // evictor needs no knowledge of this class's locking. ---

  /// LFU frontier of the wrapped cache (shared lock).
  int64_t MinLivePlanUsage(uint64_t pinned_signature = 0) const
      EXCLUDES(cache_mu_);

  /// Evicts one LFU plan under the exclusive lock; see Scr::EvictLfuPlan.
  bool EvictLfuPlan(int instance_id, uint64_t pinned_signature = 0)
      EXCLUDES(cache_mu_);

  /// Estimated cache heap bytes (shared lock).
  int64_t EstimatedMemoryBytes() const EXCLUDES(cache_mu_);

  /// Forwards the per-template scope label; call before serving traffic.
  void SetScopeLabel(const std::string& label) EXCLUDES(cache_mu_);

 private:
  struct Task {
    WorkloadInstance wi;
    std::shared_ptr<const OptimizationResult> result;
    EngineContext* engine = nullptr;
    /// The failed critical-path reuse attempt's recost and candidate
    /// counts, forwarded into the deferred decision event.
    PlanChoice attempt;
    /// Stage breakdown of the critical-path half (failed reuse attempt +
    /// optimize), seeded into the worker's span so the deferred decision
    /// event attributes the full getPlan, not just the manageCache tail.
    StageBreakdown stages;
  };

  void WorkerLoop();

  /// manageCache on the calling thread under the exclusive side.
  void ManageInline(const WorkloadInstance& wi,
                    std::shared_ptr<const OptimizationResult> result,
                    EngineContext* engine, PlanChoice* choice,
                    int64_t start_ns) EXCLUDES(cache_mu_);

  /// The degraded getPlan in Scr's pieces (see Scr::TryServeDegraded).
  void ServeDegraded(const WorkloadInstance& wi, EngineContext* engine,
                     PlanChoice* choice, int64_t start_ns)
      EXCLUDES(cache_mu_);

  /// The warmed getPlan fast path: one shared acquisition of cache_mu_
  /// around the inner SCR's reuse attempt. Split out of OnInstance so the
  /// effect analyzer (tools/analyze) can root its SCRPQO_HOT /
  /// SCRPQO_NOALLOC / SCRPQO_NONBLOCKING / SCRPQO_LOCK_BOUNDED(cache_mu_)
  /// contracts at exactly the code a cache hit executes. `start_ns`
  /// receives the attempt's first clock stamp (see Scr::TryReuse).
  bool TryReuseFast(const WorkloadInstance& wi, EngineContext* engine,
                    PlanChoice* probe, int64_t* start_ns) EXCLUDES(cache_mu_);

  /// Reader/writer split over the cache: shared for TryReuse, the
  /// degraded fallback and stat reads; exclusive for manageCache, eviction
  /// and SetObs.
  mutable SharedMutex cache_mu_;

  /// The wrapped synchronous cache. Thread-compatible, so every method
  /// call on it must hold cache_mu_ (shared for the read-only reuse
  /// attempt and stat reads — everything TryReuse writes is a relaxed
  /// atomic — exclusive for structural manageCache updates).
  Scr inner_ GUARDED_BY(cache_mu_);

  /// Deferred-manageCache tasks a miss may leave outstanding before the
  /// next miss blocks for the worker. Bounds how stale the cache can get
  /// (and queue memory): without it, a tight request loop on a loaded
  /// machine can starve the worker for an entire sequence, so no getPlan
  /// ever sees the plans its predecessors optimized.
  static constexpr size_t kMaxPendingTasks = 2;

  /// Queue plumbing, guarded independently of the cache lock.
  mutable Mutex queue_mu_;
  CondVar work_available_;
  CondVar space_available_;
  CondVar idle_;
  std::deque<Task> queue_ GUARDED_BY(queue_mu_);
  bool shutting_down_ GUARDED_BY(queue_mu_) = false;
  bool worker_busy_ GUARDED_BY(queue_mu_) = false;
  int64_t tasks_processed_ GUARDED_BY(queue_mu_) = 0;
  /// Lock-mix counters (null without a metrics registry). Written by
  /// SetObs under the exclusive cache lock; request threads read them
  /// under at least the shared side.
  Counter* lock_shared_ GUARDED_BY(cache_mu_) = nullptr;
  Counter* lock_exclusive_ GUARDED_BY(cache_mu_) = nullptr;
  /// Deferred manageCache tasks dropped by the async_scr.task_fail fault
  /// point ("async_scr.tasks_dropped").
  Counter* tasks_dropped_ GUARDED_BY(cache_mu_) = nullptr;
  /// Whether getPlan spans are collected (tracer attached). Atomic: read
  /// on every OnInstance and by the worker, written by SetObs.
  std::atomic<bool> span_enabled_{false};
  /// "Async" + inner name; immutable after the constructor.
  std::string name_;
  const bool deferred_;
  std::thread worker_;  // started only when deferred_
};

}  // namespace scrpqo
