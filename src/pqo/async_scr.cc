#include "pqo/async_scr.h"

#include "common/fault_injection.h"

namespace scrpqo {

AsyncScr::AsyncScr(ScrOptions options, bool deferred)
    : inner_(options), deferred_(deferred) {
  {
    // The object is not yet shared, but taking the lock keeps the
    // guarded inner_.name() read provable without an analysis escape.
    ReaderMutexLock cache_lock(cache_mu_);
    name_ = "Async" + inner_.name();
  }
  if (deferred_) worker_ = std::thread([this] { WorkerLoop(); });
}

AsyncScr::~AsyncScr() {
  if (!deferred_) return;
  {
    MutexLock lock(queue_mu_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  space_available_.NotifyAll();
  worker_.join();
}

void AsyncScr::WorkerLoop() {
  // The queue lock is held while popping and while recording the task
  // done, and released around the cache update so producers can keep
  // enqueueing.
  for (;;) {
    Task task;
    {
      MutexLock lock(queue_mu_);
      while (!shutting_down_ && queue_.empty()) {
        work_available_.Wait(queue_mu_);
      }
      // shutting_down_ is set and all deferred work has been applied.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      worker_busy_ = true;
      space_available_.NotifyOne();
    }
    {
      // manageCache mutates the cache structurally (instance-list growth,
      // plan-store inserts, evictions), so it takes the exclusive side;
      // concurrent getPlan readers drain first and new ones wait out the
      // update — exactly the background-thread model of the paper.
      WriterMutexLock cache_lock(cache_mu_);
      if (lock_exclusive_ != nullptr) lock_exclusive_->Increment();
      if (FaultShouldFire(faults::kAsyncTaskFail)) [[unlikely]] {
        // Deferred manageCache dropped (simulated task failure): the
        // fresh plan was already served on the critical path, so
        // correctness and the guarantee are intact — the cache just
        // doesn't learn from this instance and the next similar one
        // re-optimizes.
        if (tasks_dropped_ != nullptr) tasks_dropped_->Increment();
      } else {
        // The worker's own span, pre-seeded with the critical-path stages
        // captured at enqueue time, so the deferred decision event
        // carries the whole getPlan breakdown.
        GetPlanSpan span(span_enabled_.load(std::memory_order_relaxed));
        span.Seed(task.stages);
        inner_.RegisterOptimization(task.wi, std::move(task.result),
                                    task.engine, &task.attempt);
      }
    }
    MutexLock lock(queue_mu_);
    ++tasks_processed_;
    worker_busy_ = false;
    if (queue_.empty()) idle_.NotifyAll();
  }
}

void AsyncScr::SetObs(const ObsHooks& hooks) {
  WriterMutexLock cache_lock(cache_mu_);
  inner_.SetObs(hooks);
  if (hooks.metrics != nullptr) {
    lock_shared_ = hooks.metrics->counter("async_scr.lock_shared");
    lock_exclusive_ = hooks.metrics->counter("async_scr.lock_exclusive");
    tasks_dropped_ = hooks.metrics->counter("async_scr.tasks_dropped");
  } else {
    lock_shared_ = nullptr;
    lock_exclusive_ = nullptr;
    tasks_dropped_ = nullptr;
  }
  span_enabled_.store(hooks.tracer != nullptr, std::memory_order_relaxed);
}

SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING SCRPQO_LOCK_BOUNDED(cache_mu_)
bool AsyncScr::TryReuseFast(const WorkloadInstance& wi,
                            EngineContext* engine, PlanChoice* probe,
                            int64_t* start_ns) {
  // Shared side: reuse attempts from any number of request threads
  // proceed in parallel; they only wait when the worker is mid-update.
  ReaderMutexLock cache_lock(cache_mu_);
  if (lock_shared_ != nullptr) lock_shared_->Increment();
  return inner_.TryReuse(wi, engine, probe, start_ns);
}

PlanChoice AsyncScr::OnInstance(const WorkloadInstance& wi,
                                EngineContext* engine) {
  // Span for the whole decision; a no-op when a PqoManager already opened
  // one for this call.
  GetPlanSpan span(span_enabled_.load(std::memory_order_relaxed));
  PlanChoice choice;
  int64_t start_ns = -1;
  if (TryReuseFast(wi, engine, &choice, &start_ns)) return choice;

  // Cache miss: optimize on the critical path (the query must run), with
  // no lock held. The failed attempt's recost and candidate counts stay in
  // `choice`: they belong to this getPlan (max_recost_per_get_plan would
  // otherwise under-report misses).
  auto result = engine->Optimize(wi);
  if (result == nullptr) [[unlikely]] {
    ServeDegraded(wi, engine, &choice, start_ns);
    return choice;
  }
  choice.optimized = true;
  if (!deferred_) {
    ManageInline(wi, std::move(result), engine, &choice, start_ns);
    return choice;
  }
  // Deferred: return the fresh optimal plan and hand the bookkeeping to
  // the worker. Capture the ambient breakdown (ours, or the manager's
  // outer span) rather than `span.breakdown()`: when nested, the outer
  // span owns the stages and ours is empty.
  StageBreakdown stages;
  if (const StageBreakdown* b = SpanContext::Current()) stages = *b;
  auto plan = std::make_shared<CachedPlan>(MakeCachedPlan(*result));
  {
    // Bounded hand-off: a miss may leave at most kMaxPendingTasks deferred
    // updates outstanding before it waits for the worker, so the cache
    // never lags the request stream by more than a couple of instances.
    MutexLock lock(queue_mu_);
    while (!shutting_down_ && queue_.size() >= kMaxPendingTasks) {
      space_available_.Wait(queue_mu_);
    }
    if (!shutting_down_) {
      queue_.push_back(Task{wi, std::move(result), engine, choice, stages});
    }
  }
  work_available_.NotifyOne();
  choice.plan = std::move(plan);
  return choice;
}

void AsyncScr::ManageInline(const WorkloadInstance& wi,
                            std::shared_ptr<const OptimizationResult> result,
                            EngineContext* engine, PlanChoice* choice,
                            int64_t start_ns) {
  WriterMutexLock cache_lock(cache_mu_);
  if (lock_exclusive_ != nullptr) lock_exclusive_->Increment();
  inner_.RegisterOptimization(wi, std::move(result), engine, choice,
                              start_ns);
}

void AsyncScr::ServeDegraded(const WorkloadInstance& wi,
                             EngineContext* engine, PlanChoice* choice,
                             int64_t start_ns) {
  {
    // The cached fallback only reads the cache (its usage bump is a
    // relaxed atomic), so it shares the lock with concurrent readers.
    ReaderMutexLock cache_lock(cache_mu_);
    if (lock_shared_ != nullptr) lock_shared_->Increment();
    if (inner_.TryServeDegraded(wi, engine, choice, start_ns)) return;
  }
  // Nothing cached to fall back on: retry the optimizer, backoff included,
  // with no lock held.
  auto result = engine->RetryOptimize(wi);
  if (result != nullptr) {
    // The optimizer recovered: a normal optimized decision after all
    // (guarantee intact), not a degraded one.
    choice->optimized = true;
    ManageInline(wi, std::move(result), engine, choice, start_ns);
    return;
  }
  ReaderMutexLock cache_lock(cache_mu_);
  if (lock_shared_ != nullptr) lock_shared_->Increment();
  inner_.RecordDegraded(wi, choice, start_ns);
}

void AsyncScr::Flush() {
  MutexLock lock(queue_mu_);
  while (!queue_.empty() || worker_busy_) {
    idle_.Wait(queue_mu_);
  }
}

int64_t AsyncScr::NumPlansCached() const {
  ReaderMutexLock cache_lock(cache_mu_);
  return inner_.NumPlansCached();
}

int64_t AsyncScr::PeakPlansCached() const {
  ReaderMutexLock cache_lock(cache_mu_);
  return inner_.PeakPlansCached();
}

int64_t AsyncScr::tasks_processed() const {
  MutexLock lock(queue_mu_);
  return tasks_processed_;
}

int64_t AsyncScr::MinLivePlanUsage(uint64_t pinned_signature) const {
  ReaderMutexLock cache_lock(cache_mu_);
  return inner_.MinLivePlanUsage(pinned_signature);
}

bool AsyncScr::EvictLfuPlan(int instance_id, uint64_t pinned_signature) {
  WriterMutexLock cache_lock(cache_mu_);
  if (lock_exclusive_ != nullptr) lock_exclusive_->Increment();
  return inner_.EvictLfuPlan(instance_id, pinned_signature);
}

int64_t AsyncScr::EstimatedMemoryBytes() const {
  ReaderMutexLock cache_lock(cache_mu_);
  return inner_.EstimatedMemoryBytes();
}

void AsyncScr::SetScopeLabel(const std::string& label) {
  WriterMutexLock cache_lock(cache_mu_);
  inner_.SetScopeLabel(label);
}

}  // namespace scrpqo
