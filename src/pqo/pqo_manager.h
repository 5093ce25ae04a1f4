// PqoManager: the process-level entry point a database engine would embed.
//
// The paper's plan cache is per query template (Section 2 fixes one
// template Q). A real engine serves many templates concurrently, chooses a
// per-template lambda from observed optimize/execution cost ratios
// (Section 6.2 "Choosing lambda"), and evicts plans under a shared,
// process-wide budget. PqoManager provides that serving layer:
//
//  - template_key hashes into one of N shards (N ~ hardware_concurrency,
//    overridable), each shard owning a mutex and its template -> cache map.
//    The shard lock guards only map lookup/insert/erase — never an
//    optimizer call or a cache operation — so OnInstance from M threads
//    over T templates never serializes globally.
//  - every template's cache is an AsyncScr. getPlan runs under the cache's
//    shared lock with no manager lock held, so concurrent decisions on one
//    template proceed in parallel; a miss optimizes with no lock held. Its
//    manageCache runs deferred on the cache's worker thread (`use_async`)
//    or inline on the caller's thread under the cache's exclusive lock.
//    Either way concurrent misses on one template may each optimize before
//    either registers its plan. The template mutex guards only the warm-up
//    fields and the cache pointer.
//  - a process-wide budget (`global_plan_budget` plans and/or
//    `global_memory_bytes` estimated from CachedPlan footprints) is
//    enforced by cross-template LFU eviction reusing the PlanStore usage
//    counters; each eviction emits a kEvicted decision event through the
//    attached tracer and bumps "pqo_manager.global_evictions".
//  - template states are held by shared_ptr, so InvalidateTemplate can
//    drop a template while requests are in flight on it: the erased cache
//    dies when its last in-flight call returns.
//
// Metrics (when SetObs attaches a registry): "pqo_manager.templates"
// (templates ever created), "pqo_manager.invalidations",
// "pqo_manager.global_evictions", "pqo_manager.warmup_fallbacks".
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "pqo/async_scr.h"

namespace scrpqo {

struct PqoManagerOptions {
  /// Default bound when warm-up based selection is disabled.
  double default_lambda = 2.0;
  /// Section 6.2: optimize the first `warmup_instances` of each template
  /// with Optimize-Always and pick lambda from the ratio of optimization
  /// overhead to execution cost (proxied here by the optimizer-estimated
  /// cost of the instances).
  int warmup_instances = 0;
  /// Lambda range used by warm-up selection.
  double lambda_tight = 1.1;
  double lambda_loose = 2.0;
  /// Per-template plan budget (0 = unlimited).
  int plan_budget = 0;
  /// Where each template cache's manageCache runs after a miss. true:
  /// deferred to the cache's worker thread, and the miss serves its fresh
  /// plan at once. false: inline on the missing caller's thread under the
  /// cache's exclusive lock, with no worker thread; the store's plan is
  /// served, and with one client every decision, event and count repeats
  /// exactly as a standalone Scr's. getPlan shares the cache's lock in
  /// both modes.
  bool use_async = false;
  /// Shard count for the template map; 0 = hardware_concurrency (min 1).
  int num_shards = 0;
  /// Process-wide cap on live plans across all templates (0 = unlimited).
  /// Enforced by cross-template LFU eviction after optimizing instances,
  /// and on FlushAll(); with `use_async`, deferred manageCache work can
  /// transiently overshoot until the next enforcement point.
  int64_t global_plan_budget = 0;
  /// Process-wide cap on estimated cache heap bytes (0 = unlimited).
  int64_t global_memory_bytes = 0;
};

class PqoManager {
 public:
  explicit PqoManager(PqoManagerOptions options);

  /// Attaches decision tracing / metrics to the manager and to every
  /// current and future template cache. Attach before serving traffic; the
  /// sinks must outlive the manager.
  void SetObs(const ObsHooks& hooks) EXCLUDES(obs_mu_);

  /// Routes one instance of `template_key` (usually the normalized SQL
  /// text or QueryTemplate::name) through that template's cache.
  /// Thread-safe: callers from any number of threads may mix template
  /// keys freely.
  PlanChoice OnInstance(const std::string& template_key,
                        const WorkloadInstance& wi, EngineContext* engine)
      EXCLUDES(evict_mu_, obs_mu_);

  /// Number of templates currently tracked.
  int64_t NumTemplates() const;

  /// Plans cached across all templates.
  int64_t TotalPlansCached() const;

  /// Estimated cache heap bytes across all templates (plan trees, compiled
  /// recost programs, instance lists).
  int64_t TotalMemoryBytes() const;

  /// Drops one template's cache entirely (e.g. on schema change). Safe
  /// concurrently with OnInstance on the same key: in-flight calls finish
  /// on the detached cache.
  void InvalidateTemplate(const std::string& template_key);

  /// The effective sub-optimality bound in force for `template_key`:
  ///  - 1.0 while the template is still in warm-up (Optimize-Always serves
  ///    every instance its optimal plan, so the bound is exactly 1);
  ///  - the warm-up-selected (or default) lambda once serving from cache;
  ///  - 0.0 only for templates the manager has never seen (sentinel —
  ///    never a valid bound, since lambda >= 1 by construction).
  /// Downstream code can therefore treat any non-zero return as a sound
  /// bound on the sub-optimality of plans served so far.
  double LambdaFor(const std::string& template_key) const;

  /// Blocks until every template's deferred manageCache work is applied,
  /// then enforces the global budget once more. Call before asserting on
  /// cache sizes or auditing traces.
  void FlushAll() EXCLUDES(evict_mu_);

  /// Operator-facing status document for the admin server's /statusz:
  /// {"templates": [{key, lambda, warming_up, plans, memory_bytes},
  /// ...], "totals": {templates, plans, memory_bytes,
  /// global_plan_budget, global_memory_bytes, global_evictions,
  /// warmup_fallbacks, trace_ring_drops}}. Thread-safe.
  std::string StatuszJson() const EXCLUDES(obs_mu_);

  /// Cross-template evictions performed by the global budget enforcer.
  int64_t global_evictions() const {
    return global_evictions_.load(std::memory_order_relaxed);
  }

  /// Warm-up lambda selections that fell back to default_lambda because no
  /// instance cost was observed (see FinishWarmupLocked).
  int64_t warmup_fallbacks() const {
    return warmup_fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  /// One template's serving state. `mu` guards the warm-up fields and the
  /// cache pointer; the cache handles its own locking, so post-warm-up
  /// traffic on it takes `mu` only to read the pointer.
  struct TemplateState {
    explicit TemplateState(std::string k)
        : key(std::move(k)), key_name(NameId::Intern(key)) {}

    /// Immutable identity: set before the state is published into the
    /// shard map, so lock-free readers (StatuszJson) can print it without
    /// taking mu.
    const std::string key;
    /// `key` interned once at creation: the template stamp of the
    /// manager's own decision events.
    const NameId key_name;

    mutable Mutex mu;
    /// Instances routed during warm-up. A failed optimize consumes an
    /// attempt without bumping warmup_seen, so completion is attempt-based
    /// (otherwise a template whose optimizes all fail never leaves warm-up,
    /// and one whose attempts succeed partially would divide by zero).
    int warmup_attempts GUARDED_BY(mu) = 0;
    /// Warm-up optimizer calls currently running outside mu (the optimize
    /// itself is never performed under the lock — see OnInstance). The
    /// template leaves warm-up only once attempts reached the target AND
    /// every in-flight call has reported back, so no warm-up cost sample
    /// is dropped from the lambda decision.
    int warmup_inflight GUARDED_BY(mu) = 0;
    int warmup_seen GUARDED_BY(mu) = 0;
    double warmup_cost_sum GUARDED_BY(mu) = 0.0;
    double lambda GUARDED_BY(mu) = 0.0;
    /// Null until warm-up is done, then set once. Internally synchronized:
    /// the pointer is guarded, the pointee is deliberately NOT (callers
    /// read the raw pointer under mu, then use the cache with mu released
    /// while their StatePtr keeps it alive).
    std::unique_ptr<AsyncScr> cache GUARDED_BY(mu);
  };
  using StatePtr = std::shared_ptr<TemplateState>;

  struct Shard {
    mutable Mutex mu;
    std::map<std::string, StatePtr> templates GUARDED_BY(mu);
  };

  /// A warmed template's cache; `state` keeps it alive.
  struct CacheRef {
    StatePtr state;
    AsyncScr* cache;
  };

  Shard& ShardFor(const std::string& key) const;
  StatePtr GetOrCreate(const std::string& key);
  /// Snapshot of every live template state (one shard locked at a time).
  std::vector<StatePtr> AllStates() const;
  /// Every warmed template's cache. Each pointer is read under its
  /// template's mu; callers use the caches with no manager lock held.
  std::vector<CacheRef> AllCaches() const;

  /// Picks lambda from the warm-up observations and builds the cache.
  void FinishWarmupLocked(TemplateState* st) REQUIRES(st->mu);

  /// One warm-up decision (Optimize-Always, retried on failure) whose
  /// attempt OnInstance has counted; records its cost sample and finishes
  /// warm-up once every attempt has reported.
  PlanChoice WarmUp(TemplateState* state, const WorkloadInstance& wi,
                    EngineContext* engine) EXCLUDES(state->mu, obs_mu_);

  /// Enforces global_plan_budget / global_memory_bytes by evicting the
  /// globally least-used plan until within budget. `current` (may be null)
  /// is the template that served the in-flight instance; within it the
  /// plan with `pinned_signature` is never evicted.
  void EnforceGlobalBudget(TemplateState* current, uint64_t pinned_signature,
                           int instance_id) EXCLUDES(evict_mu_);

  /// Immutable after construction; read lock-free everywhere.
  const PqoManagerOptions options_;
  /// The shard vector itself is immutable after construction (each Shard
  /// carries its own mutex for its contents).
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Serializes global-budget sweeps so concurrent optimizing threads do
  /// not race each other into over-eviction. Ordering: evict_mu_ is taken
  /// before any shard lock or TemplateState mutex (the sweep walks every
  /// shard), never the other way around. The shard/state edges of that
  /// order cross class boundaries and are documented in DESIGN.md §4g;
  /// the evict_mu_ → obs_mu_ edge is expressible here and checked by
  /// -Wthread-safety-beta.
  Mutex evict_mu_ ACQUIRED_BEFORE(obs_mu_);

  std::atomic<int64_t> global_evictions_{0};
  std::atomic<int64_t> warmup_fallbacks_{0};

  // --- observability (null = disabled) ---
  // The hooks struct is guarded by obs_mu_ (copied when creating caches);
  // the cached sink pointers are atomics so hot-path reads stay lock-free
  // even if SetObs is re-attached between traffic windows. obs_mu_ is a
  // leaf lock: nothing else is ever acquired while it is held
  // (FinishWarmupLocked takes it *under* a TemplateState mutex, so the
  // documented order is st->mu before obs_mu_).
  mutable Mutex obs_mu_;
  ObsHooks obs_ GUARDED_BY(obs_mu_);
  /// Technique stamps of the manager's own (warm-up) events, interned once.
  const NameId warmup_fallback_name_;
  const NameId warmup_failed_name_;
  /// True when a tracer is attached, so OnInstance knows whether to open a
  /// getPlan span without taking obs_mu_ on the hot path.
  std::atomic<bool> span_enabled_{false};
  std::atomic<Counter*> templates_created_{nullptr};
  std::atomic<Counter*> invalidations_{nullptr};
  std::atomic<Counter*> global_evictions_counter_{nullptr};
  std::atomic<Counter*> warmup_fallbacks_counter_{nullptr};
  /// "pqo.degraded_decisions": manager-level degraded servings (warm-up
  /// optimize retries exhausted). Techniques bump the same counter for
  /// their own degraded paths.
  std::atomic<Counter*> degraded_counter_{nullptr};
};

}  // namespace scrpqo
