// SCR: the paper's technique (Selectivity check, Cost check, Redundancy
// check). getPlan implements Algorithm 1 with the GL-ordering heuristic for
// bounding Recost calls (Section 6.2); manageCache implements Algorithm 2
// including the lambda_r redundancy check and the LFU plan-budget eviction
// (Section 6.3.1). Optional extensions: dynamic per-cost lambda
// (Appendix D), BCG-violation detection (Appendix G) and the redundancy
// check for existing plans (Appendix F).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/atomics.h"
#include "common/effects.h"
#include "common/scratch_arena.h"
#include "pqo/plan_store.h"
#include "pqo/technique.h"

namespace scrpqo {

/// How getPlan orders cost-check candidates (Section 6.2: "instances with
/// large values of GL are less likely to satisfy the cost check", plus the
/// alternative heuristics the paper lists for improving average overheads).
enum class CostCheckOrder {
  /// Increasing G*L — the paper's primary heuristic.
  kAscendingGl,
  /// Decreasing selectivity-region area (a function of V and lambda).
  kDescendingRegionArea,
  /// Decreasing usage count U (most-reused instances first).
  kDescendingUsage,
  /// Instance-list insertion order (no heuristic; ablation baseline).
  kInsertionOrder,
};

struct ScrOptions {
  /// Sub-optimality bound lambda (>= 1).
  double lambda = 2.0;
  /// Redundancy-check threshold lambda_r; < 0 selects the paper's default
  /// sqrt(lambda) (Appendix E). Use exactly 1.0 to disable plan rejection
  /// ("store every new plan").
  double lambda_r = -1.0;
  /// Plan-cache budget k (0 = unlimited). Section 6.3.1.
  int plan_budget = 0;
  /// Maximum cost-check candidates per getPlan, taken in `cost_check_order`
  /// order (Section 6.2 heuristic). <= 0 disables the cap.
  int max_cost_check_candidates = 8;
  CostCheckOrder cost_check_order = CostCheckOrder::kAscendingGl;
  /// Ablation switch: disable the Recost-based cost check entirely
  /// (selectivity check + redundancy check only).
  bool enable_cost_check = true;
  /// Appendix D: when true, the per-entry bound becomes
  /// lambda(C) = lambda_min + (lambda_max - lambda_min) * exp(-C / c_ref),
  /// giving cheap instances a looser bound. c_ref adapts to the running
  /// mean optimal cost.
  bool dynamic_lambda = false;
  double lambda_min = 1.1;
  double lambda_max = 10.0;
  /// Appendix G: detect PCM/BCG violations during cost checks and stop
  /// using offending instances for inference.
  bool detect_violations = true;
};

class Scr : public PqoTechnique {
 public:
  explicit Scr(ScrOptions options);

  /// "SCR<lambda>[(k=<budget>)][(dyn)]", interned at construction (it is
  /// the technique stamp of every event this cache emits).
  std::string name() const override { return technique_.str(); }

  PlanChoice OnInstance(const WorkloadInstance& wi,
                        EngineContext* engine) override;

  /// Attaches the decision tracer / metrics registry. Every getPlan then
  /// emits one DecisionEvent (sel-check-hit, cost-check-hit, optimized or
  /// redundant-discard) plus one evicted event per budget eviction, and
  /// the decision counters/latency histograms are maintained.
  void SetObs(const ObsHooks& hooks) override;

  /// getPlan's cache-only half: runs the selectivity and cost checks and,
  /// on a hit, fills `choice` and returns true. No optimizer call is ever
  /// made. Exposed so AsyncScr can keep this on the critical path while
  /// deferring manageCache.
  ///
  /// Concurrency: safe to call from multiple threads simultaneously as
  /// long as no structural mutation (RegisterOptimization / OnInstance
  /// miss path / Restore) runs concurrently — AsyncScr enforces this with
  /// a shared/exclusive lock. Everything TryReuse writes (usage counters,
  /// violation flags, recost-call maxima) is a relaxed atomic. Scratch
  /// buffers come from the calling thread's ScratchArena, so once warmed
  /// the whole reuse attempt performs no heap allocation — the definition
  /// carries SCRPQO_HOT / SCRPQO_NOALLOC / SCRPQO_NONBLOCKING /
  /// SCRPQO_LOCK_BOUNDED() contracts proved by tools/analyze.
  ///
  /// `start_ns`, when given, receives the attempt's first stage-timer
  /// stamp (obs/span.h; -1 when no timer was armed), so a caller that goes
  /// on to optimize can time the whole decision without another clock
  /// read.
  [[nodiscard]] bool TryReuse(const WorkloadInstance& wi,
                              EngineContext* engine, PlanChoice* choice,
                              int64_t* start_ns = nullptr);

  /// manageCache (Algorithm 2) for a fresh optimization. Thread-compatible:
  /// a structural mutation, so callers serialize it (AsyncScr takes the
  /// exclusive lock). `choice`, when given, carries the failed reuse
  /// attempt's recost and candidate counts into the decision event and
  /// receives the served plan: the store's, which on a redundant discard
  /// is the already-cached plan. `start_ns` (TryReuse's first stamp; < 0:
  /// manageCache's own start) opens the event's wall time.
  void RegisterOptimization(const WorkloadInstance& wi,
                            std::shared_ptr<const OptimizationResult> result,
                            EngineContext* engine,
                            PlanChoice* choice = nullptr,
                            int64_t start_ns = -1);

  /// Degraded getPlan, after the optimizer returned null (failure or
  /// deadline overrun): serves the cheapest cached plan by recost, WITHOUT
  /// the lambda guarantee, and records it (RecordDegraded). False, with
  /// nothing emitted, when no cached plan recosts finite; OnInstance then
  /// retries the optimizer. Counts its recosts in `choice` either way and
  /// writes only relaxed counters, so AsyncScr runs it under the shared
  /// lock. `start_ns` (TryReuse's first stamp) opens the event's wall time.
  bool TryServeDegraded(const WorkloadInstance& wi, EngineContext* engine,
                        PlanChoice* choice, int64_t start_ns);

  /// Marks `choice` degraded and emits its kDegraded decision, matched to
  /// the served plan's store id label, or to -1 when every retry failed on
  /// a cache with nothing to serve. Read-only like TryServeDegraded.
  void RecordDegraded(const WorkloadInstance& wi, PlanChoice* choice,
                      int64_t start_ns, int plan_id = -1);

  int64_t NumPlansCached() const override { return store_.NumLive(); }
  int64_t PeakPlansCached() const override { return store_.Peak(); }

  /// Instance-list size (bookkeeping-overhead metric, Section 6.1).
  int64_t NumInstancesStored() const {
    return static_cast<int64_t>(instances_.size());
  }

  /// Maximum Recost calls any single getPlan invocation needed so far
  /// (Section 7.3's getPlan-overhead discussion).
  int max_recost_calls_per_get_plan() const {
    return max_recost_calls_per_get_plan_.value();
  }

  /// Violations detected via Appendix G.
  int64_t violations_detected() const {
    return violations_detected_.value();
  }

  /// Appendix F: drops plans that became redundant (every instance pointing
  /// at them is lambda-optimally served by another cached plan). Recost
  /// calls are charged to `engine`. Returns the number of plans dropped.
  int DropRedundantPlans(EngineContext* engine);

  // --- cross-template (global) budget support, used by PqoManager ---
  //
  // A fleet-level evictor compares LFU victims *across* caches, so these
  // expose the per-cache LFU frontier and a single-eviction entry point.
  // Pins travel as plan signatures because plan records are store-local; a
  // pinned signature of 0 means "no pin".

  /// Aggregate usage count of this cache's LFU eviction victim, skipping a
  /// live plan with `pinned_signature`; -1 when nothing is evictable.
  int64_t MinLivePlanUsage(uint64_t pinned_signature = 0) const;

  /// Evicts the least-used live plan (never one matching `pinned_signature`)
  /// and drops its instance entries, emitting a kEvicted decision event
  /// charged to `instance_id`. Returns false when nothing was evictable.
  /// Thread-compatible: callers serialize with structural mutation.
  bool EvictLfuPlan(int instance_id, uint64_t pinned_signature = 0);

  /// Estimated heap bytes held by the cache: live plan trees + compiled
  /// recost programs + instance-list 5-tuples (plan_memory.h estimators).
  int64_t EstimatedMemoryBytes() const;

  /// Tags every emitted DecisionEvent with `label` (template key when this
  /// cache serves one template of a PqoManager). Set before traffic;
  /// interns the label.
  void SetScopeLabel(const std::string& label) {
    scope_label_ = NameId::Intern(label);
  }

  // --- cache persistence (see pqo/cache_persistence.h) ---

  /// One instance-list 5-tuple in snapshot form; `plan_ordinal` indexes the
  /// vector returned by SnapshotPlans(). SnapshotInstances() lists entries
  /// in table order, so an entry's index there is the `matched_entry` a
  /// decision taken now would report for it.
  struct SnapshotEntry {
    SVector v;
    int plan_ordinal = -1;
    double opt_cost = 0.0;
    double subopt = 1.0;
    int64_t usage = 0;
    bool cost_check_disabled = false;
  };

  /// Live cached plans, in storage order.
  std::vector<PlanPtr> SnapshotPlans() const;
  /// Live instance entries referencing SnapshotPlans() ordinals.
  std::vector<SnapshotEntry> SnapshotInstances() const;
  /// Rebuilds the cache from a snapshot. The cache must be empty.
  Status Restore(const std::vector<PlanPtr>& plans,
                 const std::vector<SnapshotEntry>& entries);

 private:
  /// The paper's instance-list 5-tuple <V, PP, C, S, U> (Section 6.1).
  /// `usage` and `cost_check_disabled` are written from the concurrent
  /// getPlan read path, hence relaxed atomics; the remaining fields only
  /// change under the exclusive lock.
  struct InstanceEntry {
    SVector v;  // selectivity vector of the optimized instance
    PlanStore::Entry* plan = nullptr;  // PP: the plan's record in the store
    double opt_cost = 0.0;  // C: optimal cost at this instance
    double subopt = 1.0;    // S: sub-optimality of plan at this instance
    RelaxedCounter<int64_t> usage = 0;  // U
    /// Appendix G: excluded from future cost-check inference.
    RelaxedCounter<bool> cost_check_disabled = false;
  };

  /// A cost-check candidate: a position in `instances_` whose entry failed
  /// the selectivity check and is not excluded from the cost check. `key`
  /// is what OrderCandidates orders by: the entry's L1 log-distance for
  /// kAscendingGl, the order's own key otherwise. `g` and `l` are the
  /// entry's exact G and L against the query, computed only where they are
  /// needed (a near-tie run in OrderCandidates, or when the recost sweep
  /// reaches the candidate); `l` is 0 until then, as ComputeGlFast never
  /// returns an L below 1.
  struct Candidate {
    double key;
    size_t entry;
    double g;
    double l;
  };

  /// Effective lambda for an entry (Appendix D dynamic mode).
  double LambdaFor(const InstanceEntry& e) const;

  /// Upper bound on LambdaFor over every entry: lambda, or under dynamic
  /// lambda its value at C = 0, computed the same way so rounding cannot
  /// put an entry above it. The flat table's per-entry L1 bound is
  /// log(envelope / S).
  double LambdaEnvelope() const;

  /// Appends an entry and its log row and L1 bound to the instance table;
  /// drops an entry whose dimension differs from the table's (one cache
  /// serves one template).
  void AppendEntry(InstanceEntry entry);

  /// Collects a selectivity-check miss's cost-check candidates, in table
  /// order, from the distances `dist[0, n)` the selectivity pass recorded,
  /// reading each entry's cost_check_disabled once (AsyncScr readers set it
  /// concurrently). For kAscendingGl under a cap k with more than k enabled
  /// entries it keeps only the shortlist: the entries within 2 * kLogSlack
  /// of the k-th smallest enabled distance, a superset of the k smallest
  /// G*L and their ties. Otherwise it keeps every enabled entry. Overwrites
  /// a disabled entry's distance with NaN; the shortlist's heap comes from
  /// `arena`.
  void CollectCandidates(double* dist, size_t n, ScratchArena& arena,
                         ArenaVec<Candidate>* candidates) const;

  /// Orders `candidates` for the cost check by `cost_check_order` and keeps
  /// the first max_cost_check_candidates, ties by table position. For
  /// ascending G*L the keys are distances, each within kLogSlack of
  /// log(G*L): candidates sort by (distance, position), and only a run of
  /// neighbours within 2 * kLogSlack of each other gets its exact G and L
  /// and re-sorts by (G*L, position). That is the exact (G*L, position)
  /// order, because distances farther apart order their G*L the same way.
  /// Any other candidate's G and L wait for the recost sweep (FillGl).
  void OrderCandidates(ArenaVec<Candidate>* candidates,
                       const SVector& sv) const;

  /// Fills `c`'s exact G and L against `sv` (ComputeGlFast).
  void FillGl(Candidate& c, const SVector& sv) const;

  /// Relative area of the entry's selectivity-based inference region
  /// (Section 5.3), used by CostCheckOrder::kDescendingRegionArea.
  double RegionArea(const InstanceEntry& e) const;

  /// Closes a reuse attempt: records scr.get_plan_micros from the
  /// attempt's first to last stage-timer stamp (no-op when unarmed).
  void RecordAttemptTime(int64_t start_ns, int64_t end_ns) const;


  /// Enforces the per-cache plan budget by LFU eviction. `pinned` is the
  /// plan just stored/chosen for the in-flight instance: it must never be
  /// the victim (a fresh plan has usage 0 and would otherwise be evicted
  /// immediately, leaving the new instance entry dangling).
  void EvictForBudget(int instance_id, const PlanStore::Entry* pinned);

  /// Drops one plan (emitting kEvicted) and the instance entries that point
  /// at it, which keeps the lambda guarantee intact (Section 6.3.1).
  void DropPlanAndEntries(PlanStore::Entry* victim, int instance_id);

  /// Bumps the matching decision counter and, with a tracer attached,
  /// stamps the instance, names, wall time (`end_ns - start_ns`, from
  /// stamps the caller's stage timers already took; 0 when either is -1)
  /// and the ambient stage breakdown into `event` in place, then records
  /// it: one copy, into the tracer's ring.
  void EmitEvent(DecisionEvent& event, int instance_id, int64_t start_ns,
                 int64_t end_ns);

  ScrOptions options_;
  /// Stamped into DecisionEvent::technique.
  NameId technique_;
  /// Stamped into DecisionEvent::template_key (empty = unscoped).
  NameId scope_label_;
  double lambda_r_effective_;
  PlanStore store_;
  /// The instance list, in insertion order. Evictions erase entries, so a
  /// position is stable only until the next eviction.
  std::vector<InstanceEntry> instances_;
  /// The flat instance table beside `instances_`, one row per entry: the
  /// clamped log-selectivities of its V (row-major, `dims_` per row) and
  /// its L1 bound log(LambdaEnvelope() / S). log(G*L) is the L1 distance
  /// between two rows (Section 5.3), so TryReuse's selectivity check is
  /// one contiguous scan against the bounds.
  std::vector<double> log_rows_;
  std::vector<double> log_bounds_;
  /// Row width: the dimension of the entry that went into an empty table.
  size_t dims_ = 0;
  RelaxedCounter<int> max_recost_calls_per_get_plan_ = 0;
  RelaxedCounter<int64_t> violations_detected_ = 0;
  // Running mean of optimal costs (reference scale for dynamic lambda).
  double cost_sum_ = 0.0;
  int64_t cost_count_ = 0;

  // --- observability (null = disabled) ---
  ObsHooks obs_;
  Counter* decision_counters_[9] = {};  // indexed by DecisionOutcome
  LogHistogram* get_plan_micros_ = nullptr;
  LogHistogram* manage_cache_micros_ = nullptr;
  LogHistogram* cost_check_candidates_ = nullptr;
  /// "stage.sel_check_micros": the selectivity-check scan of every reuse
  /// attempt.
  LogHistogram* sel_check_micros_ = nullptr;
};

}  // namespace scrpqo
