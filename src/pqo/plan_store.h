// Shared plan-cache bookkeeping: a list of distinct plans keyed by
// structural signature, with peak-size tracking and an optional Recost-based
// redundancy check on insert (used natively by SCR, and by the
// Recost-augmented baseline variants of the paper's Appendix H.6).
//
// Plan ids are positions in one append-only entry array: they stay stable
// and are never reused, and Drop only marks an entry dead. Beside it the
// store keeps the ascending list of live ids, so every walk over the live
// plans (the redundancy sweep, the LFU victim search, LivePlanIds) costs
// O(live plans), not O(plans ever stored).
//
// Read-path concurrency: entry() lookups and AddUsage() run under the
// owning technique's shared (read) lock, so usage counters are relaxed
// atomics; all structural mutation (StoreOrReuse/Drop) happens under the
// exclusive lock.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/atomics.h"
#include "common/status.h"
#include "optimizer/recost.h"
#include "pqo/engine_context.h"

namespace scrpqo {

class PlanStore {
 public:
  struct Entry {
    /// Null once the entry is dead: Drop releases the store's reference.
    std::shared_ptr<const CachedPlan> plan;
    /// Aggregate usage across instance entries pointing at this plan (for
    /// LFU eviction under a plan budget). Bumped from the concurrent
    /// getPlan read path.
    RelaxedCounter<int64_t> total_usage = 0;
    bool live = true;
  };

  /// Outcome of StoreOrReuse.
  struct StoreResult {
    int plan_id = -1;
    /// Sub-optimality of the stored/reused plan at the optimized instance
    /// (1.0 when the new plan itself was stored or already present).
    double subopt = 1.0;
    /// True when the redundancy check discarded the new plan in favor of an
    /// existing one.
    bool reused_existing = false;
    /// True when the new plan's signature was already present.
    bool already_present = false;
  };

  /// Registers the optimal plan found for an instance with optimal cost
  /// `opt_cost` at selectivities `sv`. When `lambda_r >= 1` and the plan is
  /// new, runs the redundancy check as one batched Recost sweep over the
  /// live cached plans (charged to `engine`), early-exiting once the
  /// running best is already within `lambda_r` of optimal, and discards the
  /// new plan in favor of that best cached one (paper Section 6.3).
  StoreResult StoreOrReuse(const CachedPlan& plan, const SVector& sv,
                           double opt_cost, double lambda_r,
                           EngineContext* engine);

  /// Bounds-checked entry access. Dead entries remain readable (callers
  /// filter on `.live`) but hold a null `plan`; only ids never handed out
  /// by StoreOrReuse abort.
  const Entry& entry(int plan_id) const {
    CheckId(plan_id);
    return entries_[static_cast<size_t>(plan_id)];
  }
  Entry& entry(int plan_id) {
    CheckId(plan_id);
    return entries_[static_cast<size_t>(plan_id)];
  }

  /// Thread-safe under the shared (read) lock.
  void AddUsage(int plan_id, int64_t delta) {
    CheckId(plan_id);
    entries_[static_cast<size_t>(plan_id)].total_usage.Add(delta);
  }

  /// Live plan ids, ascending. A view of the store's list: it allocates
  /// nothing and is invalidated by the next StoreOrReuse or Drop, so a
  /// caller that drops plans while iterating must iterate a copy.
  std::span<const int> LivePlanIds() const { return live_ids_; }

  /// Marks a plan dead (budget eviction), removes it from the live list
  /// and releases the store's reference to it, so the CachedPlan is freed
  /// once no PlanChoice holds it. The caller is responsible for removing
  /// instance entries that point at it.
  void Drop(int plan_id);

  /// Live plan with the minimum total usage (LFU victim), -1 if none; ties
  /// go to the lowest id. `exclude_plan_id` (>= 0) removes one plan from
  /// consideration — the budget-eviction caller pins the plan just chosen
  /// for the in-flight instance so the freshest plan can never be its own
  /// victim.
  int MinUsagePlanId(int exclude_plan_id = -1) const;

  /// Live plan id with the given structural signature, -1 if absent or
  /// dead. Used to translate cross-template eviction pins (which travel as
  /// signatures, since plan ids are store-local) back into ids.
  int FindLiveBySignature(uint64_t signature) const;

  int64_t NumLive() const { return static_cast<int64_t>(live_ids_.size()); }
  int64_t Peak() const { return peak_; }

 private:
  void CheckId(int plan_id) const {
    SCRPQO_CHECK(plan_id >= 0 &&
                     plan_id < static_cast<int>(entries_.size()),
                 "plan id out of range for plan store");
  }

  /// Every plan ever stored, indexed by id; dead entries stay in place.
  std::vector<Entry> entries_;
  /// Ids of the live entries, ascending (a new id is always the largest).
  std::vector<int> live_ids_;
  std::map<uint64_t, int> by_signature_;
  int64_t peak_ = 0;
};

}  // namespace scrpqo
