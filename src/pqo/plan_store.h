// Shared plan-cache bookkeeping: the distinct cached plans keyed by
// structural signature, with peak-size tracking and an optional Recost-based
// redundancy check on insert (used natively by SCR, and by the
// Recost-augmented baseline variants of the paper's Appendix H.6).
//
// The store holds one heap record (Entry) per live plan, in storage order.
// Techniques keep `Entry*` handles where the paper's instance 5-tuple keeps
// its plan pointer PP (Section 6.1): a hit bumps usage and copies the plan
// through its handle, with no lookup. A handle stays valid until Drop frees
// its record, so a dropped plan leaves nothing behind in the store.
//
// Each record carries an id, assigned 0, 1, 2, ... in storage order and
// never reused. It only labels the plan in decision events; nothing looks a
// plan up by it.
//
// Read-path concurrency: handle reads and usage bumps run under the owning
// technique's shared (read) lock, so usage counters are relaxed atomics; all
// structural mutation (StoreOrReuse/Drop) happens under the exclusive lock.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/atomics.h"
#include "optimizer/recost.h"
#include "pqo/engine_context.h"

namespace scrpqo {

class PlanStore {
 public:
  /// One live plan's record.
  struct Entry {
    std::shared_ptr<const CachedPlan> plan;
    /// Aggregate usage across instance entries pointing at this plan (for
    /// LFU eviction under a plan budget). Bumped from the concurrent
    /// getPlan read path.
    RelaxedCounter<int64_t> total_usage = 0;
    /// Storage-order label, printed as the matched entry of plan-level
    /// decision events.
    int id = -1;
  };

  /// Outcome of StoreOrReuse.
  struct StoreResult {
    /// The stored or reused plan's record.
    Entry* entry = nullptr;
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

  /// The live records, oldest first. A view of the store's list: it
  /// allocates nothing and is invalidated by the next StoreOrReuse or Drop,
  /// so a caller that drops plans while iterating must iterate a copy.
  std::span<const std::unique_ptr<Entry>> live() const { return live_; }

  /// Frees a live record (budget eviction), releasing the store's
  /// reference to its plan, so the CachedPlan is freed once no PlanChoice
  /// holds it. Every handle to `entry` dangles afterwards: the caller
  /// removes the instance entries that point at it first.
  void Drop(Entry* entry);

  /// The live record with the minimum total usage (LFU victim), null if
  /// none; ties go to the oldest. `exclude` removes one record from
  /// consideration — the budget-eviction caller pins the plan just chosen
  /// for the in-flight instance so the freshest plan can never be its own
  /// victim.
  Entry* MinUsage(const Entry* exclude = nullptr) const;

  /// The live record with the given structural signature, null if none.
  /// Cross-template eviction pins travel as signatures and resolve here.
  Entry* FindBySignature(uint64_t signature) const;

  int64_t NumLive() const { return static_cast<int64_t>(live_.size()); }
  int64_t Peak() const { return peak_; }

 private:
  /// The live records in storage order (ascending id).
  std::vector<std::unique_ptr<Entry>> live_;
  std::map<uint64_t, Entry*> by_signature_;
  int next_id_ = 0;
  int64_t peak_ = 0;
};

}  // namespace scrpqo
