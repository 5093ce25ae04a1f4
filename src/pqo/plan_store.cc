#include "pqo/plan_store.h"

#include <algorithm>
#include <limits>
#include <span>

#include "common/scratch_arena.h"
#include "common/status.h"

namespace scrpqo {

PlanStore::StoreResult PlanStore::StoreOrReuse(const CachedPlan& plan,
                                               const SVector& sv,
                                               double opt_cost,
                                               double lambda_r,
                                               EngineContext* engine) {
  StoreResult result;
  auto it = by_signature_.find(plan.signature);
  if (it != by_signature_.end() &&
      entries_[static_cast<size_t>(it->second)].live) {
    result.plan_id = it->second;
    result.subopt = 1.0;
    result.already_present = true;
    return result;
  }

  if (lambda_r >= 1.0 && !live_ids_.empty()) {
    // Redundancy check: one batched Recost sweep over the live cached
    // plans, one program scan each. The sweep stops as soon as the running
    // best is already within lambda_r of optimal — the plan will be
    // rejected either way, and the entry records that plan's measured
    // sub-optimality, so the lambda guarantee is unaffected by not
    // scanning the tail.
    ScratchArena& arena = ScratchArena::Tls();
    ScratchArena::Scope scope(arena);
    ArenaVec<const CachedPlan*> live_plans(arena, live_ids_.size());
    for (int id : live_ids_) {
      live_plans.push_back(entries_[static_cast<size_t>(id)].plan.get());
    }
    ArenaVec<double> costs(arena, live_plans.size());
    costs.resize(live_plans.size());
    double min_cost = std::numeric_limits<double>::infinity();
    size_t min_pos = live_plans.size();
    double early_exit_below =
        opt_cost > 0.0 ? lambda_r * opt_cost
                       : -std::numeric_limits<double>::infinity();
    auto sweep_visitor = [&](size_t i, double c) {
      if (c < min_cost) {
        min_cost = c;
        min_pos = i;
      }
      return min_cost > early_exit_below;
    };
    engine->RecostMany(
        std::span<const CachedPlan* const>(live_plans.data(),
                                           live_plans.size()),
        sv, std::span<double>(costs.data(), costs.size()), sweep_visitor);
    if (min_pos < live_plans.size() && opt_cost > 0.0) {
      double s_min = min_cost / opt_cost;
      if (s_min <= lambda_r) {
        result.plan_id = live_ids_[min_pos];
        result.subopt = s_min;
        result.reused_existing = true;
        return result;
      }
    }
  }

  // Store the new plan.
  Entry e;
  e.plan = std::make_shared<CachedPlan>(plan);
  e.total_usage = 0;
  e.live = true;
  entries_.push_back(std::move(e));
  int id = static_cast<int>(entries_.size()) - 1;
  by_signature_[plan.signature] = id;
  live_ids_.push_back(id);
  peak_ = std::max(peak_, NumLive());
  result.plan_id = id;
  result.subopt = 1.0;
  return result;
}

void PlanStore::Drop(int plan_id) {
  Entry& e = entry(plan_id);
  SCRPQO_CHECK(e.live, "dropping a plan that is not live");
  e.live = false;
  live_ids_.erase(
      std::lower_bound(live_ids_.begin(), live_ids_.end(), plan_id));
  by_signature_.erase(e.plan->signature);
  e.plan.reset();
}

int PlanStore::MinUsagePlanId(int exclude_plan_id) const {
  int best = -1;
  int64_t best_usage = std::numeric_limits<int64_t>::max();
  for (int id : live_ids_) {
    if (id == exclude_plan_id) continue;
    // Strict: ties keep the lowest id.
    const int64_t usage =
        entries_[static_cast<size_t>(id)].total_usage.value();
    if (usage < best_usage) {
      best_usage = usage;
      best = id;
    }
  }
  return best;
}

int PlanStore::FindLiveBySignature(uint64_t signature) const {
  auto it = by_signature_.find(signature);
  if (it == by_signature_.end()) return -1;
  return entries_[static_cast<size_t>(it->second)].live ? it->second : -1;
}

}  // namespace scrpqo
