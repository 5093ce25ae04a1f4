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
  if (Entry* present = FindBySignature(plan.signature)) {
    result.entry = present;
    result.subopt = 1.0;
    result.already_present = true;
    return result;
  }

  if (lambda_r >= 1.0 && !live_.empty()) {
    // Redundancy check: one batched Recost sweep over the live cached
    // plans, one program scan each. The sweep stops as soon as the running
    // best is already within lambda_r of optimal — the plan will be
    // rejected either way, and the entry records that plan's measured
    // sub-optimality, so the lambda guarantee is unaffected by not
    // scanning the tail.
    ScratchArena& arena = ScratchArena::Tls();
    ScratchArena::Scope scope(arena);
    ArenaVec<const CachedPlan*> live_plans(arena, live_.size());
    for (const std::unique_ptr<Entry>& e : live_) {
      live_plans.push_back(e->plan.get());
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
        result.entry = live_[min_pos].get();
        result.subopt = s_min;
        result.reused_existing = true;
        return result;
      }
    }
  }

  // Store the new plan.
  auto e = std::make_unique<Entry>();
  e->plan = std::make_shared<CachedPlan>(plan);
  e->id = next_id_++;
  result.entry = e.get();
  by_signature_[plan.signature] = e.get();
  live_.push_back(std::move(e));
  peak_ = std::max(peak_, NumLive());
  result.subopt = 1.0;
  return result;
}

void PlanStore::Drop(Entry* entry) {
  auto it = std::find_if(
      live_.begin(), live_.end(),
      [entry](const std::unique_ptr<Entry>& e) { return e.get() == entry; });
  SCRPQO_CHECK(it != live_.end(), "dropping a plan that is not live");
  by_signature_.erase(entry->plan->signature);
  live_.erase(it);
}

PlanStore::Entry* PlanStore::MinUsage(const Entry* exclude) const {
  Entry* best = nullptr;
  int64_t best_usage = std::numeric_limits<int64_t>::max();
  for (const std::unique_ptr<Entry>& e : live_) {
    if (e.get() == exclude) continue;
    // Strict: ties keep the oldest.
    const int64_t usage = e->total_usage.value();
    if (usage < best_usage) {
      best_usage = usage;
      best = e.get();
    }
  }
  return best;
}

PlanStore::Entry* PlanStore::FindBySignature(uint64_t signature) const {
  auto it = by_signature_.find(signature);
  return it != by_signature_.end() ? it->second : nullptr;
}

}  // namespace scrpqo
