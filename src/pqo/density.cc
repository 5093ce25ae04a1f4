#include "pqo/density.h"

#include <map>

#include "common/math_util.h"

namespace scrpqo {

PlanChoice Density::OnInstance(const WorkloadInstance& wi,
                               EngineContext* engine) {
  PlanChoice choice;
  const SVector& sv = wi.svector;

  // Vote among stored points inside the neighborhood.
  std::map<const PlanStore::Entry*, int> votes;
  int total = 0;
  for (const Point& p : points_) {
    if (EuclideanDistance(sv, p.sv) <= options_.radius) {
      ++votes[p.plan];
      ++total;
    }
  }
  if (total >= options_.min_neighbors) {
    // The winner is picked in storage order, so a tie goes to the oldest
    // plan.
    PlanStore::Entry* best_plan = nullptr;
    int best_votes = 0;
    for (const std::unique_ptr<PlanStore::Entry>& e : store_.live()) {
      auto it = votes.find(e.get());
      if (it != votes.end() && it->second > best_votes) {
        best_votes = it->second;
        best_plan = e.get();
      }
    }
    if (best_plan != nullptr &&
        static_cast<double>(best_votes) / static_cast<double>(total) >=
            options_.confidence) {
      best_plan->total_usage.Add(1);
      choice.plan = best_plan->plan;
      return choice;
    }
  }

  auto result = engine->Optimize(wi);
  choice.optimized = true;
  CachedPlan cached = MakeCachedPlan(*result);
  PlanStore::StoreResult stored = store_.StoreOrReuse(
      cached, sv, result->cost, options_.recost_redundancy_lambda_r, engine);
  points_.push_back(Point{sv, stored.entry});
  choice.plan = stored.entry->plan;
  return choice;
}

}  // namespace scrpqo
