#include "pqo/ellipse.h"

#include <algorithm>

#include "common/math_util.h"

namespace scrpqo {

PlanChoice Ellipse::OnInstance(const WorkloadInstance& wi,
                               EngineContext* engine) {
  PlanChoice choice;
  const SVector& sv = wi.svector;

  for (const PlanPoints& group : groups_) {
    const std::vector<SVector>& points = group.points;
    for (size_t i = 0; i < points.size(); ++i) {
      for (size_t j = i + 1; j < points.size(); ++j) {
        double focal = EuclideanDistance(points[i], points[j]);
        if (focal <= 0.0) continue;
        double spread = EuclideanDistance(sv, points[i]) +
                        EuclideanDistance(sv, points[j]);
        if (spread <= 0.0 || focal / spread >= options_.delta) {
          group.plan->total_usage.Add(1);
          choice.plan = group.plan->plan;
          return choice;
        }
      }
    }
  }

  auto result = engine->Optimize(wi);
  choice.optimized = true;
  CachedPlan cached = MakeCachedPlan(*result);
  PlanStore::StoreResult stored = store_.StoreOrReuse(
      cached, sv, result->cost, options_.recost_redundancy_lambda_r, engine);
  auto group = std::find_if(
      groups_.begin(), groups_.end(),
      [&](const PlanPoints& g) { return g.plan == stored.entry; });
  if (group == groups_.end()) {
    group = groups_.insert(groups_.end(), PlanPoints{stored.entry, {}});
  }
  group->points.push_back(sv);
  choice.plan = stored.entry->plan;
  return choice;
}

}  // namespace scrpqo
