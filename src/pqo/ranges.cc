#include "pqo/ranges.h"

#include <algorithm>
#include <limits>

namespace scrpqo {

bool Ranges::Box::Contains(const SVector& sv, double margin) const {
  for (size_t i = 0; i < sv.size(); ++i) {
    if (sv[i] < lo[i] - margin || sv[i] > hi[i] + margin) return false;
  }
  return true;
}

double Ranges::Box::Volume(double margin) const {
  double v = 1.0;
  for (size_t i = 0; i < lo.size(); ++i) {
    v *= (hi[i] - lo[i]) + 2.0 * margin;
  }
  return v;
}

void Ranges::Box::Extend(const SVector& sv) {
  for (size_t i = 0; i < sv.size(); ++i) {
    lo[i] = std::min(lo[i], sv[i]);
    hi[i] = std::max(hi[i], sv[i]);
  }
}

PlanChoice Ranges::OnInstance(const WorkloadInstance& wi,
                              EngineContext* engine) {
  PlanChoice choice;
  const SVector& sv = wi.svector;

  // Smallest containing rectangle wins (deterministic tie-break).
  int best = -1;
  double best_volume = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < boxes_.size(); ++i) {
    if (boxes_[i].Contains(sv, options_.margin)) {
      double vol = boxes_[i].Volume(options_.margin);
      if (vol < best_volume) {
        best_volume = vol;
        best = static_cast<int>(i);
      }
    }
  }
  if (best >= 0) {
    PlanStore::Entry* plan = boxes_[static_cast<size_t>(best)].plan;
    plan->total_usage.Add(1);
    choice.plan = plan->plan;
    return choice;
  }

  auto result = engine->Optimize(wi);
  choice.optimized = true;
  CachedPlan cached = MakeCachedPlan(*result);
  PlanStore::StoreResult stored = store_.StoreOrReuse(
      cached, sv, result->cost, options_.recost_redundancy_lambda_r, engine);
  // Extend this plan's rectangle (or create it).
  bool found = false;
  for (auto& box : boxes_) {
    if (box.plan == stored.entry) {
      box.Extend(sv);
      found = true;
      break;
    }
  }
  if (!found) {
    boxes_.push_back(Box{stored.entry, sv, sv});
  }
  choice.plan = stored.entry->plan;
  return choice;
}

}  // namespace scrpqo
