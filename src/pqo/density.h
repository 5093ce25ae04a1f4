// Density (Aluc, DeHaan, Bowman, ICDE 2012 — "Parametric Plan Caching Using
// Density-Based Clustering"): reuse a plan when enough previously optimized
// instances in a circular selectivity neighborhood share the same optimal
// plan (paper Table 1). Parameters from the paper's evaluation: radius 0.1,
// confidence threshold 0.5.
#pragma once

#include <memory>
#include <sstream>
#include <vector>

#include "pqo/plan_store.h"
#include "pqo/technique.h"

namespace scrpqo {

struct DensityOptions {
  double radius = 0.1;
  double confidence = 0.5;
  /// Minimum neighbors required before inferring.
  int min_neighbors = 2;
  /// Appendix H.6 variant: Recost redundancy check on store when >= 1.
  double recost_redundancy_lambda_r = -1.0;
};

class Density : public PqoTechnique {
 public:
  explicit Density(DensityOptions options) : options_(options) {}

  std::string name() const override {
    std::ostringstream os;
    os << "Density(r=" << options_.radius << ",c=" << options_.confidence
       << ")";
    if (options_.recost_redundancy_lambda_r >= 1.0) os << "+R";
    return os.str();
  }

  PlanChoice OnInstance(const WorkloadInstance& wi,
                        EngineContext* engine) override;

  int64_t NumPlansCached() const override { return store_.NumLive(); }
  int64_t PeakPlansCached() const override { return store_.Peak(); }

 private:
  struct Point {
    SVector sv;
    PlanStore::Entry* plan = nullptr;
  };

  DensityOptions options_;
  PlanStore store_;
  std::vector<Point> points_;
};

}  // namespace scrpqo
