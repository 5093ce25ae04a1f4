// Ellipse (heuristic PPQO variant, Bizarro et al.): reuse a plan when the
// new instance falls inside an ellipse whose foci are two previously
// optimized instances that share the same optimal plan (paper Table 1).
// No sub-optimality guarantee.
#pragma once

#include <memory>
#include <sstream>
#include <vector>

#include "pqo/plan_store.h"
#include "pqo/technique.h"

namespace scrpqo {

struct EllipseOptions {
  /// Eccentricity threshold: qc is inside the inference ellipse of foci
  /// (q1, q2) when dist(q1, q2) / (dist(qc, q1) + dist(qc, q2)) >= delta.
  double delta = 0.90;
  /// Appendix H.6 variant: Recost redundancy check on store when >= 1.
  double recost_redundancy_lambda_r = -1.0;
};

class Ellipse : public PqoTechnique {
 public:
  explicit Ellipse(EllipseOptions options) : options_(options) {}

  std::string name() const override {
    std::ostringstream os;
    os << "Ellipse(d=" << options_.delta << ")";
    if (options_.recost_redundancy_lambda_r >= 1.0) os << "+R";
    return os.str();
  }

  PlanChoice OnInstance(const WorkloadInstance& wi,
                        EngineContext* engine) override;

  int64_t NumPlansCached() const override { return store_.NumLive(); }
  int64_t PeakPlansCached() const override { return store_.Peak(); }

 private:
  EllipseOptions options_;
  PlanStore store_;
  /// Optimized points grouped by the plan they map to, one group per
  /// plan in storage order (a group opens when its plan is stored).
  struct PlanPoints {
    PlanStore::Entry* plan = nullptr;
    std::vector<SVector> points;
  };
  std::vector<PlanPoints> groups_;
};

}  // namespace scrpqo
