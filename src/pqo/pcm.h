// PCM (Bounded Progressive Parametric Query Optimization, Bizarro et al.,
// TKDE 2009): the only prior online technique with a sub-optimality
// guarantee. Inference (paper Table 1): reuse is allowed when the new
// instance lies in the rectangle spanned by two previously optimized
// instances q1 <= qc <= q2 (component-wise selectivity domination) whose
// optimal costs are within the lambda factor; the dominating instance's
// plan is then lambda-optimal at qc under the Plan Cost Monotonicity
// assumption.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "pqo/plan_store.h"
#include "pqo/technique.h"

namespace scrpqo {

struct PcmOptions {
  double lambda = 2.0;
  /// Appendix H.6 variant: when >= 1, run the Recost redundancy check
  /// before storing a new plan (not part of the original technique).
  double recost_redundancy_lambda_r = -1.0;
};

class Pcm : public PqoTechnique {
 public:
  explicit Pcm(PcmOptions options);

  /// "PCM<lambda>[+R]", interned at construction.
  std::string name() const override { return technique_.str(); }

  /// Attaches decision tracing / metrics. PCM's dominance inference is a
  /// pure cost-bound check, so reuse is traced as cost-check-hit with
  /// R = cost(q2)/cost(q1) and G/L left unset.
  void SetObs(const ObsHooks& hooks) override;

  PlanChoice OnInstance(const WorkloadInstance& wi,
                        EngineContext* engine) override;

  int64_t NumPlansCached() const override { return store_.NumLive(); }
  int64_t PeakPlansCached() const override { return store_.Peak(); }

 private:
  /// Stamps instance, technique and wall time (`end_ns - start_ns`, from
  /// stage-timer stamps) into `event` and records it (tracer only).
  void EmitEvent(DecisionEvent& event, int instance_id, int64_t start_ns,
                 int64_t end_ns);
  struct Point {
    SVector sv;
    double opt_cost = 0.0;
    PlanStore::Entry* plan = nullptr;
  };

  PcmOptions options_;
  NameId technique_;
  PlanStore store_;
  std::vector<Point> points_;

  // --- observability (null = disabled) ---
  ObsHooks obs_;
  Counter* cost_check_hits_ = nullptr;
  Counter* optimized_ = nullptr;
  Counter* redundant_discards_ = nullptr;
  Counter* degraded_ = nullptr;
  LogHistogram* get_plan_micros_ = nullptr;
};

}  // namespace scrpqo
