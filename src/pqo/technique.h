// The online-PQO technique interface (paper Section 2): techniques see the
// workload one instance at a time and must immediately return the plan to
// execute, optionally invoking the engine's optimizer or Recost APIs
// (metered by EngineContext).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics_registry.h"
#include "obs/ring_tracer.h"
#include "optimizer/recost.h"
#include "pqo/engine_context.h"

namespace scrpqo {

/// Observability sinks a technique may be given (both optional; null means
/// disabled and must cost no more than a pointer check on the hot path).
/// The sinks outlive the technique and are thread-safe, so AsyncScr's
/// worker may write to them concurrently with the critical path.
struct ObsHooks {
  RingTracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
};

/// What the technique decided for one instance.
struct PlanChoice {
  /// The plan handed to the executor. Null only when `degraded` is true
  /// AND the technique had no cached plan to fall back on (optimizer
  /// unavailable on a cold cache): callers must treat that as "cannot
  /// serve this instance" rather than dereference.
  std::shared_ptr<const CachedPlan> plan;
  /// True when the technique invoked the optimizer for this instance.
  bool optimized = false;
  /// True when the optimizer was unavailable (failure/deadline/exhausted
  /// retries) and the plan was chosen WITHOUT the lambda guarantee — the
  /// decision is traced as kDegraded and excluded from guarantee audits.
  bool degraded = false;
  /// Recost calls made inside this getPlan invocation (SCR cost check);
  /// used for per-call overhead reporting.
  int recost_calls_in_get_plan = 0;
  /// Cost-check candidates this getPlan considered (post-cap), for
  /// decision tracing.
  int cost_check_candidates_in_get_plan = 0;
};

class PqoTechnique {
 public:
  virtual ~PqoTechnique() = default;

  virtual std::string name() const = 0;

  /// Attaches decision tracing / metrics sinks. Techniques that do not
  /// emit telemetry ignore the call. Must be invoked before the first
  /// OnInstance; the sinks must outlive the technique.
  virtual void SetObs(const ObsHooks& hooks) { (void)hooks; }

  /// Processes the next instance of the workload sequence.
  virtual PlanChoice OnInstance(const WorkloadInstance& wi,
                                EngineContext* engine) = 0;

  /// Blocks until deferred background work (async manageCache) has been
  /// applied, so traces, metrics and cache-size queries are complete.
  /// No-op for synchronous techniques.
  virtual void FlushBackgroundWork() {}

  /// Number of plans currently cached.
  virtual int64_t NumPlansCached() const = 0;

  /// Peak number of plans cached over the sequence so far (the paper's
  /// numPlans metric).
  virtual int64_t PeakPlansCached() const { return NumPlansCached(); }
};

/// Factory used by the harness to create one fresh technique per sequence.
using TechniqueFactory = std::function<std::unique_ptr<PqoTechnique>()>;

}  // namespace scrpqo
