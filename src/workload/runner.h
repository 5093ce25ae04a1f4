// Evaluation harness: builds the per-template optimizer oracle (each
// distinct instance optimized exactly once and memoized — techniques are
// still charged their calls), runs a technique over an ordered sequence and
// computes the paper's metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "optimizer/optimizer.h"
#include "pqo/engine_context.h"
#include "pqo/metrics.h"
#include "pqo/technique.h"
#include "workload/orderings.h"
#include "workload/templates.h"

namespace scrpqo {

/// \brief Memoized optimizer results for one instance set.
class Oracle {
 public:
  Oracle() = default;

  /// Optimizes every instance once (timed).
  static Oracle Build(const Optimizer& optimizer,
                      const std::vector<WorkloadInstance>& instances);

  std::shared_ptr<const OptimizationResult> result(int id) const {
    return results_[static_cast<size_t>(id)];
  }
  const CachedPlan& cached_plan(int id) const {
    return *plans_[static_cast<size_t>(id)];
  }
  double opt_cost(int id) const {
    return results_[static_cast<size_t>(id)]->cost;
  }

  /// Measured mean wall-clock of one optimizer call (for Table 3 style
  /// accounting).
  double avg_optimize_seconds() const { return avg_optimize_seconds_; }

  std::vector<InstanceOracleInfo> OrderingInfo() const;

  int size() const { return static_cast<int>(results_.size()); }

 private:
  std::vector<std::shared_ptr<const OptimizationResult>> results_;
  std::vector<std::shared_ptr<const CachedPlan>> plans_;
  double avg_optimize_seconds_ = 0.0;
};

struct RunSequenceOptions {
  /// Bound used to count SO-bound violations (<= 0 disables counting).
  double lambda_for_violations = 0.0;
  std::string ordering_name;
  /// Optional decision tracer: attached to the technique so every instance
  /// produces one decision event (plus cache events). Must outlive the run.
  RingTracer* tracer = nullptr;
  /// Optional metrics registry: attached to technique and engine; each
  /// OnInstance is additionally timed into "get_plan_micros", and the
  /// registry snapshot lands in SequenceMetrics::obs. Must outlive the run.
  MetricsRegistry* metrics = nullptr;
};

/// Runs `technique` over the instances in permutation order, computing SO
/// per instance against the oracle. The oracle short-circuits the engine's
/// optimizer call (results are identical), so suites run fast while call
/// counts stay exact.
SequenceMetrics RunSequence(const Optimizer& optimizer,
                            const std::vector<WorkloadInstance>& instances,
                            const std::vector<int>& permutation,
                            const Oracle& oracle, PqoTechnique* technique,
                            const RunSequenceOptions& options);

}  // namespace scrpqo
