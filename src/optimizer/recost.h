// The Recost API (paper Appendix B).
//
// After optimizing instance qe, the engine extracts the winning plan from
// the Memo and prunes away all groups/expressions not on the final plan —
// the paper's "shrunkenMemo". Here CachedPlan is that cacheable
// representation: the plan tree (which carries instance-independent
// cardinality-derivation metadata), its compiled flat recost program, and
// its identity and creation-time memo statistics. Recost rebinds
// parameterized leaf selectivities and re-derives cardinality and cost
// bottom-up — arithmetic only, no plan search — which is why it is orders
// of magnitude cheaper than an optimizer call. The flat program makes the
// arithmetic a single linear scan (see recost_program.h), and it is the
// only evaluator on the serving path; CostModel::RecostTree remains as the
// oracle the tests and uncharged evaluation compare against.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/effects.h"
#include "common/status.h"
#include "optimizer/cost_model.h"
#include "optimizer/optimizer.h"
#include "optimizer/physical_plan.h"
#include "optimizer/plan_signature.h"
#include "optimizer/recost_program.h"
#include "query/query_instance.h"

namespace scrpqo {

/// \brief A cached, re-costable execution plan ("shrunkenMemo").
struct CachedPlan {
  PlanPtr plan;
  /// Flat postorder recost program compiled from `plan` at MakeCachedPlan
  /// time. Every charged Recost runs it, so serving CachedPlans come from
  /// MakeCachedPlan.
  RecostProgram program;
  uint64_t signature = 0;
  /// Memo size when the plan was produced vs. retained nodes — the basis of
  /// the ">= 70% pruning" observation in Appendix B.
  int memo_physical_exprs = 0;
  int retained_nodes = 0;

  double PruningRatio() const {
    if (memo_physical_exprs <= 0) return 0.0;
    return 1.0 - static_cast<double>(retained_nodes) /
                     static_cast<double>(memo_physical_exprs);
  }
};

/// Builds the cacheable representation from an optimizer result, compiling
/// the flat recost program as part of plan extraction.
CachedPlan MakeCachedPlan(const OptimizationResult& result);

/// \brief Engine API #2 (paper Appendix B): Cost(P, q) for an arbitrary
/// already-cached plan P and query instance q, given q's selectivity vector.
class RecostService {
 public:
  explicit RecostService(const CostModel* cost_model)
      : cost_model_(cost_model) {}

  /// Re-derives the plan's cost for `sv`. Thread-safe and allocation-free
  /// on the hot path.
  [[nodiscard]] SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING
  SCRPQO_FP_DETERMINISTIC SCRPQO_NOTHROW SCRPQO_LOCK_BOUNDED()
  double Recost(const CachedPlan& plan,
                const SVector& sv) const {
    num_calls_.fetch_add(1, std::memory_order_relaxed);
    return RecostNoCount(plan, sv);
  }

  /// \brief Batch Recost: scans `plans` in order, writing plans[i]'s cost
  /// for `sv` into `out_costs[i]`. After each program scan `visit(i, cost)`
  /// decides whether to continue (`true`) or stop early (`false`) — e.g.
  /// the redundancy sweep stops once the running best already beats
  /// lambda_r, and SCR's cost check stops at the first passing candidate.
  /// Returns the number of plans actually re-costed; each is charged as
  /// one Recost call, so the count equals the one-call-per-plan loop's.
  template <typename Visitor>
  SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING SCRPQO_FP_DETERMINISTIC
  SCRPQO_LOCK_BOUNDED()
  size_t RecostMany(std::span<const CachedPlan* const> plans,
                    const SVector& sv, std::span<double> out_costs,
                    Visitor&& visit) const {
    SCRPQO_CHECK(out_costs.size() >= plans.size(),
                 "RecostMany output span too small");
    size_t visited = 0;
    while (visited < plans.size()) {
      const size_t i = visited++;
      const double c = RecostNoCount(*plans[i], sv);
      out_costs[i] = c;
      if (!visit(i, c)) break;
    }
    num_calls_.fetch_add(static_cast<int64_t>(visited),
                         std::memory_order_relaxed);
    return visited;
  }

  size_t RecostMany(std::span<const CachedPlan* const> plans,
                    const SVector& sv, std::span<double> out_costs) const {
    return RecostMany(plans, sv, out_costs,
                      [](size_t, double) { return true; });
  }

  int64_t num_calls() const {
    return num_calls_.load(std::memory_order_relaxed);
  }
  void ResetCounters() { num_calls_.store(0, std::memory_order_relaxed); }

 private:
  double RecostNoCount(const CachedPlan& plan, const SVector& sv) const {
    return plan.program.Run(sv, cost_model_->params());
  }

  const CostModel* cost_model_;
  /// Relaxed atomic: bumped from the const hot path by concurrent getPlan
  /// readers (a plain mutable int64_t here would be a data race).
  mutable std::atomic<int64_t> num_calls_{0};
};

}  // namespace scrpqo
