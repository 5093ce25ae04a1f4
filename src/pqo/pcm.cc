#include "pqo/pcm.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "obs/scoped_timer.h"
#include "obs/emit.h"

namespace scrpqo {

namespace {

/// a dominates b when a >= b in every selectivity dimension.
bool Dominates(const SVector& a, const SVector& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] < b[i]) return false;
  }
  return true;
}

std::string TechniqueName(const PcmOptions& options) {
  std::ostringstream os;
  os << "PCM" << options.lambda;
  if (options.recost_redundancy_lambda_r >= 1.0) os << "+R";
  return os.str();
}

}  // namespace

Pcm::Pcm(PcmOptions options)
    : options_(options), technique_(NameId::Intern(TechniqueName(options))) {}

void Pcm::SetObs(const ObsHooks& hooks) {
  obs_ = hooks;
  if (obs_.metrics != nullptr) {
    cost_check_hits_ = obs_.metrics->counter("decision.cost_check_hits");
    optimized_ = obs_.metrics->counter("decision.optimized");
    redundant_discards_ =
        obs_.metrics->counter("decision.redundant_discards");
    degraded_ = obs_.metrics->counter("pqo.degraded_decisions");
    get_plan_micros_ = obs_.metrics->histogram("pcm.get_plan_micros");
  } else {
    cost_check_hits_ = optimized_ = redundant_discards_ = degraded_ =
        nullptr;
    get_plan_micros_ = nullptr;
  }
}

void Pcm::EmitEvent(DecisionEvent& event, int instance_id, int64_t start_ns,
                    int64_t end_ns) {
  if (obs_.tracer == nullptr) return;
  event.instance_id = instance_id;
  event.technique = technique_;
  if (start_ns >= 0 && end_ns >= start_ns) event.wall_ns = end_ns - start_ns;
  if (const StageBreakdown* b = SpanContext::Current()) {
    event.stages = *b;
  }
  EmitDecisionEvent(obs_.tracer, event);
}

PlanChoice Pcm::OnInstance(const WorkloadInstance& wi, EngineContext* engine) {
  GetPlanSpan span(obs_.tracer != nullptr);
  ScopedTimer get_plan_timer(get_plan_micros_);
  PlanChoice choice;
  const SVector& sv = wi.svector;

  // Inference: cheapest dominating point q2 and costliest dominated point
  // q1; reuse q2's plan iff cost(q2) <= lambda * cost(q1). Under PCM,
  // cost(P2, qc) <= cost(P2, q2) and opt(qc) >= opt(q1), so the chosen
  // plan's sub-optimality is bounded by lambda. The dominance scan is
  // PCM's analogue of SCR's selectivity check, so it shares that stage.
  StageTimer sel_timer(Stage::kSelCheck, nullptr);
  // Armed exactly when tracing: its stamps time the traced decision.
  const int64_t start_ns = sel_timer.start_ns();
  double best_upper = std::numeric_limits<double>::infinity();
  PlanStore::Entry* upper_plan = nullptr;
  double best_lower = 0.0;
  bool have_lower = false;
  for (const Point& p : points_) {
    if (Dominates(p.sv, sv)) {
      if (p.opt_cost < best_upper) {
        best_upper = p.opt_cost;
        upper_plan = p.plan;
      }
    }
    if (Dominates(sv, p.sv)) {
      if (!have_lower || p.opt_cost > best_lower) {
        best_lower = p.opt_cost;
        have_lower = true;
      }
    }
  }
  const int64_t sel_end_ns = sel_timer.Stop();
  // Non-finite guard on the cost ratio R = best_upper / best_lower: a NaN
  // compares false through the bound below (no unsound reuse), but the
  // explicit check keeps an inf/NaN from reaching the traced `r` and the
  // stats pipeline.
  if (upper_plan != nullptr && have_lower && best_lower > 0.0 &&
      std::isfinite(best_upper) && std::isfinite(best_lower) &&
      best_upper <= options_.lambda * best_lower) {
    upper_plan->total_usage.Add(1);
    choice.plan = upper_plan->plan;
    if (cost_check_hits_ != nullptr) cost_check_hits_->Increment();
    if (obs_.tracer != nullptr) {
      DecisionEvent ev;
      ev.outcome = DecisionOutcome::kCostCheckHit;
      ev.matched_entry = upper_plan->id;
      // PCM's inference check is r <= lambda (no L/S factors involved).
      ev.r = best_upper / best_lower;
      ev.lambda = options_.lambda;
      ev.candidates_scanned = static_cast<int32_t>(points_.size());
      EmitEvent(ev, wi.id, start_ns, sel_end_ns);
    }
    return choice;
  }

  // Optimize and store.
  auto result = engine->Optimize(wi);
  if (result == nullptr) [[unlikely]] {
    // Optimizer unavailable: serve the cheapest cached plan by recost,
    // without the guarantee (traced as kDegraded, lambda unset).
    choice.degraded = true;
    PlanStore::Entry* best = nullptr;
    double best_cost = std::numeric_limits<double>::infinity();
    for (const std::unique_ptr<PlanStore::Entry>& e : store_.live()) {
      double c = engine->Recost(*e->plan, sv);
      ++choice.recost_calls_in_get_plan;
      if (std::isfinite(c) && c < best_cost) {
        best_cost = c;
        best = e.get();
      }
    }
    if (best != nullptr) {
      best->total_usage.Add(1);
      choice.plan = best->plan;
    }
    if (degraded_ != nullptr) degraded_->Increment();
    if (obs_.tracer != nullptr) {
      DecisionEvent ev;
      ev.outcome = DecisionOutcome::kDegraded;
      ev.matched_entry = best != nullptr ? best->id : -1;
      ev.recost_calls = choice.recost_calls_in_get_plan;
      EmitEvent(ev, wi.id, start_ns, ObsClock::NowNs());
    }
    return choice;
  }
  choice.optimized = true;
  CachedPlan cached = MakeCachedPlan(*result);
  // The H.6 redundancy variant issues Recost calls inside StoreOrReuse;
  // charge them to this getPlan so max_recost_per_get_plan reflects PCM+R.
  int64_t recosts_before = engine->num_recost_calls();
  StageTimer manage_timer(Stage::kManageCache, nullptr);
  PlanStore::StoreResult stored = store_.StoreOrReuse(
      cached, sv, result->cost, options_.recost_redundancy_lambda_r, engine);
  const int64_t end_ns = manage_timer.Stop();
  choice.recost_calls_in_get_plan =
      static_cast<int>(engine->num_recost_calls() - recosts_before);
  // A non-finite optimal cost must never seed an inference point: it
  // would poison every future dominance bound it participates in. The
  // plan is still served (it is the optimizer's answer); only inference
  // from this instance is quarantined.
  if (std::isfinite(result->cost) && result->cost > 0.0) {
    points_.push_back(Point{sv, result->cost, stored.entry});
  }
  choice.plan = stored.entry->plan;
  if (stored.reused_existing) {
    if (redundant_discards_ != nullptr) redundant_discards_->Increment();
  } else if (optimized_ != nullptr) {
    optimized_->Increment();
  }
  if (obs_.tracer != nullptr) {
    DecisionEvent ev;
    ev.outcome = stored.reused_existing
                     ? DecisionOutcome::kRedundantDiscard
                     : DecisionOutcome::kOptimized;
    ev.matched_entry = stored.entry->id;
    if (stored.reused_existing) {
      ev.r = stored.subopt;
      ev.subopt = stored.subopt;
      ev.lambda = options_.recost_redundancy_lambda_r;
    }
    ev.candidates_scanned = static_cast<int32_t>(points_.size()) - 1;
    ev.recost_calls = choice.recost_calls_in_get_plan;
    EmitEvent(ev, wi.id, start_ns, end_ns);
  }
  return choice;
}

}  // namespace scrpqo
