#include "pqo/scr.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <span>
#include <sstream>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/math_util.h"
#include "common/scratch_arena.h"
#include "common/status.h"
#include "obs/emit.h"
#include "optimizer/plan_memory.h"

namespace scrpqo {

namespace {
/// Tolerance when classifying a cost-check observation as a BCG/PCM
/// violation (Appendix G); absorbs floating-point noise.
constexpr double kViolationSlack = 1.02;

/// Absolute slack of the flat table's L1 prefilter. The prefilter compares
/// a rounded sum of rounded logs with the rounded log of a rounded bound;
/// the exact test compares G*L, a product of up to 2d + 1 rounded ratios
/// and factors, with lambda(e)/S. Clamped selectivities lie in [1e-9, 1],
/// so each log is below 20.8 in magnitude and within one ulp (3.6e-15) of
/// the real value. With the subtraction and the running sum, a distance is
/// off by at most ~1.5e-14 per dimension, and G*L and the bound's log add
/// (2d + 3) * 1.1e-16. Even at kMaxSnapshotDims = 256 dimensions that is
/// under 4e-12 (typically d * 5e-15), so 1e-9 leaves a margin above 250x:
/// the prefilter skips no entry the exact test would pass, and a distance
/// is always within kLogSlack of log(G*L).
///
/// The same bound orders the cost check's candidates (Section 6.2) without
/// their exact G*L: two distances more than 2 * kLogSlack apart order
/// their G*L the same way, so only neighbours closer than that (near-ties)
/// need the exact product, and no entry farther than 2 * kLogSlack beyond
/// the k-th smallest distance can be among the k smallest G*L.
constexpr double kLogSlack = 1e-9;

/// The flat table's coordinates: log(max(s, kSelectivityFloor)) for each of
/// the `d` selectivities, with ComputeGlFast's clamp (a NaN clamps to the
/// floor).
SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING SCRPQO_LOCK_BOUNDED()
void LogSelectivities(const double* s, size_t d, double* out) {
  for (size_t k = 0; k < d; ++k) {
    out[k] = std::log(VecMax(s[k], kSelectivityFloor));
  }
}

/// sum_k |a_k - b_k| over two log rows: log(G*L) between their instances
/// (Section 5.3). A dimension where both are +inf adds 0, as its NaN ratio
/// leaves ComputeGlFast's G and L alone.
SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING SCRPQO_LOCK_BOUNDED()
inline double L1Distance(const double* a, const double* b, size_t d) {
  double dist = 0.0;
  for (size_t k = 0; k < d; ++k) {
    const double diff = std::fabs(a[k] - b[k]);
    dist += diff == diff ? diff : 0.0;
  }
  return dist;
}

std::string TechniqueName(const ScrOptions& options) {
  std::ostringstream os;
  os << "SCR" << options.lambda;
  if (options.plan_budget > 0) os << "(k=" << options.plan_budget << ")";
  if (options.dynamic_lambda) os << "(dyn)";
  return os.str();
}
}  // namespace

Scr::Scr(ScrOptions options)
    : options_(options), technique_(NameId::Intern(TechniqueName(options))) {
  SCRPQO_CHECK(options_.lambda >= 1.0, "lambda must be >= 1");
  lambda_r_effective_ = options_.lambda_r >= 1.0
                            ? options_.lambda_r
                            : std::sqrt(options_.lambda);
}

double Scr::RegionArea(const InstanceEntry& e) const {
  // Proportional to the paper's ((lambda-1)/lambda) * ln(lambda) * prod(s_i)
  // formula (Section 5.3); the lambda factor is shared across entries under
  // a static bound, so the selectivity product alone orders entries.
  double area = 1.0;
  for (double s : e.v) area *= s;
  return area;
}

double Scr::LambdaFor(const InstanceEntry& e) const {
  if (!options_.dynamic_lambda) return options_.lambda;
  double c_ref =
      cost_count_ > 0 ? cost_sum_ / static_cast<double>(cost_count_) : 1.0;
  c_ref = std::max(c_ref, 1e-12);
  return options_.lambda_min +
         (options_.lambda_max - options_.lambda_min) *
             std::exp(-e.opt_cost / c_ref);
}

double Scr::LambdaEnvelope() const {
  if (!options_.dynamic_lambda) return options_.lambda;
  // LambdaFor's exp factor lies in [0, 1] for C >= 0, and rounding is
  // monotone, so no entry's lambda exceeds this (nor lambda_min when
  // lambda_max < lambda_min).
  return options_.lambda_min +
         std::max(options_.lambda_max - options_.lambda_min, 0.0);
}

void Scr::AppendEntry(InstanceEntry entry) {
  if (instances_.empty()) dims_ = entry.v.size();
  // One cache serves one template. An instance of another dimension never
  // matches (TryReuse), so it has no row to fill either.
  if (entry.v.size() != dims_) return;
  const size_t row = log_rows_.size();
  log_rows_.resize(row + dims_);
  LogSelectivities(entry.v.data(), dims_, log_rows_.data() + row);
  log_bounds_.push_back(std::log(LambdaEnvelope() / entry.subopt));
  instances_.push_back(std::move(entry));
}

void Scr::SetObs(const ObsHooks& hooks) {
  obs_ = hooks;
  if (obs_.metrics != nullptr) {
    decision_counters_[static_cast<int>(DecisionOutcome::kSelCheckHit)] =
        obs_.metrics->counter("decision.sel_check_hits");
    decision_counters_[static_cast<int>(DecisionOutcome::kCostCheckHit)] =
        obs_.metrics->counter("decision.cost_check_hits");
    decision_counters_[static_cast<int>(DecisionOutcome::kOptimized)] =
        obs_.metrics->counter("decision.optimized");
    decision_counters_[static_cast<int>(
        DecisionOutcome::kRedundantDiscard)] =
        obs_.metrics->counter("decision.redundant_discards");
    decision_counters_[static_cast<int>(DecisionOutcome::kEvicted)] =
        obs_.metrics->counter("cache.evictions");
    decision_counters_[static_cast<int>(DecisionOutcome::kDegraded)] =
        obs_.metrics->counter("pqo.degraded_decisions");
    get_plan_micros_ = obs_.metrics->histogram("scr.get_plan_micros");
    manage_cache_micros_ =
        obs_.metrics->histogram("scr.manage_cache_micros");
    cost_check_candidates_ =
        obs_.metrics->histogram("scr.cost_check_candidates");
    stage_hists_ = StageHistograms::FromRegistry(obs_.metrics);
  } else {
    for (Counter*& c : decision_counters_) c = nullptr;
    get_plan_micros_ = nullptr;
    manage_cache_micros_ = nullptr;
    cost_check_candidates_ = nullptr;
    stage_hists_.Reset();
  }
}

SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING SCRPQO_LOCK_BOUNDED()
void Scr::EmitEvent(DecisionEvent& event, int instance_id, int64_t start_ns,
                    int64_t end_ns) {
  Counter* counter = decision_counters_[static_cast<int>(event.outcome)];
  if (counter != nullptr) counter->Increment();
  if (obs_.tracer == nullptr) return;
  event.instance_id = instance_id;
  event.technique = technique_;
  event.template_key = scope_label_;
  if (start_ns >= 0 && end_ns >= start_ns) event.wall_ns = end_ns - start_ns;
  // Per-instance decisions carry the ambient span's stage breakdown;
  // meta events (evictions) don't — their timing belongs to the decision
  // that triggered them. Open StageTimers must be stopped before emitting
  // or their stage is missing from the copy.
  if (IsDecisionOutcome(event.outcome)) {
    if (const StageBreakdown* b = SpanContext::Current()) {
      event.stages = *b;
    }
  }
  EmitDecisionEvent(obs_.tracer, event);
}

void Scr::RecordAttemptTime(int64_t start_ns, int64_t end_ns) const {
  if (get_plan_micros_ != nullptr && start_ns >= 0 && end_ns >= start_ns) {
    get_plan_micros_->Record(static_cast<double>((end_ns - start_ns) / 1000));
  }
}

PlanChoice Scr::OnInstance(const WorkloadInstance& wi, EngineContext* engine) {
  // Outermost span for the whole decision (reuse attempt + optimize +
  // manageCache); a no-op when a PqoManager already opened one upstream.
  GetPlanSpan span(obs_.tracer != nullptr);
  PlanChoice choice;
  int64_t start_ns = -1;
  if (TryReuse(wi, engine, &choice, &start_ns)) return choice;

  // ---- Optimize + manageCache (Algorithm 2) ----
  auto result = engine->Optimize(wi);
  if (result == nullptr) [[unlikely]] {
    // Optimizer unavailable (fault or deadline overrun): serve whatever
    // the cache has, without the guarantee.
    ServeDegraded(wi, engine, &choice, start_ns);
    return choice;
  }
  choice.optimized = true;
  ManageCache(wi, result, engine, &choice, start_ns);
  return choice;
}

void Scr::ServeDegraded(const WorkloadInstance& wi, EngineContext* engine,
                        PlanChoice* choice, int64_t start_ns) {
  choice->degraded = true;
  const SVector& sv = wi.svector;
  // Best cached plan by recost: the selectivity/cost checks already
  // rejected lambda-bounded reuse, so this is explicitly NOT
  // lambda-optimal — it is merely the least-bad plan available.
  int best_id = -1;
  double best_cost = std::numeric_limits<double>::infinity();
  for (int id : store_.LivePlanIds()) {
    double c = engine->Recost(*store_.entry(id).plan, sv);
    ++choice->recost_calls_in_get_plan;
    if (std::isfinite(c) && c < best_cost) {
      best_cost = c;
      best_id = id;
    }
  }
  if (best_id < 0) {
    // Empty (or all-non-finite) cache: nothing to fall back on. Retry the
    // optimizer a few times with short exponential backoff — during
    // warm-up this is the only way to make progress.
    for (int attempt = 0; attempt < 3 && best_id < 0; ++attempt) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(int64_t{100} << attempt));
      auto retry = engine->Optimize(wi);
      if (retry != nullptr) {
        // The optimizer recovered: this is a normal optimized decision
        // after all (guarantee intact), not a degraded one.
        choice->degraded = false;
        choice->optimized = true;
        ManageCache(wi, retry, engine, choice, start_ns);
        return;
      }
    }
  } else {
    store_.AddUsage(best_id, 1);
    choice->plan = store_.entry(best_id).plan;
  }
  if (obs_.tracer != nullptr || obs_.metrics != nullptr) {
    DecisionEvent ev;
    ev.outcome = DecisionOutcome::kDegraded;
    ev.matched_entry = best_id;
    // No lambda claim: audits must not fold this decision into the
    // guaranteed set (lambda stays -1).
    ev.recost_calls = choice->recost_calls_in_get_plan;
    ev.candidates_scanned = choice->cost_check_candidates_in_get_plan;
    EmitEvent(ev, wi.id, start_ns,
              obs_.tracer != nullptr ? ObsClock::NowNs() : -1);
  }
}

void Scr::RegisterOptimization(
    const WorkloadInstance& wi,
    std::shared_ptr<const OptimizationResult> result, EngineContext* engine,
    int get_plan_recosts, int get_plan_candidates) {
  // The decision event's wall clock covers only the manageCache half here:
  // the optimizer ran on the caller's critical path (AsyncScr).
  PlanChoice ignored;
  ignored.recost_calls_in_get_plan = get_plan_recosts;
  ignored.cost_check_candidates_in_get_plan = get_plan_candidates;
  ManageCache(wi, std::move(result), engine, &ignored, /*start_ns=*/-1);
}

SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING SCRPQO_LOCK_BOUNDED()
bool Scr::TryReuse(const WorkloadInstance& wi, EngineContext* engine,
                   PlanChoice* choice_out, int64_t* start_ns_out) {
  // Standalone reuse attempts (AsyncScr's critical path) get their own
  // span here; when Scr::OnInstance or a PqoManager opened one already
  // this is a no-op and stages accumulate into the outer breakdown.
  GetPlanSpan span(obs_.tracer != nullptr);
  // The attempt is timed by its stage timers' own clock stamps: the first
  // stage's start opens it and the last stage's stop closes it, so the
  // event's wall time and scr.get_plan_micros cost no extra clock read.
  // Every Scr stage timer is armed under the same condition (a span or
  // the metrics registry), so start_ns >= 0 means all of them are.
  int64_t start_ns = -1;
  PlanChoice& choice = *choice_out;
  const SVector& sv = wi.svector;

  // Everything below runs once per query on the reuse path; after warm-up
  // it must not touch the heap (ScrZeroAllocTest in recost_test.cc asserts
  // this with the arena watermark). Scratch lives in the thread's arena and
  // dies when this scope unwinds.
  ScratchArena& arena = ScratchArena::Tls();
  ScratchArena::Scope arena_scope(arena);

  // ---- Selectivity check (Algorithm 1, first loop) ----
  // One pass over the flat table in insertion order. An entry whose L1
  // log-distance is within its bound (plus kLogSlack) may pass, so the
  // exact G*L test decides it: the first entry that passes is the hit,
  // with the g, l, S and lambda of the exact test. Every distance is kept
  // for the cost check; no other entry is touched.
  // One cache serves one template: an instance of another dimension
  // matches nothing.
  const size_t n = sv.size() == dims_ ? instances_.size() : 0;
  double* dist = arena.AllocateArray<double>(n);
  {
    StageTimer sel_timer(Stage::kSelCheck, stage_hists_[Stage::kSelCheck]);
    start_ns = sel_timer.start_ns();
    if (start_ns_out != nullptr) *start_ns_out = start_ns;
    const size_t d = dims_;
    double* q = arena.AllocateArray<double>(d);
    if (n > 0) LogSelectivities(sv.data(), d, q);
    const double* row = log_rows_.data();
    for (size_t i = 0; i < n; ++i, row += d) {
      const double dist_i = L1Distance(q, row, d);
      dist[i] = dist_i;
      if (!(dist_i > log_bounds_[i] + kLogSlack)) {
        InstanceEntry& e = instances_[i];
        const GlFactors gl = ComputeGlFast(e.v, sv);
        if (gl.g * gl.l <= LambdaFor(e) / e.subopt) {
          e.usage.Add(1);
          store_.AddUsage(e.plan_id, 1);
          choice.plan = store_.entry(e.plan_id).plan;
          const int64_t end_ns = sel_timer.Stop();
          RecordAttemptTime(start_ns, end_ns);
          if (obs_.tracer != nullptr || obs_.metrics != nullptr) {
            DecisionEvent ev;
            ev.outcome = DecisionOutcome::kSelCheckHit;
            ev.matched_entry = static_cast<int32_t>(i);
            ev.g = gl.g;
            ev.l = gl.l;
            ev.subopt = e.subopt;
            ev.lambda = LambdaFor(e);
            EmitEvent(ev, wi.id, start_ns, end_ns);
          }
          return true;
        }
      }
    }
  }

  // ---- Cost check (Algorithm 1, second loop) ----
  ArenaVec<Candidate> candidates(arena);
  if (options_.enable_cost_check) {
    CollectCandidates(dist, n, arena, &candidates);
  }
  OrderCandidates(&candidates, sv);
  choice.cost_check_candidates_in_get_plan =
      static_cast<int>(candidates.size());
  if (cost_check_candidates_ != nullptr) {
    cost_check_candidates_->Record(static_cast<double>(candidates.size()));
  }
  // One batched Recost sweep: each candidate costs one flat program scan,
  // in the heuristic order fixed above. The visitor stops the sweep at the
  // first candidate that passes its bound, and only visited plans are
  // billed, so the Recost-call count is identical to the
  // one-call-per-loop form (Section 7.3's overhead accounting depends on
  // this).
  int recosts = 0;
  int hit = -1;
  double hit_r = 0.0;
  // The attempt ends at the last stage stop so far, or at the sweep's
  // batch_recost stop when the engine's timer is armed (see below).
  int64_t end_ns = start_ns >= 0 ? ObsClock::LastNs() : -1;
  if (!candidates.empty()) {
    ArenaVec<double> cand_costs(arena, candidates.size());
    cand_costs.resize(candidates.size());
    std::span<double> cost_span(cand_costs.data(), cand_costs.size());
    auto cost_visitor = [&](size_t idx, double new_cost) {
      Candidate& c = candidates[idx];
      InstanceEntry& e = instances_[c.entry];
      ++recosts;
      double r = new_cost / std::max(e.opt_cost, 1e-30);

      // A non-finite or non-positive recost (engine mis-costing; also
      // reachable through the recost.nonfinite fault point) must never
      // enter the R*L <= lambda/S comparison: NaN compares false on
      // every branch and would silently corrupt stats downstream.
      // Quarantine the entry through the Appendix-G path — the sweep
      // continues, and with no passing candidate getPlan falls through
      // to a fresh optimization.
      if (!std::isfinite(new_cost) || new_cost <= 0.0 ||
          !std::isfinite(r)) {
        e.cost_check_disabled.Store(true);
        violations_detected_.Add(1);
        return true;
      }

      // The exact G and L, unless a near-tie in OrderCandidates needed
      // them already.
      if (c.l == 0.0) FillGl(c, sv);
      if (options_.detect_violations) {
        // Appendix G: the cached plan's cost at qe is S * C. BCG
        // implies cost(P, qc) <= G * cost(P, qe) and
        // >= cost(P, qe) / L; observing either bound broken means the
        // assumption failed for this entry.
        double plan_cost_at_e = e.subopt * e.opt_cost;
        if (new_cost > kViolationSlack * c.g * plan_cost_at_e ||
            new_cost * kViolationSlack < plan_cost_at_e / c.l) {
          e.cost_check_disabled.Store(true);
          violations_detected_.Add(1);
          return true;  // keep scanning; this entry is now excluded
        }
      }

      if (r * c.l <= LambdaFor(e) / e.subopt) {
        hit = static_cast<int>(idx);
        hit_r = r;
        return false;  // cost check passed — stop the sweep
      }
      return true;
    };
    ArenaVec<const CachedPlan*> cand_plans(arena, candidates.size());
    for (const Candidate& c : candidates) {
      cand_plans.push_back(
          store_.entry(instances_[c.entry].plan_id).plan.get());
    }
    engine->RecostMany(
        std::span<const CachedPlan* const>(cand_plans.data(),
                                           cand_plans.size()),
        sv, cost_span, cost_visitor);
    // Reuse the engine's batch_recost stop stamp; only when its timer was
    // unarmed (engine without metrics, no span) is the clock read here.
    if (start_ns >= 0) end_ns = ObsClock::NowAfter(end_ns);
  }
  RecordAttemptTime(start_ns, end_ns);
  if (hit >= 0) {
    const Candidate& c = candidates[static_cast<size_t>(hit)];
    InstanceEntry& e = instances_[c.entry];
    e.usage.Add(1);
    store_.AddUsage(e.plan_id, 1);
    choice.plan = store_.entry(e.plan_id).plan;
    choice.recost_calls_in_get_plan = recosts;
    max_recost_calls_per_get_plan_.UpdateMax(recosts);
    if (obs_.tracer != nullptr || obs_.metrics != nullptr) {
      DecisionEvent ev;
      ev.outcome = DecisionOutcome::kCostCheckHit;
      ev.matched_entry = static_cast<int32_t>(c.entry);
      // G*L / L, as the list scan reported it (not always G bit for bit).
      ev.g = c.g * c.l / c.l;
      ev.l = c.l;
      ev.r = hit_r;
      ev.subopt = e.subopt;
      ev.lambda = LambdaFor(e);
      ev.candidates_scanned = choice.cost_check_candidates_in_get_plan;
      ev.recost_calls = recosts;
      EmitEvent(ev, wi.id, start_ns, end_ns);
    }
    return true;
  }
  max_recost_calls_per_get_plan_.UpdateMax(recosts);
  choice.recost_calls_in_get_plan = recosts;
  return false;
}

SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING SCRPQO_LOCK_BOUNDED()
void Scr::CollectCandidates(double* dist, size_t n, ScratchArena& arena,
                            ArenaVec<Candidate>* candidates) const {
  const int max_candidates = options_.max_cost_check_candidates;
  const size_t cap =
      max_candidates > 0 ? static_cast<size_t>(max_candidates) : n;
  const bool shortlist =
      options_.cost_check_order == CostCheckOrder::kAscendingGl && cap < n;
  double cut = std::numeric_limits<double>::infinity();
  if (shortlist) {
    // The cap smallest enabled distances, in a max-heap: most entries cost
    // one comparison with the current cap-th smallest. A disabled entry's
    // distance becomes NaN, which the collection below skips, so the cut
    // and the collection see the same flags.
    double* top = arena.AllocateArray<double>(cap);
    size_t enabled = 0;
    for (size_t i = 0; i < n; ++i) {
      if (instances_[i].cost_check_disabled.value()) {
        dist[i] = std::numeric_limits<double>::quiet_NaN();
        continue;
      }
      if (enabled < cap) {
        top[enabled] = dist[i];
        std::push_heap(top, top + enabled + 1);
      } else if (dist[i] < top[0]) {
        std::pop_heap(top, top + cap);
        top[cap - 1] = dist[i];
        std::push_heap(top, top + cap);
      }
      ++enabled;
    }
    // Section 6.2 keeps the cap smallest G*L. A distance is within
    // kLogSlack of log(G*L), so every entry whose G*L can tie or beat the
    // cap-th smallest has a distance within 2 * kLogSlack of the cap-th
    // smallest distance.
    if (enabled > cap) cut = top[0] + 2.0 * kLogSlack;
  }
  candidates->reserve(shortlist ? cap : n);
  for (size_t i = 0; i < n; ++i) {
    const bool keep = shortlist ? dist[i] <= cut
                                : !instances_[i].cost_check_disabled.value();
    if (keep) candidates->push_back(Candidate{dist[i], i, 0.0, 0.0});
  }
}

SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING SCRPQO_LOCK_BOUNDED()
void Scr::OrderCandidates(ArenaVec<Candidate>* candidates,
                          const SVector& sv) const {
  Candidate* first = candidates->data();
  const size_t n = candidates->size();
  const size_t k =
      options_.max_cost_check_candidates > 0
          ? std::min(n, static_cast<size_t>(options_.max_cost_check_candidates))
          : n;
  // Ascending key, ties by table position: a total order, so which
  // candidates are kept, and in what order, is deterministic.
  const auto by_key = [](const Candidate& a, const Candidate& b) {
    return a.key < b.key || (a.key == b.key && a.entry < b.entry);
  };
  switch (options_.cost_check_order) {
    case CostCheckOrder::kAscendingGl: {
      // Section 6.2: small G*L is most likely to pass. The keys are
      // distances, each within kLogSlack of log(G*L), so (distance,
      // position) order is (G*L, position) order except inside a run of
      // neighbours within 2 * kLogSlack of each other (the negated test
      // also joins equal infinite distances). Such a run gets the exact
      // G*L; runs that start at or past position k are cut anyway.
      const auto by_gl = [](const Candidate& a, const Candidate& b) {
        const double a_gl = a.g * a.l;
        const double b_gl = b.g * b.l;
        return a_gl < b_gl || (a_gl == b_gl && a.entry < b.entry);
      };
      std::sort(first, first + n, by_key);
      for (size_t i = 0; i < k;) {
        size_t j = i + 1;
        while (j < n && !(first[j].key - first[j - 1].key > 2.0 * kLogSlack)) {
          ++j;
        }
        if (j - i > 1) {
          for (size_t m = i; m < j; ++m) FillGl(first[m], sv);
          std::sort(first + i, first + j, by_gl);
        }
        i = j;
      }
      break;
    }
    case CostCheckOrder::kDescendingRegionArea:
      // The selectivity-based region grows with the product of the entry's
      // selectivities (Section 5.3); bigger regions are broader matches, so
      // try them first.
      for (size_t i = 0; i < n; ++i) {
        first[i].key = -RegionArea(instances_[first[i].entry]);
      }
      std::partial_sort(first, first + k, first + n, by_key);
      break;
    case CostCheckOrder::kDescendingUsage:
      for (size_t i = 0; i < n; ++i) {
        first[i].key = -static_cast<double>(
            instances_[first[i].entry].usage.value());
      }
      std::partial_sort(first, first + k, first + n, by_key);
      break;
    case CostCheckOrder::kInsertionOrder:
      break;  // already in table order
  }
  candidates->resize(k);
}

SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING SCRPQO_LOCK_BOUNDED()
void Scr::FillGl(Candidate& c, const SVector& sv) const {
  const GlFactors gl = ComputeGlFast(instances_[c.entry].v, sv);
  c.g = gl.g;
  c.l = gl.l;
}

void Scr::ManageCache(const WorkloadInstance& wi,
                      std::shared_ptr<const OptimizationResult> result,
                      EngineContext* engine, PlanChoice* choice,
                      int64_t start_ns) {
  // Covers the store-or-reuse half (including the redundancy check's
  // recosts); stopped before the decision event is emitted so the
  // "manage_cache" stage appears in its breakdown, and its stop stamp
  // closes the event's wall time. The bookkeeping tail (budget eviction,
  // instance-list push) stays unattributed.
  StageTimer manage_cache_timer(Stage::kManageCache, manage_cache_micros_);
  if (start_ns < 0) start_ns = manage_cache_timer.start_ns();
  const SVector& sv = wi.svector;
  if (FaultShouldFire(faults::kColdAllocFail)) [[unlikely]] {
    // Simulated allocation failure on the cold path: serve the freshly
    // optimized plan but skip cache insertion. The served plan is the
    // optimal one, so the decision keeps the guarantee — only cache
    // growth is lost (the next similar instance re-optimizes).
    const int64_t end_ns = manage_cache_timer.Stop();
    choice->plan = std::make_shared<CachedPlan>(MakeCachedPlan(*result));
    if (obs_.tracer != nullptr || obs_.metrics != nullptr) {
      DecisionEvent ev;
      ev.outcome = DecisionOutcome::kOptimized;
      ev.matched_entry = -1;
      ev.candidates_scanned = choice->cost_check_candidates_in_get_plan;
      ev.recost_calls = choice->recost_calls_in_get_plan;
      EmitEvent(ev, wi.id, start_ns, end_ns);
    }
    return;
  }
  cost_sum_ += result->cost;
  ++cost_count_;

  CachedPlan cached = MakeCachedPlan(*result);
  PlanStore::StoreResult stored =
      store_.StoreOrReuse(cached, sv, result->cost, lambda_r_effective_,
                          engine);
  const int64_t end_ns = manage_cache_timer.Stop();

  if (obs_.tracer != nullptr || obs_.metrics != nullptr) {
    DecisionEvent ev;
    ev.outcome = stored.reused_existing
                     ? DecisionOutcome::kRedundantDiscard
                     : DecisionOutcome::kOptimized;
    ev.matched_entry = stored.plan_id;
    if (stored.reused_existing) {
      ev.r = stored.subopt;
      ev.subopt = stored.subopt;
      ev.lambda = lambda_r_effective_;
    }
    ev.candidates_scanned = choice->cost_check_candidates_in_get_plan;
    ev.recost_calls = choice->recost_calls_in_get_plan;
    EmitEvent(ev, wi.id, start_ns, end_ns);
  }

  if (!stored.already_present && !stored.reused_existing) {
    // A genuinely new plan entered the cache; enforce the budget. The plan
    // just stored is pinned: at this point it carries zero usage, so an
    // unpinned LFU sweep would evict it first and leave the instance entry
    // pushed below pointing at a dead plan.
    if (options_.plan_budget > 0 &&
        store_.NumLive() > options_.plan_budget) {
      EvictForBudget(wi.id, stored.plan_id);
    }
  }

  InstanceEntry entry;
  entry.v = sv;
  entry.plan_id = stored.plan_id;
  entry.opt_cost = result->cost;
  entry.subopt = stored.subopt;
  entry.usage = 1;
  AppendEntry(std::move(entry));
  store_.AddUsage(stored.plan_id, 1);
  choice->plan = store_.entry(stored.plan_id).plan;
}

void Scr::EvictForBudget(int instance_id, int pinned_plan_id) {
  while (store_.NumLive() > options_.plan_budget) {
    int victim = store_.MinUsagePlanId(pinned_plan_id);
    // Nothing evictable besides the pinned in-flight plan.
    if (victim < 0) break;
    DropPlanAndEntries(victim, instance_id);
  }
}

void Scr::DropPlanAndEntries(int victim, int instance_id) {
  store_.Drop(victim);
  if (obs_.tracer != nullptr || obs_.metrics != nullptr) {
    DecisionEvent ev;
    ev.outcome = DecisionOutcome::kEvicted;
    ev.matched_entry = victim;
    // Meta event: untimed (its cost belongs to the triggering decision).
    EmitEvent(ev, instance_id, /*start_ns=*/-1, /*end_ns=*/-1);
  }
  // Dropping the instance entries keeps the lambda-optimality guarantee
  // intact (Section 6.3.1): no future inference can use the gone plan.
  // One stable pass erases them with their table rows; later entries move
  // down, keeping insertion order.
  const size_t d = dims_;
  size_t kept = 0;
  for (size_t i = 0; i < instances_.size(); ++i) {
    if (instances_[i].plan_id == victim) continue;
    if (kept != i) {
      instances_[kept] = std::move(instances_[i]);
      std::copy_n(log_rows_.data() + i * d, d, log_rows_.data() + kept * d);
      log_bounds_[kept] = log_bounds_[i];
    }
    ++kept;
  }
  instances_.erase(instances_.begin() + static_cast<std::ptrdiff_t>(kept),
                   instances_.end());
  log_rows_.resize(kept * d);
  log_bounds_.resize(kept);
}

int64_t Scr::MinLivePlanUsage(uint64_t pinned_signature) const {
  int exclude = pinned_signature != 0
                    ? store_.FindLiveBySignature(pinned_signature)
                    : -1;
  int id = store_.MinUsagePlanId(exclude);
  if (id < 0) return -1;
  return store_.entry(id).total_usage.value();
}

bool Scr::EvictLfuPlan(int instance_id, uint64_t pinned_signature) {
  int exclude = pinned_signature != 0
                    ? store_.FindLiveBySignature(pinned_signature)
                    : -1;
  int victim = store_.MinUsagePlanId(exclude);
  if (victim < 0) return false;
  DropPlanAndEntries(victim, instance_id);
  return true;
}

int64_t Scr::EstimatedMemoryBytes() const {
  int64_t total = 0;
  for (int id : store_.LivePlanIds()) {
    const std::shared_ptr<const CachedPlan>& p = store_.entry(id).plan;
    total += static_cast<int64_t>(sizeof(CachedPlan));
    if (p->plan != nullptr) total += PlanMemoryBytes(*p->plan);
    total += p->program.memory_bytes();
  }
  total += NumInstancesStored() * InstanceEntryBytes(static_cast<int>(dims_));
  return total;
}

std::vector<PlanPtr> Scr::SnapshotPlans() const {
  std::vector<PlanPtr> out;
  for (int id : store_.LivePlanIds()) {
    out.push_back(store_.entry(id).plan->plan);
  }
  return out;
}

std::vector<Scr::SnapshotEntry> Scr::SnapshotInstances() const {
  // Map live plan ids to snapshot ordinals.
  std::map<int, int> ordinal_of;
  int ordinal = 0;
  for (int id : store_.LivePlanIds()) ordinal_of[id] = ordinal++;
  std::vector<SnapshotEntry> out;
  for (const auto& e : instances_) {
    auto it = ordinal_of.find(e.plan_id);
    if (it == ordinal_of.end()) continue;
    SnapshotEntry se;
    se.v = e.v;
    se.plan_ordinal = it->second;
    se.opt_cost = e.opt_cost;
    se.subopt = e.subopt;
    se.usage = e.usage.value();
    se.cost_check_disabled = e.cost_check_disabled.value();
    out.push_back(std::move(se));
  }
  return out;
}

Status Scr::Restore(const std::vector<PlanPtr>& plans,
                    const std::vector<SnapshotEntry>& entries) {
  if (store_.NumLive() != 0 || !instances_.empty()) {
    return Status::InvalidArgument(
        "Restore requires a freshly constructed (empty) cache");
  }
  std::vector<int> plan_ids;
  for (const auto& plan : plans) {
    if (plan == nullptr) return Status::InvalidArgument("null plan");
    OptimizationResult fake;
    fake.plan = plan;
    CachedPlan cached = MakeCachedPlan(fake);
    // Insert without the redundancy check (lambda_r < 1 disables it).
    PlanStore::StoreResult r = store_.StoreOrReuse(cached, {}, 0.0, -1.0,
                                                   /*engine=*/nullptr);
    plan_ids.push_back(r.plan_id);
  }
  for (const auto& se : entries) {
    if (se.plan_ordinal < 0 ||
        se.plan_ordinal >= static_cast<int>(plan_ids.size())) {
      return Status::InvalidArgument("instance entry has bad plan ordinal");
    }
    if (!(se.opt_cost > 0.0) || se.subopt < 1.0) {
      return Status::InvalidArgument("instance entry has bad cost fields");
    }
    // One template means one selectivity dimension; a mismatched entry is
    // corruption and does not fit the instance table.
    if (se.v.size() != entries.front().v.size()) {
      return Status::InvalidArgument(
          "instance entry has mismatched selectivity dimensions");
    }
    InstanceEntry e;
    e.v = se.v;
    e.plan_id = plan_ids[static_cast<size_t>(se.plan_ordinal)];
    e.opt_cost = se.opt_cost;
    e.subopt = se.subopt;
    e.usage = se.usage;
    e.cost_check_disabled = se.cost_check_disabled;
    store_.AddUsage(e.plan_id, se.usage);
    AppendEntry(std::move(e));
    cost_sum_ += se.opt_cost;
    ++cost_count_;
  }
  return Status::OK();
}

int Scr::DropRedundantPlans(EngineContext* engine) {
  int dropped = 0;
  // A copy: dropping a plan edits the store's live list.
  const std::span<const int> live = store_.LivePlanIds();
  const std::vector<int> live_ids(live.begin(), live.end());
  for (int plan_id : live_ids) {
    // Collect the instances served by this plan.
    std::vector<size_t> served;
    for (size_t i = 0; i < instances_.size(); ++i) {
      if (instances_[i].plan_id == plan_id) {
        served.push_back(i);
      }
    }
    // Each instance must have some *other* cached plan within its lambda
    // bound; record the best alternative per instance.
    struct Alt {
      int plan_id = -1;
      double subopt = 0.0;
    };
    std::vector<Alt> alts(served.size());
    bool all_covered = true;
    for (size_t s = 0; s < served.size() && all_covered; ++s) {
      const InstanceEntry& e = instances_[served[s]];
      double best = std::numeric_limits<double>::infinity();
      int best_id = -1;
      for (int other : store_.LivePlanIds()) {
        if (other == plan_id) continue;
        double c = engine->Recost(*store_.entry(other).plan, e.v);
        if (c < best) {
          best = c;
          best_id = other;
        }
      }
      double subopt = best / std::max(e.opt_cost, 1e-30);
      if (best_id >= 0 && subopt <= LambdaFor(e)) {
        alts[s] = Alt{best_id, subopt};
      } else {
        all_covered = false;
      }
    }
    if (!all_covered || served.empty()) continue;
    // Re-point the instances and drop the plan.
    for (size_t s = 0; s < served.size(); ++s) {
      InstanceEntry& e = instances_[served[s]];
      e.plan_id = alts[s].plan_id;
      e.subopt = alts[s].subopt;
      log_bounds_[served[s]] = std::log(LambdaEnvelope() / e.subopt);
      store_.AddUsage(alts[s].plan_id, e.usage.value());
    }
    store_.Drop(plan_id);
    ++dropped;
  }
  return dropped;
}

}  // namespace scrpqo
