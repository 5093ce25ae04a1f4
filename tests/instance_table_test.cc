// Scr's flat instance table decides exactly like the instance-list scan it
// replaced. The reference below is that scan: G*L per entry in insertion
// order, the first entry within lambda(e)/S a selectivity-check hit, every
// other enabled entry a cost-check candidate, candidates sorted by the
// cost-check order with table-position tie-breaks and cut to the cap, then
// the recost sweep. It reads the cache only through SnapshotInstances()
// and SnapshotPlans(), so it checks positions as decisions report them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "obs/ring_tracer.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "optimizer/recost.h"
#include "pqo/scr.h"
#include "workload/instance_gen.h"
#include "workload/runner.h"
#include "workload/schemas.h"
#include "workload/templates.h"

namespace scrpqo {
namespace {

/// What one reuse attempt decided, in the fields a decision event and a
/// PlanChoice report.
struct Decision {
  bool hit = false;
  DecisionOutcome outcome = DecisionOutcome::kOptimized;
  int matched = -1;
  double g = -1.0;
  double l = -1.0;
  double r = -1.0;
  double s = -1.0;
  double lambda = -1.0;
  int candidates = 0;
  int recosts = 0;
};

/// The list scan and sort, over a snapshot of the cache. AddCost replays
/// Scr's running mean of optimal costs (dynamic lambda's reference scale):
/// one call per optimization registered or entry restored, in order.
class ListScanReference {
 public:
  ListScanReference(const ScrOptions& options, EngineContext* engine)
      : opts_(options), engine_(engine) {}

  void AddCost(double cost) {
    cost_sum_ += cost;
    ++cost_count_;
  }

  double LambdaFor(const Scr::SnapshotEntry& e) const {
    if (!opts_.dynamic_lambda) return opts_.lambda;
    double c_ref = cost_count_ > 0
                       ? cost_sum_ / static_cast<double>(cost_count_)
                       : 1.0;
    c_ref = std::max(c_ref, 1e-12);
    return opts_.lambda_min + (opts_.lambda_max - opts_.lambda_min) *
                                  std::exp(-e.opt_cost / c_ref);
  }

  double Envelope() const {
    return opts_.dynamic_lambda
               ? opts_.lambda_min +
                     std::max(opts_.lambda_max - opts_.lambda_min, 0.0)
               : opts_.lambda;
  }

  Decision Decide(const std::vector<Scr::SnapshotEntry>& entries,
                  const std::vector<PlanPtr>& plans, const SVector& sv) {
    struct Candidate {
      double key;
      size_t entry;
      double gl;
      double l;
    };
    std::vector<Candidate> candidates;
    for (size_t i = 0; i < entries.size(); ++i) {
      const Scr::SnapshotEntry& e = entries[i];
      const GlFactors gl = ComputeGlFast(e.v, sv);
      if (gl.g * gl.l <= LambdaFor(e) / e.subopt) {
        Decision d;
        d.hit = true;
        d.outcome = DecisionOutcome::kSelCheckHit;
        d.matched = static_cast<int>(i);
        d.g = gl.g;
        d.l = gl.l;
        d.s = e.subopt;
        d.lambda = LambdaFor(e);
        return d;
      }
      if (opts_.enable_cost_check && !e.cost_check_disabled) {
        candidates.push_back(Candidate{0.0, i, gl.g * gl.l, gl.l});
      }
    }
    for (Candidate& c : candidates) {
      const Scr::SnapshotEntry& e = entries[c.entry];
      switch (opts_.cost_check_order) {
        case CostCheckOrder::kAscendingGl:
          c.key = c.gl;
          break;
        case CostCheckOrder::kDescendingRegionArea: {
          double area = 1.0;
          for (double s : e.v) area *= s;
          c.key = -area;
          break;
        }
        case CostCheckOrder::kDescendingUsage:
          c.key = -static_cast<double>(e.usage);
          break;
        case CostCheckOrder::kInsertionOrder:
          c.key = static_cast<double>(c.entry);
          break;
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.key < b.key || (a.key == b.key && a.entry < b.entry);
              });
    if (opts_.max_cost_check_candidates > 0 &&
        candidates.size() >
            static_cast<size_t>(opts_.max_cost_check_candidates)) {
      candidates.resize(static_cast<size_t>(opts_.max_cost_check_candidates));
    }
    Decision d;
    d.candidates = static_cast<int>(candidates.size());
    for (const Candidate& c : candidates) {
      const Scr::SnapshotEntry& e = entries[c.entry];
      const double cost = engine_->Recost(
          Compiled(plans[static_cast<size_t>(e.plan_ordinal)]), sv);
      ++d.recosts;
      const double r = cost / std::max(e.opt_cost, 1e-30);
      if (!std::isfinite(cost) || cost <= 0.0 || !std::isfinite(r)) continue;
      if (opts_.detect_violations) {
        const GlFactors gl = ComputeGlFast(e.v, sv);
        const double at_e = e.subopt * e.opt_cost;
        if (cost > 1.02 * gl.g * at_e || cost * 1.02 < at_e / c.l) continue;
      }
      if (r * c.l <= LambdaFor(e) / e.subopt) {
        d.hit = true;
        d.outcome = DecisionOutcome::kCostCheckHit;
        d.matched = static_cast<int>(c.entry);
        d.g = c.l > 0.0 ? c.gl / c.l : -1.0;
        d.l = c.l;
        d.r = r;
        d.s = e.subopt;
        d.lambda = LambdaFor(e);
        return d;
      }
    }
    return d;
  }

 private:
  const CachedPlan& Compiled(const PlanPtr& plan) {
    auto it = compiled_.find(plan);
    if (it == compiled_.end()) {
      OptimizationResult result;
      result.plan = plan;
      it = compiled_.emplace(plan, MakeCachedPlan(result)).first;
    }
    return it->second;
  }

  ScrOptions opts_;
  EngineContext* engine_;
  double cost_sum_ = 0.0;
  int64_t cost_count_ = 0;
  /// Keyed by the plan itself, which the map keeps alive, so an evicted
  /// plan's address is never reused under a stale entry.
  std::map<PlanPtr, CachedPlan> compiled_;
};

/// A d-dimensional RD2 template with a memoized instance pool.
struct Pool {
  explicit Pool(int d)
      : bt(BuildRd2TemplateWithDimensions(Db(), d)), optimizer(&bt.db->db) {
    InstanceGenOptions gen;
    gen.m = 150;
    gen.seed = 40 + static_cast<uint64_t>(d);
    instances = GenerateInstances(bt, gen);
    oracle = Oracle::Build(optimizer, instances);
  }

  static const BenchmarkDb& Db() {
    static const BenchmarkDb* db = [] {
      SchemaScale scale;
      scale.factor = 0.2;
      return new BenchmarkDb(BuildRd2(scale));
    }();
    return *db;
  }

  /// An engine whose optimizer calls read the memoized results.
  std::unique_ptr<EngineContext> Engine() const {
    auto engine = std::make_unique<EngineContext>(&bt.db->db, &optimizer);
    engine->SetOracle(
        [this](const WorkloadInstance& wi) { return oracle.result(wi.id); });
    return engine;
  }

  BoundTemplate bt;
  Optimizer optimizer;
  std::vector<WorkloadInstance> instances;
  Oracle oracle;
};

/// How many decisions of each kind a run compared, so a run that never
/// reaches a path fails instead of passing vacuously.
struct Tally {
  int sel_hits = 0;
  int cost_hits = 0;
  int misses = 0;
  /// Decisions whose candidate list was cut to the cap.
  int capped = 0;
};

/// Runs `wi` through `scr`'s reuse attempt and, on a miss, registers its
/// optimization (OnInstance's two halves, with the reference's decision
/// checked in between). Expected hits are appended to `want_hits`.
void DecideAndCompare(Scr* scr, ListScanReference* ref, const Pool& pool,
                      EngineContext* engine, const WorkloadInstance& wi,
                      std::vector<Decision>* want_hits, Tally* tally,
                      const std::string& where) {
  const std::vector<Scr::SnapshotEntry> entries = scr->SnapshotInstances();
  const std::vector<PlanPtr> plans = scr->SnapshotPlans();
  for (const Scr::SnapshotEntry& e : entries) {
    ASSERT_LE(ref->LambdaFor(e), ref->Envelope()) << where;
  }
  const Decision want = ref->Decide(entries, plans, wi.svector);
  if (want.outcome == DecisionOutcome::kSelCheckHit) {
    ++tally->sel_hits;
  } else {
    ++(want.hit ? tally->cost_hits : tally->misses);
    const size_t enabled = static_cast<size_t>(std::count_if(
        entries.begin(), entries.end(),
        [](const Scr::SnapshotEntry& e) { return !e.cost_check_disabled; }));
    if (static_cast<size_t>(want.candidates) < enabled) ++tally->capped;
  }
  PlanChoice choice;
  const bool hit = scr->TryReuse(wi, engine, &choice);
  ASSERT_EQ(hit, want.hit) << where << " instance " << wi.id;
  if (want.outcome != DecisionOutcome::kSelCheckHit) {
    EXPECT_EQ(choice.cost_check_candidates_in_get_plan, want.candidates)
        << where << " instance " << wi.id;
    EXPECT_EQ(choice.recost_calls_in_get_plan, want.recosts)
        << where << " instance " << wi.id;
  }
  if (hit) {
    want_hits->push_back(want);
    return;
  }
  std::shared_ptr<const OptimizationResult> result =
      pool.oracle.result(wi.id);
  ref->AddCost(result->cost);
  scr->RegisterOptimization(wi, result, engine);
}

/// The traced hits equal the reference's, field for field and in order.
void ExpectHitsMatch(const std::vector<DecisionEvent>& events,
                     const std::vector<Decision>& want, double envelope,
                     const std::string& where) {
  std::vector<const DecisionEvent*> got;
  for (const DecisionEvent& ev : events) {
    if (ev.outcome == DecisionOutcome::kSelCheckHit ||
        ev.outcome == DecisionOutcome::kCostCheckHit) {
      got.push_back(&ev);
    }
  }
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    const DecisionEvent& ev = *got[i];
    const Decision& d = want[i];
    EXPECT_EQ(ev.outcome, d.outcome) << where << " hit " << i;
    EXPECT_EQ(ev.matched_entry, d.matched) << where << " hit " << i;
    EXPECT_EQ(ev.g, d.g) << where << " hit " << i;
    EXPECT_EQ(ev.l, d.l) << where << " hit " << i;
    EXPECT_EQ(ev.r, d.r) << where << " hit " << i;
    EXPECT_EQ(ev.subopt, d.s) << where << " hit " << i;
    EXPECT_EQ(ev.lambda, d.lambda) << where << " hit " << i;
    EXPECT_LE(ev.lambda, envelope) << where << " hit " << i;
    if (d.outcome == DecisionOutcome::kCostCheckHit) {
      EXPECT_EQ(ev.candidates_scanned, d.candidates) << where << " hit " << i;
      EXPECT_EQ(ev.recost_calls, d.recosts) << where << " hit " << i;
    }
  }
}

class ScrInstanceTableTest : public ::testing::TestWithParam<int> {};

TEST_P(ScrInstanceTableTest, DecidesLikeTheListScan) {
  // d from 1 to 8 covers ComputeGlFast's 4-lane and tail paths. Per d:
  // static and dynamic lambda x the four orders x caps 0, 1, 8 x no
  // budget and a budget of 3 plans that forces evictions. Each cache is
  // grown decision by decision, then restored from its snapshot with
  // every third entry disabled and probed again while LFU evictions
  // compact it.
  const int d = GetParam();
  const Pool pool(d);
  const std::vector<WorkloadInstance>& all = pool.instances;
  const size_t grow = 90;
  Tally tally;
  for (bool dynamic : {false, true}) {
    for (CostCheckOrder order :
         {CostCheckOrder::kAscendingGl, CostCheckOrder::kDescendingRegionArea,
          CostCheckOrder::kDescendingUsage,
          CostCheckOrder::kInsertionOrder}) {
      for (int cap : {0, 1, 8}) {
        for (int budget : {0, 3}) {
          ScrOptions opts;
          opts.lambda = 1.3;
          opts.dynamic_lambda = dynamic;
          opts.lambda_min = 1.1;
          opts.lambda_max = 3.0;
          opts.cost_check_order = order;
          opts.max_cost_check_candidates = cap;
          opts.plan_budget = budget;
          const std::string where =
              "d=" + std::to_string(d) + (dynamic ? " dyn" : " static") +
              " order=" + std::to_string(static_cast<int>(order)) +
              " cap=" + std::to_string(cap) +
              " budget=" + std::to_string(budget);
          std::unique_ptr<EngineContext> engine = pool.Engine();
          std::unique_ptr<EngineContext> ref_engine = pool.Engine();

          // Grow: every decision against the reference.
          RingTracer tracer(1 << 12);
          Scr scr(opts);
          scr.SetObs(ObsHooks{&tracer, nullptr});
          ListScanReference ref(opts, ref_engine.get());
          std::vector<Decision> want_hits;
          for (size_t i = 0; i < grow; ++i) {
            DecideAndCompare(&scr, &ref, pool, engine.get(), all[i],
                             &want_hits, &tally, where + " grow");
            if (HasFatalFailure()) return;
          }
          ExpectHitsMatch(tracer.Snapshot(), want_hits, ref.Envelope(),
                          where + " grow");

          // Restore with disabled entries, then probe under evictions.
          std::vector<Scr::SnapshotEntry> entries = scr.SnapshotInstances();
          for (size_t i = 0; i < entries.size(); i += 3) {
            entries[i].cost_check_disabled = true;
          }
          RingTracer restored_tracer(1 << 12);
          Scr restored(opts);
          ASSERT_TRUE(restored.Restore(scr.SnapshotPlans(), entries).ok());
          restored.SetObs(ObsHooks{&restored_tracer, nullptr});
          ListScanReference restored_ref(opts, ref_engine.get());
          for (const Scr::SnapshotEntry& e : entries) {
            restored_ref.AddCost(e.opt_cost);
          }
          std::vector<Decision> restored_hits;
          for (size_t i = 0; i < all.size(); ++i) {
            if (i % 15 == 14) (void)restored.EvictLfuPlan(-1);
            DecideAndCompare(&restored, &restored_ref, pool, engine.get(),
                             all[(i * 7) % all.size()], &restored_hits,
                             &tally, where + " restored");
            if (HasFatalFailure()) return;
          }
          ExpectHitsMatch(restored_tracer.Snapshot(), restored_hits,
                          restored_ref.Envelope(), where + " restored");
        }
      }
    }
  }
  EXPECT_GT(tally.sel_hits, 0);
  EXPECT_GT(tally.cost_hits, 0);
  EXPECT_GT(tally.misses, 0);
  EXPECT_GT(tally.capped, 0);
}

INSTANTIATE_TEST_SUITE_P(Dims, ScrInstanceTableTest, ::testing::Range(1, 9));

TEST(ScrInstanceTableBoundTest, EntryExactlyOnTheBoundHits) {
  // lambda = 2, S = 1 and a query with one selectivity exactly double (or
  // half) the entry's: G*L is exactly 2.0, so the exact test passes and the
  // log-space prefilter must not have skipped the entry, however the logs
  // round. With the cost check off, a skipped entry is a plain miss.
  const Pool pool(4);
  const std::shared_ptr<const OptimizationResult> result =
      pool.oracle.result(0);
  EngineContext engine(&pool.bt.db->db, &pool.optimizer);
  Pcg32 rng(2017);
  int hits = 0;
  for (int d = 1; d <= 8; ++d) {
    for (int trial = 0; trial < 200; ++trial) {
      Scr::SnapshotEntry e;
      e.plan_ordinal = 0;
      e.opt_cost = 1.0;
      e.subopt = 1.0;
      e.usage = 1;
      for (int k = 0; k < d; ++k) {
        e.v.push_back(rng.UniformDouble(1e-6, 0.5));
      }
      WorkloadInstance wi;
      wi.id = trial;
      wi.svector = e.v;
      const size_t k = static_cast<size_t>(trial % d);
      if (trial % 2 == 0) {
        wi.svector[k] *= 2.0;
      } else {
        e.v[k] *= 2.0;
      }
      const GlFactors gl = ComputeGlFast(e.v, wi.svector);
      ASSERT_EQ(gl.g * gl.l, 2.0);

      // A selectivity-check hit never recosts, so the 4-d plan serves any d.
      Scr scr(ScrOptions{.lambda = 2.0, .enable_cost_check = false});
      ASSERT_TRUE(scr.Restore({result->plan}, {e}).ok());
      PlanChoice choice;
      ASSERT_TRUE(scr.TryReuse(wi, &engine, &choice))
          << "d=" << d << " trial " << trial;
      EXPECT_EQ(choice.recost_calls_in_get_plan, 0);
      ++hits;
    }
  }
  EXPECT_EQ(hits, 8 * 200);
}

TEST(ScrInstanceTableBoundTest, QueryOfAnotherDimensionMatchesNothing) {
  // One cache serves one template: a query whose selectivity vector has
  // another dimension matches no entry and has no cost-check candidates
  // (the list scan read past a shorter vector).
  const Pool pool(2);
  EngineContext engine(&pool.bt.db->db, &pool.optimizer);
  Scr::SnapshotEntry e;
  e.v = {0.5, 0.5};
  e.plan_ordinal = 0;
  e.opt_cost = 1.0;
  e.usage = 1;
  Scr scr(ScrOptions{.lambda = 2.0});
  ASSERT_TRUE(scr.Restore({pool.oracle.result(0)->plan}, {e}).ok());
  for (const SVector& sv : {SVector{0.5}, SVector{0.5, 0.5, 0.5}}) {
    WorkloadInstance wi;
    wi.svector = sv;
    PlanChoice choice;
    EXPECT_FALSE(scr.TryReuse(wi, &engine, &choice)) << sv.size();
    EXPECT_EQ(choice.cost_check_candidates_in_get_plan, 0) << sv.size();
  }
  WorkloadInstance same;
  same.svector = {0.5, 0.5};
  PlanChoice choice;
  EXPECT_TRUE(scr.TryReuse(same, &engine, &choice));
}

TEST(ScrCostCheckOrderTest, ExactGlTiesGoToTheEarlierEntry) {
  // Query (a, b) and two entries, (a/2, b) then (a, 2b): both have G*L = 2
  // exactly, so under lambda = 1.5 both fail the selectivity check and tie
  // in Section 6.2's ascending-G*L order, which breaks ties by table
  // position. (a, b) is picked so that rounding puts the later entry's L1
  // log-distance below the earlier one's: ordered by distance alone, the
  // later entry would be recosted first, and kept alone under cap 1. Both
  // entries pass the cost check inside the Appendix-G bounds, so the first
  // one recosted serves the query.
  const Pool pool(2);
  const std::shared_ptr<const OptimizationResult> result =
      pool.oracle.result(0);
  EngineContext engine(&pool.bt.db->db, &pool.optimizer);
  double a = 0.0;
  double b = 0.0;
  for (int i = 1; i <= 100 && a == 0.0; ++i) {
    for (int j = 1; j <= 50; ++j) {
      // The distances as Scr computes them: each entry differs from the
      // query in one coordinate.
      const double qa = 0.01 * i;
      const double qb = 0.01 * j;
      const double earlier = std::fabs(std::log(qa) - std::log(qa / 2.0));
      const double later = std::fabs(std::log(qb) - std::log(2.0 * qb));
      if (later < earlier) {
        a = qa;
        b = qb;
        break;
      }
    }
  }
  ASSERT_GT(a, 0.0) << "no grid point where rounding favours the later entry";
  const SVector query = {a, b};
  ASSERT_EQ(ComputeGlFast({a / 2.0, b}, query).g, 2.0);
  ASSERT_EQ(ComputeGlFast({a / 2.0, b}, query).l, 1.0);
  ASSERT_EQ(ComputeGlFast({a, 2.0 * b}, query).g, 1.0);
  ASSERT_EQ(ComputeGlFast({a, 2.0 * b}, query).l, 2.0);

  // The plan's cost at the query is C. The earlier entry (G = 2, L = 1,
  // optimal cost C) sees R = 1; the later one (G = 1, L = 2, optimal cost
  // 1.4 C) sees R = 1/1.4, so R * L is 1 and 1.43, both within 1.5, and
  // both recosts lie inside [S * C_e / L, G * S * C_e].
  OptimizationResult compiled;
  compiled.plan = result->plan;
  const double cost = engine.Recost(MakeCachedPlan(compiled), query);
  ASSERT_GT(cost, 0.0);
  std::vector<Scr::SnapshotEntry> entries(2);
  entries[0].v = {a / 2.0, b};
  entries[0].opt_cost = cost;
  entries[1].v = {a, 2.0 * b};
  entries[1].opt_cost = 1.4 * cost;
  for (Scr::SnapshotEntry& e : entries) {
    e.plan_ordinal = 0;
    e.usage = 1;
  }

  for (int cap : {0, 1, 8}) {
    Scr scr(ScrOptions{.lambda = 1.5, .max_cost_check_candidates = cap});
    ASSERT_TRUE(scr.Restore({result->plan}, entries).ok());
    RingTracer tracer(1 << 4);
    scr.SetObs(ObsHooks{&tracer, nullptr});
    WorkloadInstance wi;
    wi.svector = query;
    PlanChoice choice;
    ASSERT_TRUE(scr.TryReuse(wi, &engine, &choice)) << "cap " << cap;
    EXPECT_EQ(choice.cost_check_candidates_in_get_plan, cap == 1 ? 1 : 2)
        << "cap " << cap;
    EXPECT_EQ(choice.recost_calls_in_get_plan, 1) << "cap " << cap;
    const std::vector<DecisionEvent> events = tracer.Snapshot();
    ASSERT_EQ(events.size(), 1u) << "cap " << cap;
    EXPECT_EQ(events[0].outcome, DecisionOutcome::kCostCheckHit);
    EXPECT_EQ(events[0].matched_entry, 0) << "cap " << cap;
    EXPECT_EQ(events[0].l, 1.0) << "cap " << cap;
  }
}

}  // namespace
}  // namespace scrpqo
