#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "obs/ring_tracer.h"
#include "pqo/pqo_manager.h"
#include "query/query_instance.h"
#include "tests/multi_template.h"
#include "tests/test_util.h"

namespace scrpqo {
namespace {

class PqoManagerTest : public ::testing::Test {
 protected:
  PqoManagerTest()
      : db_(testing::MakeSmallDatabase(20000, 500)),
        join_tmpl_(testing::MakeJoinTemplate()),
        scan_tmpl_(testing::MakeScanTemplate()),
        optimizer_(&db_) {}

  WorkloadInstance JoinWi(int id, double s0, double s1) {
    WorkloadInstance wi;
    wi.id = id;
    wi.instance = InstanceForSelectivities(db_, *join_tmpl_, {s0, s1});
    wi.svector = ComputeSelectivityVector(db_, wi.instance);
    return wi;
  }

  WorkloadInstance ScanWi(int id, double s0) {
    WorkloadInstance wi;
    wi.id = id;
    wi.instance = InstanceForSelectivities(db_, *scan_tmpl_, {s0});
    wi.svector = ComputeSelectivityVector(db_, wi.instance);
    return wi;
  }

  Database db_;
  std::shared_ptr<QueryTemplate> join_tmpl_;
  std::shared_ptr<QueryTemplate> scan_tmpl_;
  Optimizer optimizer_;
};

TEST_F(PqoManagerTest, SeparatesTemplates) {
  PqoManager mgr(PqoManagerOptions{});
  EngineContext engine(&db_, &optimizer_);
  mgr.OnInstance("join", JoinWi(0, 0.3, 0.3), &engine);
  mgr.OnInstance("scan", ScanWi(1, 0.4), &engine);
  EXPECT_EQ(mgr.NumTemplates(), 2);
  EXPECT_GE(mgr.TotalPlansCached(), 2);
}

TEST_F(PqoManagerTest, ReusesWithinTemplate) {
  PqoManager mgr(PqoManagerOptions{});
  EngineContext engine(&db_, &optimizer_);
  PlanChoice a = mgr.OnInstance("join", JoinWi(0, 0.3, 0.3), &engine);
  PlanChoice b = mgr.OnInstance("join", JoinWi(1, 0.31, 0.31), &engine);
  EXPECT_TRUE(a.optimized);
  EXPECT_FALSE(b.optimized);
  EXPECT_EQ(a.plan->signature, b.plan->signature);
}

TEST_F(PqoManagerTest, DefaultLambdaApplied) {
  PqoManagerOptions opts;
  opts.default_lambda = 1.5;
  PqoManager mgr(opts);
  EngineContext engine(&db_, &optimizer_);
  mgr.OnInstance("join", JoinWi(0, 0.3, 0.3), &engine);
  EXPECT_EQ(mgr.LambdaFor("join"), 1.5);
  EXPECT_EQ(mgr.LambdaFor("unknown"), 0.0);
}

TEST_F(PqoManagerTest, WarmupOptimizesFirstInstances) {
  PqoManagerOptions opts;
  opts.warmup_instances = 5;
  PqoManager mgr(opts);
  EngineContext engine(&db_, &optimizer_);
  Pcg32 rng(3);
  for (int i = 0; i < 5; ++i) {
    PlanChoice c = mgr.OnInstance(
        "join",
        JoinWi(i, rng.UniformDouble(0.1, 0.9), rng.UniformDouble(0.1, 0.9)),
        &engine);
    EXPECT_TRUE(c.optimized) << "warm-up instance " << i;
  }
  EXPECT_EQ(engine.num_optimizer_calls(), 5);
  // Post warm-up, a repeat is served from cache... once it is re-learned.
  PlanChoice first_after = mgr.OnInstance("join", JoinWi(5, 0.3, 0.3),
                                          &engine);
  EXPECT_TRUE(first_after.optimized);  // fresh cache starts empty
  PlanChoice reuse = mgr.OnInstance("join", JoinWi(6, 0.3, 0.3), &engine);
  EXPECT_FALSE(reuse.optimized);
  EXPECT_GT(mgr.LambdaFor("join"), 1.0);
}

TEST_F(PqoManagerTest, WarmupPicksLambdaByCost) {
  // The join template's instances are expensive (cost >> threshold) =>
  // tight lambda; a scan over the tiny dimension table is cheap => loose
  // lambda (one optimizer call outweighs any plan-quality gain there).
  auto cheap_tmpl = std::make_shared<QueryTemplate>(
      "cheap", std::vector<std::string>{"dim"});
  PredicateTemplate p;
  p.table_index = 0;
  p.column = "d_attr";
  p.op = CompareOp::kLe;
  p.param_slot = 0;
  ASSERT_TRUE(cheap_tmpl->AddPredicate(std::move(p)).ok());

  PqoManagerOptions opts;
  opts.warmup_instances = 3;
  opts.lambda_tight = 1.1;
  opts.lambda_loose = 2.0;
  PqoManager mgr(opts);
  EngineContext engine(&db_, &optimizer_);
  for (int i = 0; i < 3; ++i) {
    mgr.OnInstance("join", JoinWi(i, 0.5, 0.5), &engine);
    WorkloadInstance cheap;
    cheap.id = 100 + i;
    cheap.instance = InstanceForSelectivities(db_, *cheap_tmpl, {0.5});
    cheap.svector = ComputeSelectivityVector(db_, cheap.instance);
    mgr.OnInstance("cheap", cheap, &engine);
  }
  EXPECT_EQ(mgr.LambdaFor("join"), 1.1);
  EXPECT_EQ(mgr.LambdaFor("cheap"), 2.0);
}

TEST_F(PqoManagerTest, LambdaDuringWarmupIsOne) {
  // Contract (see LambdaFor's header doc): warm-up serves every instance
  // its freshly optimized plan, so the bound in force is exactly 1 — a
  // return of 0.0 is reserved for never-seen templates.
  PqoManagerOptions opts;
  opts.warmup_instances = 5;
  PqoManager mgr(opts);
  EngineContext engine(&db_, &optimizer_);
  EXPECT_EQ(mgr.LambdaFor("join"), 0.0);  // never seen
  mgr.OnInstance("join", JoinWi(0, 0.3, 0.3), &engine);
  EXPECT_EQ(mgr.LambdaFor("join"), 1.0);  // warming up
  for (int i = 1; i < 5; ++i) {
    mgr.OnInstance("join", JoinWi(i, 0.3, 0.3), &engine);
  }
  EXPECT_GT(mgr.LambdaFor("join"), 1.0);  // warm-up done, real bound
}

TEST_F(PqoManagerTest, WarmupWithNoObservedCostFallsBackToDefault) {
  // Every warm-up optimize fails (the oracle produces no usable cost), so
  // there is no average to divide by — FinishWarmup must fall back to
  // default_lambda instead of dividing by zero seen instances.
  PqoManagerOptions opts;
  opts.warmup_instances = 3;
  opts.default_lambda = 1.7;
  PqoManager mgr(opts);
  RingTracer tracer(64);
  MetricsRegistry registry;
  mgr.SetObs(ObsHooks{&tracer, &registry});
  EngineContext engine(&db_, &optimizer_);
  engine.SetOracle([](const WorkloadInstance&) {
    auto r = std::make_shared<OptimizationResult>();
    r->cost = std::numeric_limits<double>::quiet_NaN();
    return r;
  });
  for (int i = 0; i < 3; ++i) {
    PlanChoice c = mgr.OnInstance("join", JoinWi(i, 0.3, 0.3), &engine);
    // A failed warm-up optimize yields no plan, so the decision is
    // explicitly degraded (no guarantee claimed) rather than "optimized".
    EXPECT_EQ(c.plan, nullptr);
    EXPECT_TRUE(c.degraded);
    EXPECT_FALSE(c.optimized);
  }
  EXPECT_EQ(mgr.LambdaFor("join"), 1.7);
  EXPECT_EQ(mgr.warmup_fallbacks(), 1);
  EXPECT_EQ(registry.Snapshot().CounterValue("pqo_manager.warmup_fallbacks"),
            1);
  EXPECT_EQ(registry.Snapshot().CounterValue("pqo.degraded_decisions"), 3);
  // The fallback is traced with the template it happened on.
  bool traced = false;
  for (const DecisionEvent& e : tracer.Snapshot()) {
    if (e.template_key.str() == "join" &&
        e.technique.str().find("warmup-fallback") != std::string::npos) {
      traced = true;
    }
  }
  EXPECT_TRUE(traced);

  // The template recovered: with a working optimizer it serves normally.
  engine.SetOracle(nullptr);
  PlanChoice c = mgr.OnInstance("join", JoinWi(10, 0.3, 0.3), &engine);
  EXPECT_TRUE(c.optimized);
  ASSERT_NE(c.plan, nullptr);
}

TEST_F(PqoManagerTest, GlobalBudgetEnforcedAcrossTemplates) {
  PqoManagerOptions opts;
  opts.global_plan_budget = 3;
  PqoManager mgr(opts);
  RingTracer tracer(1 << 12);
  MetricsRegistry registry;
  mgr.SetObs(ObsHooks{&tracer, &registry});
  EngineContext engine(&db_, &optimizer_);
  Pcg32 rng(11);
  const std::string keys[3] = {"t0", "t1", "t2"};
  for (int i = 0; i < 120; ++i) {
    mgr.OnInstance(keys[i % 3],
                   JoinWi(i, rng.UniformDouble(0.005, 0.95),
                          rng.UniformDouble(0.005, 0.95)),
                   &engine);
    EXPECT_LE(mgr.TotalPlansCached(), 3) << "after instance " << i;
  }
  EXPECT_EQ(mgr.NumTemplates(), 3);
  EXPECT_GT(mgr.global_evictions(), 0);
  EXPECT_EQ(registry.Snapshot().CounterValue("pqo_manager.global_evictions"),
            mgr.global_evictions());
  // Evictions surface as kEvicted events tagged with their template.
  int64_t evicted_events = 0;
  for (const DecisionEvent& e : tracer.Snapshot()) {
    if (e.outcome == DecisionOutcome::kEvicted) {
      ++evicted_events;
      EXPECT_FALSE(e.template_key.empty());
    }
  }
  EXPECT_GT(evicted_events, 0);
}

TEST_F(PqoManagerTest, GlobalMemoryBudgetBoundsFootprint) {
  PqoManagerOptions opts;
  opts.global_memory_bytes = 64 * 1024;
  PqoManager mgr(opts);
  EngineContext engine(&db_, &optimizer_);
  Pcg32 rng(13);
  const std::string keys[4] = {"t0", "t1", "t2", "t3"};
  for (int i = 0; i < 80; ++i) {
    mgr.OnInstance(keys[i % 4],
                   JoinWi(i, rng.UniformDouble(0.005, 0.95),
                          rng.UniformDouble(0.005, 0.95)),
                   &engine);
  }
  EXPECT_LE(mgr.TotalMemoryBytes(), 64 * 1024);
}

TEST_F(PqoManagerTest, InvalidateDropsCache) {
  PqoManager mgr(PqoManagerOptions{});
  EngineContext engine(&db_, &optimizer_);
  mgr.OnInstance("join", JoinWi(0, 0.3, 0.3), &engine);
  EXPECT_EQ(mgr.NumTemplates(), 1);
  mgr.InvalidateTemplate("join");
  EXPECT_EQ(mgr.NumTemplates(), 0);
  // Next instance re-optimizes.
  PlanChoice c = mgr.OnInstance("join", JoinWi(1, 0.3, 0.3), &engine);
  EXPECT_TRUE(c.optimized);
}

TEST_F(PqoManagerTest, PlanBudgetPropagates) {
  PqoManagerOptions opts;
  opts.plan_budget = 2;
  PqoManager mgr(opts);
  EngineContext engine(&db_, &optimizer_);
  Pcg32 rng(7);
  for (int i = 0; i < 150; ++i) {
    mgr.OnInstance("join",
                   JoinWi(i, rng.UniformDouble(0.005, 0.95),
                          rng.UniformDouble(0.005, 0.95)),
                   &engine);
  }
  EXPECT_LE(mgr.TotalPlansCached(), 2);
}

TEST_F(PqoManagerTest, StatuszJsonReportsTemplatesAndTotals) {
  PqoManagerOptions opts;
  opts.default_lambda = 1.5;
  opts.global_plan_budget = 10;
  PqoManager mgr(opts);
  EngineContext engine(&db_, &optimizer_);
  mgr.OnInstance("join", JoinWi(0, 0.3, 0.3), &engine);
  mgr.OnInstance("scan", ScanWi(1, 0.4), &engine);
  mgr.FlushAll();

  std::string json = mgr.StatuszJson();
  // Per-template rows with the effective lambda in force.
  EXPECT_NE(json.find("\"key\":\"join\""), std::string::npos);
  EXPECT_NE(json.find("\"key\":\"scan\""), std::string::npos);
  EXPECT_NE(json.find("\"lambda\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"warming_up\":false"), std::string::npos);
  // Totals include the configured budgets and cross-run counters.
  EXPECT_NE(json.find("\"totals\":{\"templates\":2"), std::string::npos);
  EXPECT_NE(json.find("\"global_plan_budget\":10"), std::string::npos);
  EXPECT_NE(json.find("\"trace_ring_drops\":0"), std::string::npos);
  // It round-trips through the strict JSONL-style field scanner the same
  // way /statusz consumers will read it: sanity-check plan totals agree
  // with the manager's own accessors.
  EXPECT_NE(json.find("\"plans\":" + std::to_string(mgr.TotalPlansCached())),
            std::string::npos);
}

TEST_F(PqoManagerTest, StatuszJsonEscapesTemplateKeys) {
  PqoManager mgr(PqoManagerOptions{});
  EngineContext engine(&db_, &optimizer_);
  mgr.OnInstance("select \"x\"\nfrom t", JoinWi(0, 0.3, 0.3), &engine);
  std::string json = mgr.StatuszJson();
  EXPECT_NE(json.find("select \\\"x\\\"\\nfrom t"), std::string::npos);
  EXPECT_EQ(json.find('\n'), json.size() - 1);  // only the trailing one
}

/// What a decision served, for comparing two caches' streams.
struct Served {
  bool optimized = false;
  bool degraded = false;
  uint64_t signature = 0;  // 0: no plan

  bool operator==(const Served&) const = default;
};

Served ServedBy(const PlanChoice& c) {
  return Served{c.optimized, c.degraded,
                c.plan != nullptr ? c.plan->signature : 0};
}

/// Every field but the template stamp and the timings.
void ExpectSameDecision(const DecisionEvent& a, const DecisionEvent& b) {
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.instance_id, b.instance_id);
  EXPECT_EQ(a.technique, b.technique);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.matched_entry, b.matched_entry);
  EXPECT_EQ(a.g, b.g);
  EXPECT_EQ(a.l, b.l);
  EXPECT_EQ(a.r, b.r);
  EXPECT_EQ(a.subopt, b.subopt);
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.candidates_scanned, b.candidates_scanned);
  EXPECT_EQ(a.recost_calls, b.recost_calls);
  EXPECT_EQ(a.dropped, b.dropped);
}

TEST(PqoManagerInlineTest, DecidesLikeStandaloneScr) {
  // use_async = false runs manageCache inline under the cache's exclusive
  // lock. With one client it must decide, serve and trace exactly as one
  // standalone Scr per template: the same events and the same served
  // plans. A 3-plan budget evicts, the default lambda_r discards redundant
  // plans, and every 7th optimizer call fails (re-armed for each side, so
  // both see the same failures), which exercises the degraded fallback
  // and the retries.
  constexpr int kTemplates = 3;
  constexpr int kInstances = 60;
  constexpr int kDecisions = 600;
  PqoManagerOptions opts;
  opts.plan_budget = 3;
  TemplateFleet fleet(kTemplates, kInstances, /*seed=*/7, {2, 3, 4});
  const std::vector<ServedTemplate>& served = fleet.served();
  std::vector<std::pair<size_t, size_t>> stream;  // (template, instance)
  Pcg32 rng(17);
  for (int i = 0; i < kDecisions; ++i) {
    stream.emplace_back(
        static_cast<size_t>(rng.UniformInt(0, kTemplates - 1)),
        static_cast<size_t>(rng.UniformInt(0, kInstances - 1)));
  }
  const auto arm_failures = [] {
    FaultRegistry::Global().DisarmAll();
    FaultRegistry::Global().Arm(
        faults::kOptimizeFail,
        FaultSpec{.trigger = FaultTrigger::kEveryNth, .nth = 7});
  };

  arm_failures();
  PqoManager mgr(opts);
  RingTracer mgr_tracer(1 << 14);
  mgr.SetObs(ObsHooks{&mgr_tracer, nullptr});
  std::vector<Served> via_manager;
  for (const auto& [t, i] : stream) {
    const ServedTemplate& st = served[t];
    via_manager.push_back(
        ServedBy(mgr.OnInstance(st.key, (*st.instances)[i], st.engine)));
  }

  arm_failures();
  RingTracer scr_tracer(1 << 14);
  std::vector<std::unique_ptr<Scr>> scrs;
  for (int t = 0; t < kTemplates; ++t) {
    scrs.push_back(std::make_unique<Scr>(ScrOptions{
        .lambda = opts.default_lambda, .plan_budget = opts.plan_budget}));
    scrs.back()->SetObs(ObsHooks{&scr_tracer, nullptr});
  }
  std::vector<Served> via_scr;
  for (const auto& [t, i] : stream) {
    const ServedTemplate& st = served[t];
    via_scr.push_back(
        ServedBy(scrs[t]->OnInstance((*st.instances)[i], st.engine)));
  }
  FaultRegistry::Global().DisarmAll();

  ASSERT_EQ(via_manager.size(), via_scr.size());
  for (size_t d = 0; d < via_scr.size(); ++d) {
    EXPECT_EQ(via_manager[d], via_scr[d]) << "decision " << d;
  }
  const std::vector<DecisionEvent> a = mgr_tracer.Snapshot();
  const std::vector<DecisionEvent> b = scr_tracer.Snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (size_t e = 0; e < a.size(); ++e) {
    SCOPED_TRACE(e);
    ExpectSameDecision(a[e], b[e]);
  }
  // The stream exercised what the comparison is for.
  const auto count = [&](DecisionOutcome outcome) {
    int64_t n = 0;
    for (const DecisionEvent& e : b) n += e.outcome == outcome ? 1 : 0;
    return n;
  };
  EXPECT_GT(count(DecisionOutcome::kRedundantDiscard), 0);
  EXPECT_GT(count(DecisionOutcome::kEvicted), 0);
  EXPECT_GT(count(DecisionOutcome::kDegraded), 0);
  EXPECT_GT(count(DecisionOutcome::kCostCheckHit), 0);
}

}  // namespace
}  // namespace scrpqo
