// Chaos suite for the hardened serving path: drives Scr / AsyncScr /
// PqoManager traffic while the fault-injection registry
// (common/fault_injection.h) fails optimizer calls, poisons recost
// results, drops async manageCache tasks, corrupts snapshots and fails
// cold-path allocations. Asserts the degradation contract:
//
//   - no crash, and every instance still gets a plan wherever one exists;
//   - decisions that kept the lambda guarantee audit clean (zero
//     violations among non-degraded decisions);
//   - decisions that dropped the guarantee are traced as kDegraded with
//     no lambda claim;
//   - once faults stop, serving converges back to normal.
//
// CI runs this file under ASan and TSan across a fixed seed sweep
// (SCRPQO_FAULT_SEED); the fixture honors that variable so each sweep
// point replays a different deterministic fault schedule.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "obs/metrics_registry.h"
#include "obs/ring_tracer.h"
#include "obs/trace.h"
#include "pqo/async_scr.h"
#include "pqo/cache_persistence.h"
#include "query/query_instance.h"
#include "tests/multi_template.h"
#include "tests/test_util.h"
#include "verify/guarantee_audit.h"

namespace scrpqo {
namespace {

int64_t CountOutcome(const std::vector<DecisionEvent>& events,
                     DecisionOutcome outcome) {
  int64_t n = 0;
  for (const DecisionEvent& e : events) {
    if (e.outcome == outcome) ++n;
  }
  return n;
}

class ChaosServingTest : public ::testing::Test {
 protected:
  ChaosServingTest()
      : db_(testing::MakeSmallDatabase(20000, 500)),
        tmpl_(testing::MakeJoinTemplate()),
        optimizer_(&db_) {
    FaultRegistry::Global().DisarmAll();
    FaultRegistry::Global().SetSeed(SweepSeed());
  }

  void TearDown() override {
    FaultRegistry::Global().DisarmAll();
    FaultRegistry::Global().SetSeed(0);
  }

  /// The chaos CI job sweeps SCRPQO_FAULT_SEED; default is the paper's
  /// publication date so local runs are deterministic too.
  static uint64_t SweepSeed() {
    const char* env = std::getenv("SCRPQO_FAULT_SEED");
    if (env != nullptr && *env != '\0') {
      return static_cast<uint64_t>(std::atoll(env));
    }
    return 20170514;
  }

  WorkloadInstance MakeWi(int id, double s0, double s1) {
    WorkloadInstance wi;
    wi.id = id;
    wi.instance = InstanceForSelectivities(db_, *tmpl_, {s0, s1});
    wi.svector = ComputeSelectivityVector(db_, wi.instance);
    return wi;
  }

  void Warm(PqoTechnique* t, EngineContext* engine, int m = 60,
            uint64_t stream_seed = 5) {
    Pcg32 rng(stream_seed);
    for (int i = 0; i < m; ++i) {
      PlanChoice c = t->OnInstance(MakeWi(i, rng.UniformDouble(0.005, 0.95),
                                          rng.UniformDouble(0.005, 0.95)),
                                   engine);
      ASSERT_NE(c.plan, nullptr);
    }
  }

  Database db_;
  std::shared_ptr<QueryTemplate> tmpl_;
  Optimizer optimizer_;
};

TEST_F(ChaosServingTest, OptimizerFailureFallsBackToCachedPlanNoGuarantee) {
  Scr scr(ScrOptions{.lambda = 1.5});
  RingTracer tracer(1 << 14);
  MetricsRegistry registry;
  scr.SetObs(ObsHooks{&tracer, &registry});
  EngineContext engine(&db_, &optimizer_);
  Warm(&scr, &engine);

  // From here every optimizer call fails; misses must degrade to the best
  // cached plan instead of crashing or claiming the bound.
  FaultSpec spec;
  spec.trigger = FaultTrigger::kProbability;
  spec.probability = 1.0;
  FaultRegistry::Global().Arm(faults::kOptimizeFail, spec);

  Pcg32 rng(11);
  int64_t degraded = 0;
  for (int i = 0; i < 60; ++i) {
    PlanChoice c = scr.OnInstance(
        MakeWi(1000 + i, rng.UniformDouble(0.005, 0.95),
               rng.UniformDouble(0.005, 0.95)),
        &engine);
    ASSERT_NE(c.plan, nullptr) << "cache had plans to fall back on";
    if (c.degraded) {
      ++degraded;
      EXPECT_FALSE(c.optimized);
    }
  }
  ASSERT_GT(degraded, 0) << "probe stream never missed the warm cache";
  EXPECT_EQ(registry.Snapshot().CounterValue("pqo.degraded_decisions"),
            degraded);

  std::vector<DecisionEvent> events = tracer.Snapshot();
  EXPECT_EQ(CountOutcome(events, DecisionOutcome::kDegraded), degraded);
  for (const DecisionEvent& e : events) {
    if (e.outcome == DecisionOutcome::kDegraded) {
      EXPECT_LT(e.lambda, 0.0)
          << "a degraded serving must not claim a lambda bound";
    }
  }
  // Zero violations among the decisions still claiming the guarantee.
  AuditReport report = AuditTrace(events, AuditConfig{});
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(ChaosServingTest, EmptyCacheOptimizerFailureRetriesWithBackoff) {
  Scr scr(ScrOptions{.lambda = 1.5});
  EngineContext engine(&db_, &optimizer_);

  // Fails the 1st, 3rd, 5th... optimizer call: the initial warm-up
  // Optimize fails, the first bounded-backoff retry succeeds, and the
  // decision recovers to a normal optimized (guaranteed) one.
  FaultSpec spec;
  spec.trigger = FaultTrigger::kEveryNth;
  spec.nth = 2;
  FaultRegistry::Global().Arm(faults::kOptimizeFail, spec);

  PlanChoice c = scr.OnInstance(MakeWi(0, 0.3, 0.3), &engine);
  ASSERT_NE(c.plan, nullptr);
  EXPECT_TRUE(c.optimized);
  EXPECT_FALSE(c.degraded) << "a successful retry keeps the guarantee";
  EXPECT_GE(scr.NumPlansCached(), 1);
  EXPECT_GE(FaultRegistry::Global().StatsFor(faults::kOptimizeFail).fires, 1);
}

TEST_F(ChaosServingTest, EmptyCacheWithAllRetriesFailingServesNothing) {
  Scr scr(ScrOptions{.lambda = 1.5});
  RingTracer tracer(1 << 10);
  scr.SetObs(ObsHooks{&tracer, nullptr});
  EngineContext engine(&db_, &optimizer_);

  FaultSpec spec;
  spec.trigger = FaultTrigger::kProbability;
  spec.probability = 1.0;
  FaultRegistry::Global().Arm(faults::kOptimizeFail, spec);

  // Worst case: cold cache and a dead optimizer. The contract is a clean
  // degraded decision with a null plan — never a crash.
  PlanChoice c = scr.OnInstance(MakeWi(0, 0.3, 0.3), &engine);
  EXPECT_EQ(c.plan, nullptr);
  EXPECT_TRUE(c.degraded);
  EXPECT_FALSE(c.optimized);
  std::vector<DecisionEvent> events = tracer.Snapshot();
  EXPECT_EQ(CountOutcome(events, DecisionOutcome::kDegraded), 1);
  EXPECT_TRUE(AuditTrace(events, AuditConfig{}).ok());

  // Optimizer comes back: the same technique serves normally again.
  FaultRegistry::Global().DisarmAll();
  PlanChoice recovered = scr.OnInstance(MakeWi(1, 0.3, 0.3), &engine);
  ASSERT_NE(recovered.plan, nullptr);
  EXPECT_FALSE(recovered.degraded);
}

TEST_F(ChaosServingTest, NonFiniteRecostQuarantinesInsteadOfBadReuse) {
  // Satellite regression: a reuse decision must never compute R * L <=
  // lambda / S with a non-finite R. With every recost poisoned to NaN the
  // cost check quarantines entries (Appendix G) and falls through to the
  // optimizer; nothing reuses on NaN arithmetic.
  Scr scr(ScrOptions{.lambda = 1.5});
  EngineContext engine(&db_, &optimizer_);
  Warm(&scr, &engine, 40);
  const int64_t violations_before = scr.violations_detected();

  // Attach the tracer only now: warm-phase cost-check hits are legitimate
  // and would otherwise be counted against the NaN-era assertion below.
  RingTracer tracer(1 << 14);
  scr.SetObs(ObsHooks{&tracer, nullptr});

  FaultSpec spec;
  spec.trigger = FaultTrigger::kProbability;
  spec.probability = 1.0;
  FaultRegistry::Global().Arm(faults::kRecostNonFinite, spec);

  Pcg32 rng(13);
  for (int i = 0; i < 40; ++i) {
    PlanChoice c = scr.OnInstance(
        MakeWi(2000 + i, rng.UniformDouble(0.005, 0.95),
               rng.UniformDouble(0.005, 0.95)),
        &engine);
    ASSERT_NE(c.plan, nullptr);
  }
  EXPECT_GT(scr.violations_detected(), violations_before)
      << "non-finite recosts must quarantine entries";
  std::vector<DecisionEvent> events = tracer.Snapshot();
  EXPECT_EQ(CountOutcome(events, DecisionOutcome::kCostCheckHit), 0)
      << "no cost-check hit can be justified while every recost is NaN";
  EXPECT_TRUE(AuditTrace(events, AuditConfig{}).ok());
}

TEST_F(ChaosServingTest, PerturbedRecostsStayAuditConsistent) {
  // A mis-costing engine (recosts scaled 10x at 30% rate) makes decisions
  // conservative, not inconsistent: every recorded decision still audits
  // clean because the technique used the same (wrong) R it recorded.
  Scr scr(ScrOptions{.lambda = 1.5});
  RingTracer tracer(1 << 14);
  scr.SetObs(ObsHooks{&tracer, nullptr});
  EngineContext engine(&db_, &optimizer_);

  FaultSpec spec;
  spec.trigger = FaultTrigger::kProbability;
  spec.probability = 0.3;
  spec.param = 10.0;
  FaultRegistry::Global().Arm(faults::kRecostPerturb, spec);

  Pcg32 rng(17);
  for (int i = 0; i < 120; ++i) {
    PlanChoice c = scr.OnInstance(
        MakeWi(i, rng.UniformDouble(0.005, 0.95),
               rng.UniformDouble(0.005, 0.95)),
        &engine);
    ASSERT_NE(c.plan, nullptr);
  }
  AuditReport report = AuditTrace(tracer.Snapshot(), AuditConfig{});
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(ChaosServingTest, AsyncTaskDropsKeepServingWithoutCacheGrowth) {
  AsyncScr async(ScrOptions{.lambda = 1.5});
  RingTracer tracer(1 << 14);
  MetricsRegistry registry;
  async.SetObs(ObsHooks{&tracer, &registry});
  EngineContext engine(&db_, &optimizer_);

  FaultSpec spec;
  spec.trigger = FaultTrigger::kProbability;
  spec.probability = 1.0;
  FaultRegistry::Global().Arm(faults::kAsyncTaskFail, spec);

  Pcg32 rng(19);
  for (int i = 0; i < 30; ++i) {
    PlanChoice c = async.OnInstance(
        MakeWi(i, rng.UniformDouble(0.005, 0.95),
               rng.UniformDouble(0.005, 0.95)),
        &engine);
    ASSERT_NE(c.plan, nullptr)
        << "misses optimize synchronously; dropped manageCache must not "
           "lose the plan the query already has";
    EXPECT_TRUE(c.optimized);
  }
  async.Flush();
  EXPECT_EQ(async.NumPlansCached(), 0)
      << "every deferred manageCache was dropped";
  EXPECT_EQ(registry.Snapshot().CounterValue("async_scr.tasks_dropped"),
            FaultRegistry::Global().StatsFor(faults::kAsyncTaskFail).fires);

  // Worker recovers once the fault stops: the next miss populates the
  // cache again.
  FaultRegistry::Global().DisarmAll();
  (void)async.OnInstance(MakeWi(100, 0.4, 0.4), &engine);
  async.Flush();
  EXPECT_GE(async.NumPlansCached(), 1);
}

TEST_F(ChaosServingTest, ColdPathAllocFailureServesPlanUncached) {
  Scr scr(ScrOptions{.lambda = 1.5});
  RingTracer tracer(1 << 12);
  scr.SetObs(ObsHooks{&tracer, nullptr});
  EngineContext engine(&db_, &optimizer_);

  FaultSpec spec;
  spec.trigger = FaultTrigger::kProbability;
  spec.probability = 1.0;
  FaultRegistry::Global().Arm(faults::kColdAllocFail, spec);

  Pcg32 rng(23);
  for (int i = 0; i < 20; ++i) {
    PlanChoice c = scr.OnInstance(
        MakeWi(i, rng.UniformDouble(0.005, 0.95),
               rng.UniformDouble(0.005, 0.95)),
        &engine);
    ASSERT_NE(c.plan, nullptr);
    EXPECT_TRUE(c.optimized);
  }
  EXPECT_EQ(scr.NumPlansCached(), 0);
  EXPECT_EQ(scr.NumInstancesStored(), 0);
  EXPECT_TRUE(AuditTrace(tracer.Snapshot(), AuditConfig{}).ok());

  // Allocation pressure clears: caching resumes.
  FaultRegistry::Global().DisarmAll();
  (void)scr.OnInstance(MakeWi(100, 0.4, 0.4), &engine);
  EXPECT_GE(scr.NumPlansCached(), 1);
}

TEST_F(ChaosServingTest, OptimizeDeadlineOverrunDegrades) {
  Scr scr(ScrOptions{.lambda = 1.5});
  RingTracer tracer(1 << 14);
  scr.SetObs(ObsHooks{&tracer, nullptr});
  EngineContext engine(&db_, &optimizer_);
  Warm(&scr, &engine);

  // A 2 ms artificial optimizer stall against a 200 us deadline: every
  // miss overruns and must degrade to the warm cache.
  engine.SetOptimizeDeadlineMicros(200);
  FaultSpec spec;
  spec.trigger = FaultTrigger::kProbability;
  spec.probability = 1.0;
  spec.param = 2000.0;  // microseconds of injected latency
  FaultRegistry::Global().Arm(faults::kOptimizeLatency, spec);

  Pcg32 rng(29);
  int64_t degraded = 0;
  for (int i = 0; i < 30; ++i) {
    PlanChoice c = scr.OnInstance(
        MakeWi(3000 + i, rng.UniformDouble(0.005, 0.95),
               rng.UniformDouble(0.005, 0.95)),
        &engine);
    ASSERT_NE(c.plan, nullptr);
    if (c.degraded) ++degraded;
  }
  ASSERT_GT(degraded, 0) << "probe stream never missed the warm cache";
  EXPECT_GT(engine.optimize_deadline_overruns(), 0);
  EXPECT_TRUE(AuditTrace(tracer.Snapshot(), AuditConfig{}).ok());
}

TEST_F(ChaosServingTest, TruncatedSnapshotRestoresValidPrefix) {
  Scr scr(ScrOptions{.lambda = 1.5});
  EngineContext engine(&db_, &optimizer_);
  Warm(&scr, &engine);
  const std::string path =
      ::testing::TempDir() + "/scrpqo_chaos_snapshot.txt";
  ASSERT_TRUE(SaveScrCacheToFile(scr, path).ok());

  FaultSpec spec;
  spec.trigger = FaultTrigger::kOneShot;
  spec.param = 0.5;  // load sees only the first half of the file
  FaultRegistry::Global().Arm(faults::kSnapshotTruncate, spec);

  Scr restored(ScrOptions{.lambda = 1.5});
  SnapshotRestoreReport report;
  Status st = LoadScrCacheFromFileLenient(path, *tmpl_, &restored, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_LE(restored.NumPlansCached(), scr.NumPlansCached());
  EXPECT_LT(restored.NumInstancesStored(), scr.NumInstancesStored());
  EXPECT_EQ(restored.NumInstancesStored(), report.entries_restored);

  // The partial cache serves immediately — worst case is colder, not
  // broken.
  EngineContext e2(&db_, &optimizer_);
  PlanChoice c = restored.OnInstance(MakeWi(5000, 0.3, 0.3), &e2);
  EXPECT_NE(c.plan, nullptr);
  std::remove(path.c_str());
}

TEST_F(ChaosServingTest, BitFlippedHeaderFailsLoadButServiceColdStarts) {
  Scr scr(ScrOptions{.lambda = 1.5});
  EngineContext engine(&db_, &optimizer_);
  Warm(&scr, &engine, 30);
  const std::string path =
      ::testing::TempDir() + "/scrpqo_chaos_bitflip.txt";
  ASSERT_TRUE(SaveScrCacheToFile(scr, path).ok());

  // Byte 3 sits inside the header line: even the lenient loader must
  // reject a snapshot whose header is rotted (there is no trusted prefix).
  FaultSpec spec;
  spec.trigger = FaultTrigger::kOneShot;
  spec.param = 3.0;
  FaultRegistry::Global().Arm(faults::kSnapshotBitFlip, spec);

  Scr restored(ScrOptions{.lambda = 1.5});
  SnapshotRestoreReport report;
  EXPECT_FALSE(
      LoadScrCacheFromFileLenient(path, *tmpl_, &restored, &report).ok());

  // The degradation is a cold start, never a crash.
  EngineContext e2(&db_, &optimizer_);
  PlanChoice c = restored.OnInstance(MakeWi(0, 0.3, 0.3), &e2);
  EXPECT_NE(c.plan, nullptr);
  std::remove(path.c_str());
}

// --- acceptance sweep: each fault point alone at 10%, multi-threaded ---

TEST_F(ChaosServingTest, AnySingleFaultPointAtTenPercentAuditsClean) {
  const char* points[] = {
      faults::kOptimizeFail,   faults::kRecostNonFinite,
      faults::kRecostPerturb,  faults::kAsyncTaskFail,
      faults::kColdAllocFail,
  };
  TemplateFleet fleet(4, 6);
  for (const char* point : points) {
    SCOPED_TRACE(point);
    FaultRegistry::Global().DisarmAll();
    FaultRegistry::Global().SetSeed(SweepSeed());
    FaultSpec spec;
    spec.trigger = FaultTrigger::kProbability;
    spec.probability = 0.1;
    FaultRegistry::Global().Arm(point, spec);

    PqoManagerOptions opts;
    opts.use_async = true;
    opts.warmup_instances = 2;
    opts.num_shards = 2;
    PqoManager mgr(opts);
    RingTracer tracer(RingTracer::Options{.ring_capacity = 1 << 12,
                                           .window_capacity = 1 << 15});
    MetricsRegistry registry;
    mgr.SetObs(ObsHooks{&tracer, &registry});

    MultiTemplateRunOptions run;
    run.threads = 4;
    run.rounds = 2;
    MultiTemplateRunResult result =
        RunMultiTemplate(&mgr, fleet.served(), run);
    EXPECT_GT(result.instances_served, 0);
    if (std::string(point) != faults::kOptimizeFail) {
      // Only a dead optimizer on an empty cache can lose an instance.
      EXPECT_EQ(result.lost, 0);
    }

    // Zero lambda-guarantee violations among decisions that still claim
    // the bound; degraded decisions claim nothing and are excluded by
    // construction (the audit flags any that carry a lambda).
    AuditReport report = AuditTrace(tracer.Snapshot(), AuditConfig{});
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
}

TEST_F(ChaosServingTest, RandomizedFaultMixConvergesAfterDisarm) {
  TemplateFleet fleet(4, 6, /*seed=*/123);
  PqoManagerOptions opts;
  opts.use_async = true;
  opts.warmup_instances = 2;
  opts.num_shards = 2;
  PqoManager mgr(opts);
  RingTracer tracer(RingTracer::Options{.ring_capacity = 1 << 12,
                                         .window_capacity = 1 << 15});
  MetricsRegistry registry;
  mgr.SetObs(ObsHooks{&tracer, &registry});

  // Phase 1: everything fails a fifth of the time.
  ASSERT_TRUE(FaultRegistry::Global()
                  .ConfigureFromString(
                      "optimizer.fail=p0.2;recost.nonfinite=p0.2;"
                      "recost.perturb=p0.2@10;async_scr.task_fail=p0.2;"
                      "scr.cold_alloc=p0.2")
                  .ok());
  FaultRegistry::Global().SetSeed(SweepSeed());
  MultiTemplateRunOptions run;
  run.threads = 4;
  run.rounds = 2;
  (void)RunMultiTemplate(&mgr, fleet.served(), run);
  const int64_t degraded_during_chaos =
      CountOutcome(tracer.Snapshot(), DecisionOutcome::kDegraded);

  // Phase 2: faults stop; serving must converge back to normal —
  // no new degraded decisions, caches repopulate, audit stays clean.
  FaultRegistry::Global().DisarmAll();
  MultiTemplateRunResult recovery =
      RunMultiTemplate(&mgr, fleet.served(), run);
  EXPECT_EQ(recovery.lost, 0);
  EXPECT_GT(recovery.plans_cached, 0);
  std::vector<DecisionEvent> events = tracer.Snapshot();
  EXPECT_EQ(CountOutcome(events, DecisionOutcome::kDegraded),
            degraded_during_chaos)
      << "degraded servings after faults stopped";
  AuditReport report = AuditTrace(events, AuditConfig{});
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace scrpqo
