#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "obs/metrics_registry.h"
#include "pqo/async_scr.h"
#include "query/query_instance.h"
#include "tests/test_util.h"

namespace scrpqo {
namespace {

class AsyncScrTest : public ::testing::Test {
 protected:
  AsyncScrTest()
      : db_(testing::MakeSmallDatabase(20000, 500)),
        tmpl_(testing::MakeJoinTemplate()),
        optimizer_(&db_) {}

  WorkloadInstance MakeWi(int id, double s0, double s1) {
    WorkloadInstance wi;
    wi.id = id;
    wi.instance = InstanceForSelectivities(db_, *tmpl_, {s0, s1});
    wi.svector = ComputeSelectivityVector(db_, wi.instance);
    return wi;
  }

  Database db_;
  std::shared_ptr<QueryTemplate> tmpl_;
  Optimizer optimizer_;
};

TEST_F(AsyncScrTest, ProcessesAllTasks) {
  AsyncScr scr(ScrOptions{.lambda = 2.0});
  EngineContext engine(&db_, &optimizer_);
  Pcg32 rng(3);
  int optimized = 0;
  for (int i = 0; i < 100; ++i) {
    PlanChoice c = scr.OnInstance(MakeWi(i, rng.UniformDouble(0.01, 0.9),
                                         rng.UniformDouble(0.01, 0.9)),
                                  &engine);
    ASSERT_NE(c.plan, nullptr);
    if (c.optimized) ++optimized;
  }
  scr.Flush();
  EXPECT_EQ(scr.tasks_processed(), optimized);
  EXPECT_GE(scr.NumPlansCached(), 1);
}

TEST_F(AsyncScrTest, ReturnsFreshOptimalPlanOnMiss) {
  AsyncScr scr(ScrOptions{.lambda = 2.0});
  EngineContext engine(&db_, &optimizer_);
  WorkloadInstance wi = MakeWi(0, 0.3, 0.3);
  PlanChoice c = scr.OnInstance(wi, &engine);
  EXPECT_TRUE(c.optimized);
  // The returned plan is the instance's own optimum.
  OptimizationResult opt =
      optimizer_.OptimizeWithSVector(wi.instance, wi.svector);
  EXPECT_EQ(c.plan->signature, MakeCachedPlan(opt).signature);
}

TEST_F(AsyncScrTest, ReusesAfterFlush) {
  AsyncScr scr(ScrOptions{.lambda = 2.0});
  EngineContext engine(&db_, &optimizer_);
  scr.OnInstance(MakeWi(0, 0.3, 0.3), &engine);
  scr.Flush();  // manageCache applied
  PlanChoice c = scr.OnInstance(MakeWi(1, 0.31, 0.31), &engine);
  EXPECT_FALSE(c.optimized);
}

TEST_F(AsyncScrTest, GuaranteeHolds) {
  const double lambda = 2.0;
  AsyncScr scr(ScrOptions{.lambda = lambda});
  EngineContext engine(&db_, &optimizer_);
  Pcg32 rng(7);
  int violations = 0;
  for (int i = 0; i < 200; ++i) {
    WorkloadInstance wi = MakeWi(i, rng.UniformDouble(0.01, 0.9),
                                 rng.UniformDouble(0.01, 0.9));
    PlanChoice c = scr.OnInstance(wi, &engine);
    double opt =
        optimizer_.OptimizeWithSVector(wi.instance, wi.svector).cost;
    if (engine.RecostUncharged(*c.plan, wi.svector) / opt > lambda * 1.001) {
      ++violations;
    }
  }
  scr.Flush();
  EXPECT_LE(violations, 4);
}

TEST_F(AsyncScrTest, ComparableCacheStateToSyncScr) {
  // Async application order matches arrival order here (single worker,
  // FIFO), so after Flush the cache must match the synchronous run.
  ScrOptions opts{.lambda = 1.5};
  AsyncScr async_scr(opts);
  Scr sync_scr(opts);
  EngineContext async_engine(&db_, &optimizer_);
  EngineContext sync_engine(&db_, &optimizer_);
  Pcg32 rng(9);
  for (int i = 0; i < 150; ++i) {
    WorkloadInstance wi = MakeWi(i, rng.UniformDouble(0.01, 0.9),
                                 rng.UniformDouble(0.01, 0.9));
    async_scr.OnInstance(wi, &async_engine);
    async_scr.Flush();  // lockstep: isolate semantics from races
    sync_scr.OnInstance(wi, &sync_engine);
  }
  EXPECT_EQ(async_scr.NumPlansCached(), sync_scr.NumPlansCached());
  EXPECT_EQ(async_engine.num_optimizer_calls(),
            sync_engine.num_optimizer_calls());
}

TEST_F(AsyncScrTest, ConcurrentGetPlanReadersShareTheCache) {
  // The tentpole claim for the read path: TryReuse from many threads runs
  // under the shared lock while the worker applies manageCache under the
  // exclusive one. Warm the cache, then hammer it from several reader
  // threads while one writer thread keeps feeding fresh (miss-prone)
  // instances through the worker.
  AsyncScr scr(ScrOptions{.lambda = 2.0});
  MetricsRegistry registry;
  scr.SetObs(ObsHooks{nullptr, &registry});
  EngineContext engine(&db_, &optimizer_);

  std::vector<WorkloadInstance> warmed;
  Pcg32 warm_rng(21);
  for (int i = 0; i < 20; ++i) {
    warmed.push_back(MakeWi(i, warm_rng.UniformDouble(0.05, 0.9),
                            warm_rng.UniformDouble(0.05, 0.9)));
    scr.OnInstance(warmed.back(), &engine);
    scr.Flush();
  }

  constexpr int kReaders = 3;
  constexpr int kQueriesPerReader = 200;
  std::atomic<int> reader_optimized{0};
  std::atomic<int> null_plans{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      // Re-query the warmed points verbatim: G = L = 1, so every one is a
      // selectivity-check hit exercising the pure shared-lock path.
      for (int i = 0; i < kQueriesPerReader; ++i) {
        const WorkloadInstance& w =
            warmed[static_cast<size_t>((t * 7 + i) % warmed.size())];
        PlanChoice c = scr.OnInstance(w, &engine);
        if (c.plan == nullptr) null_plans.fetch_add(1);
        if (c.optimized) reader_optimized.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    Pcg32 rng(22);
    for (int i = 0; i < 40; ++i) {
      PlanChoice c = scr.OnInstance(
          MakeWi(1000 + i, rng.UniformDouble(0.01, 0.95),
                 rng.UniformDouble(0.01, 0.95)),
          &engine);
      if (c.plan == nullptr) null_plans.fetch_add(1);
    }
  });
  for (auto& th : threads) th.join();
  scr.Flush();

  EXPECT_EQ(null_plans.load(), 0);
  EXPECT_EQ(reader_optimized.load(), 0)
      << "a warmed exact-repeat instance missed the cache";
  auto snap = registry.Snapshot();
  // One shared acquisition per OnInstance; one exclusive per worker task.
  EXPECT_EQ(snap.CounterValue("async_scr.lock_shared"),
            20 + kReaders * kQueriesPerReader + 40);
  EXPECT_EQ(snap.CounterValue("async_scr.lock_exclusive"),
            scr.tasks_processed());
  EXPECT_GT(snap.CounterValue("async_scr.lock_exclusive"), 0);
}

TEST_F(AsyncScrTest, ReadersRaceEvictionCompaction) {
  // An eviction erases the victim's instance entries and their table rows
  // and moves later entries down. It runs under the exclusive lock, so no
  // reader's scan may see a half-moved table: readers keep serving warmed
  // instances while this thread evicts LFU plans and feeds fresh
  // instances whose optimizations the worker registers.
  AsyncScr scr(ScrOptions{.lambda = 1.3});
  EngineContext engine(&db_, &optimizer_);
  std::vector<WorkloadInstance> warmed;
  Pcg32 warm_rng(31);
  for (int i = 0; i < 60; ++i) {
    warmed.push_back(MakeWi(i, warm_rng.UniformDouble(0.01, 0.9),
                            warm_rng.UniformDouble(0.01, 0.9)));
    scr.OnInstance(warmed.back(), &engine);
    scr.Flush();
  }
  ASSERT_GT(scr.NumPlansCached(), 2);

  constexpr int kReaders = 3;
  std::atomic<bool> done{false};
  std::atomic<int> null_plans{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; !done.load() || i < 50; ++i) {
        const WorkloadInstance& w =
            warmed[static_cast<size_t>((t * 11 + i) % warmed.size())];
        PlanChoice c = scr.OnInstance(w, &engine);
        if (c.plan == nullptr) null_plans.fetch_add(1);
        reads.fetch_add(1);
      }
    });
  }
  int evicted = 0;
  Pcg32 rng(32);
  for (int round = 0; round < 40; ++round) {
    if (scr.EvictLfuPlan(/*instance_id=*/-1)) ++evicted;
    for (int j = 0; j < 2; ++j) {
      PlanChoice c = scr.OnInstance(
          MakeWi(2000 + round * 2 + j, rng.UniformDouble(0.01, 0.95),
                 rng.UniformDouble(0.01, 0.95)),
          &engine);
      if (c.plan == nullptr) null_plans.fetch_add(1);
    }
  }
  done.store(true);
  for (auto& th : readers) th.join();
  scr.Flush();

  EXPECT_EQ(null_plans.load(), 0);
  EXPECT_GE(reads.load(), kReaders * 50);
  EXPECT_GT(evicted, 0);
  // Every surviving entry still resolves: the warmed instances are served.
  for (const WorkloadInstance& w : warmed) {
    EXPECT_NE(scr.OnInstance(w, &engine).plan, nullptr);
  }
}

TEST_F(AsyncScrTest, RetryingMissBlocksNoStatReader) {
  // An empty cache and one optimizer failure: the miss finds nothing to
  // fall back on and retries. The retry (held below inside Optimize) and
  // its backoff run with no lock held, so a stat read on another thread
  // returns while it is in flight.
  constexpr auto kTimeout = std::chrono::seconds(2);
  AsyncScr scr(ScrOptions{.lambda = 2.0});
  EngineContext engine(&db_, &optimizer_);
  const WorkloadInstance wi = MakeWi(0, 0.3, 0.3);

  testing::Gate in_retry;
  testing::Gate release;
  std::atomic<bool> hold{true};
  engine.SetOracle([&](const WorkloadInstance& w) {
    if (hold.exchange(false)) {
      in_retry.Open();
      release.Wait();
    }
    return std::make_shared<const OptimizationResult>(
        optimizer_.OptimizeWithSVector(w.instance, w.svector));
  });
  FaultRegistry::Global().DisarmAll();
  FaultRegistry::Global().Arm(faults::kOptimizeFail,
                              FaultSpec{.trigger = FaultTrigger::kOneShot});
  auto missing = std::async(std::launch::async,
                            [&] { return scr.OnInstance(wi, &engine); });
  EXPECT_TRUE(in_retry.WaitFor(kTimeout))
      << "the retry never reached the optimizer";
  auto plans = std::async(std::launch::async,
                          [&] { return scr.NumPlansCached(); });
  EXPECT_TRUE(plans.wait_for(kTimeout) == std::future_status::ready)
      << "NumPlansCached waited behind the optimizer retry";
  release.Open();
  FaultRegistry::Global().DisarmAll();

  EXPECT_EQ(plans.get(), 0);
  const PlanChoice c = missing.get();
  EXPECT_TRUE(c.optimized);
  EXPECT_FALSE(c.degraded) << "a successful retry keeps the guarantee";
  ASSERT_NE(c.plan, nullptr);
  scr.Flush();
  EXPECT_EQ(scr.NumPlansCached(), 1);
}

TEST_F(AsyncScrTest, NameReflectsWrapper) {
  AsyncScr scr(ScrOptions{.lambda = 2.0});
  EXPECT_EQ(scr.name(), "AsyncSCR2");
}

TEST_F(AsyncScrTest, DestructorDrainsCleanly) {
  EngineContext engine(&db_, &optimizer_);
  {
    AsyncScr scr(ScrOptions{.lambda = 1.1});
    Pcg32 rng(11);
    for (int i = 0; i < 50; ++i) {
      scr.OnInstance(MakeWi(i, rng.UniformDouble(0.01, 0.9),
                            rng.UniformDouble(0.01, 0.9)),
                     &engine);
    }
    // No Flush: destructor must join without deadlock or crash.
  }
  SUCCEED();
}

}  // namespace
}  // namespace scrpqo
