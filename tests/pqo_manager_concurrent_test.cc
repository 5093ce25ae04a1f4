// Concurrent multi-template stress tests for PqoManager: many threads over
// many templates, mixed with invalidations and stat reads, asserting the
// three properties the sharded design promises — no instance is ever lost,
// the global budget holds after quiescence, and the merged decision trace
// audits clean per template.
//
// These run under TSan in CI (gtest_filter PqoManager*), so any data race
// in the shard map, warm-up state, or cross-template evictor fails there.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/ring_tracer.h"
#include "obs/trace.h"
#include "tests/multi_template.h"
#include "tests/test_util.h"
#include "verify/guarantee_audit.h"

namespace scrpqo {
namespace {

using testing::Gate;

TEST(PqoManagerConcurrentTest, MissInOptimizeBlocksNeitherHitsNorLambdaFor) {
  // Default options: inline manageCache and no warm-up. A miss held inside
  // Optimize must not stall a hit on the same template or a LambdaFor
  // read: the optimizer runs with no template or cache lock held.
  constexpr auto kTimeout = std::chrono::seconds(2);
  TemplateFleet fleet(1, 16);
  const ServedTemplate& st = fleet.served()[0];
  const std::vector<WorkloadInstance>& instances = *st.instances;
  PqoManager mgr(PqoManagerOptions{});
  const WorkloadInstance& cached = instances[0];
  ASSERT_TRUE(mgr.OnInstance(st.key, cached, st.engine).optimized);

  // An instance the one-plan cache misses: a standalone Scr holding the
  // same single optimization decides exactly as the template's cache.
  Scr probe(ScrOptions{.lambda = PqoManagerOptions{}.default_lambda});
  (void)probe.OnInstance(cached, st.engine);
  const WorkloadInstance* miss = nullptr;
  for (const WorkloadInstance& wi : instances) {
    PlanChoice c;
    if (!probe.TryReuse(wi, st.engine, &c)) {
      miss = &wi;
      break;
    }
  }
  ASSERT_NE(miss, nullptr) << "every fleet instance hits the cached plan";

  Gate in_optimize;
  Gate release;
  std::atomic<bool> hold{true};
  EngineContext* engine = st.engine;
  engine->SetOracle([&](const WorkloadInstance& wi) {
    if (wi.id == miss->id && hold.exchange(false)) {
      in_optimize.Open();
      release.Wait();
    }
    return std::make_shared<const OptimizationResult>(
        engine->optimizer().OptimizeWithSVector(wi.instance, wi.svector));
  });
  auto missing = std::async(std::launch::async, [&] {
    return mgr.OnInstance(st.key, *miss, engine);
  });
  EXPECT_TRUE(in_optimize.WaitFor(kTimeout))
      << "the miss never reached Optimize";
  auto hit = std::async(std::launch::async, [&] {
    return mgr.OnInstance(st.key, cached, engine);
  });
  auto lambda = std::async(std::launch::async,
                           [&] { return mgr.LambdaFor(st.key); });
  EXPECT_TRUE(hit.wait_for(kTimeout) == std::future_status::ready)
      << "a hit waited behind another thread's optimizer call";
  EXPECT_TRUE(lambda.wait_for(kTimeout) == std::future_status::ready)
      << "LambdaFor waited behind another thread's optimizer call";
  release.Open();

  const PlanChoice hit_choice = hit.get();
  EXPECT_FALSE(hit_choice.optimized);
  EXPECT_NE(hit_choice.plan, nullptr);
  EXPECT_EQ(lambda.get(), PqoManagerOptions{}.default_lambda);
  const PlanChoice miss_choice = missing.get();
  EXPECT_TRUE(miss_choice.optimized);
  EXPECT_NE(miss_choice.plan, nullptr);
  engine->SetOracle(nullptr);
}

TEST(PqoManagerConcurrentTest, StressNoLostInstancesAndBudgetHolds) {
  constexpr int kTemplates = 16;
  constexpr int kInstances = 12;
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  constexpr int64_t kBudget = 8;  // < kTemplates: forces cross-template LFU

  TemplateFleet fleet(kTemplates, kInstances);
  PqoManagerOptions opts;
  opts.use_async = true;
  opts.warmup_instances = 2;
  opts.global_plan_budget = kBudget;
  opts.num_shards = 4;
  PqoManager mgr(opts);
  RingTracer tracer(RingTracer::Options{.ring_capacity = 1 << 12,
                                         .window_capacity = 1 << 15});
  MetricsRegistry registry;
  mgr.SetObs(ObsHooks{&tracer, &registry});

  MultiTemplateRunOptions run;
  run.threads = kThreads;
  run.rounds = kRounds;
  MultiTemplateRunResult result =
      RunMultiTemplate(&mgr, fleet.served(), run);

  // Every submitted instance came back with a plan.
  EXPECT_EQ(result.instances_served,
            int64_t{kTemplates} * kInstances * kRounds);
  EXPECT_EQ(result.lost, 0);

  // RunMultiTemplate quiesced via FlushAll, so the budget is a hard bound
  // now (AsyncScr may only overshoot transiently between enforcements).
  EXPECT_LE(result.plans_cached, kBudget);
  EXPECT_LE(mgr.TotalPlansCached(), kBudget);
  EXPECT_GT(result.global_evictions, 0);
  EXPECT_EQ(mgr.NumTemplates(), kTemplates);

  // The merged trace audits clean, and per-template rollups show each
  // template serving under a single lambda.
  AuditConfig config;  // trust each event's recorded lambda
  AuditReport report = AuditTrace(tracer.Snapshot(), config);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_FALSE(report.by_template.empty());
  for (const auto& [key, summary] : report.by_template) {
    EXPECT_LE(summary.lambdas.size(), 1u)
        << "template " << key << " audited under multiple bounds";
  }

  // The sharded map saw real multi-template traffic.
  auto snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("pqo_manager.templates"), kTemplates);
  EXPECT_EQ(snap.CounterValue("pqo_manager.global_evictions"),
            mgr.global_evictions());
}

TEST(PqoManagerConcurrentTest, InvalidationChaosKeepsServing) {
  constexpr int kTemplates = 16;
  constexpr int kInstances = 8;
  constexpr int kServers = 4;
  constexpr int kPerThread = 400;

  TemplateFleet fleet(kTemplates, kInstances);
  PqoManagerOptions opts;
  opts.use_async = true;
  opts.warmup_instances = 1;
  opts.global_plan_budget = 12;
  opts.num_shards = 4;
  PqoManager mgr(opts);
  RingTracer tracer(RingTracer::Options{.ring_capacity = 1 << 12,
                                         .window_capacity = 1 << 14});
  MetricsRegistry registry;
  mgr.SetObs(ObsHooks{&tracer, &registry});

  const std::vector<ServedTemplate>& served = fleet.served();
  std::atomic<int64_t> lost{0};
  std::atomic<bool> stop{false};

  // A chaos thread invalidates templates and reads stats while servers
  // hammer OnInstance on the same keys.
  std::thread chaos([&] {
    size_t k = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      mgr.InvalidateTemplate(served[k % served.size()].key);
      (void)mgr.LambdaFor(served[(k + 3) % served.size()].key);
      (void)mgr.TotalPlansCached();
      (void)mgr.TotalMemoryBytes();
      (void)mgr.NumTemplates();
      (void)mgr.global_evictions();
      ++k;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> servers;
  for (int t = 0; t < kServers; ++t) {
    servers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const ServedTemplate& st =
            served[static_cast<size_t>(t + i) % served.size()];
        const WorkloadInstance& wi =
            (*st.instances)[static_cast<size_t>(i) % st.instances->size()];
        PlanChoice c = mgr.OnInstance(st.key, wi, st.engine);
        if (c.plan == nullptr) lost.fetch_add(1);
      }
    });
  }
  for (std::thread& th : servers) th.join();
  stop.store(true);
  chaos.join();

  // Invalidation may drop caches mid-flight, but never a served instance:
  // every call either reused a plan or optimized one.
  EXPECT_EQ(lost.load(), 0);

  mgr.FlushAll();
  EXPECT_LE(mgr.TotalPlansCached(), 12);

  // The trace still audits clean despite caches being torn down and
  // rebuilt under load.
  AuditReport report = AuditTrace(tracer.Snapshot(), AuditConfig{});
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(registry.Snapshot().CounterValue("pqo_manager.invalidations"),
            0);
}

TEST(PqoManagerConcurrentTest, WarmupOptimizeRunsOutsideTemplateLock) {
  // All threads pile onto ONE cold template whose warm-up needs several
  // instances. Warm-up Optimize runs outside TemplateState::mu (tracked by
  // warmup_inflight), so optimizations overlap; any arrival in the gap
  // between the last counted attempt and its completion takes an extra
  // Optimize-Always pass — bound exactly 1, nothing lost, and warm-up
  // still terminates. TSan validates the inflight handshake.
  TemplateFleet fleet(1, 8);
  PqoManagerOptions opts;
  opts.warmup_instances = 4;
  PqoManager mgr(opts);
  RingTracer tracer(RingTracer::Options{.ring_capacity = 1 << 12,
                                         .window_capacity = 1 << 13});
  MetricsRegistry registry;
  mgr.SetObs(ObsHooks{&tracer, &registry});

  const ServedTemplate& st = fleet.served()[0];
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::atomic<int64_t> lost{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const WorkloadInstance& wi =
            (*st.instances)[static_cast<size_t>(t + i) % st.instances->size()];
        PlanChoice c = mgr.OnInstance(st.key, wi, st.engine);
        if (c.plan == nullptr) lost.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(lost.load(), 0);
  // Warm-up completed (enough attempts landed and no optimize was left
  // inflight), so the template now serves under a selected lambda >= 1.
  EXPECT_GE(mgr.LambdaFor(st.key), 1.0);
  AuditReport report = AuditTrace(tracer.Snapshot(), AuditConfig{});
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(PqoManagerConcurrentTest, StatuszJsonRacesServingAndInvalidation) {
  // StatuszJson reads each template's const `key` without that template's
  // lock while servers create/serve templates and a chaos thread tears
  // them down. TSan certifies the publication discipline (key set before
  // the shared_ptr is published to the shard map).
  constexpr int kTemplates = 8;
  TemplateFleet fleet(kTemplates, 6);
  PqoManagerOptions opts;
  opts.warmup_instances = 1;
  opts.num_shards = 4;
  PqoManager mgr(opts);

  const std::vector<ServedTemplate>& served = fleet.served();
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::string json = mgr.StatuszJson();
      EXPECT_NE(json.find("\"templates\""), std::string::npos);
      std::this_thread::yield();
    }
  });
  std::thread chaos([&] {
    size_t k = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      mgr.InvalidateTemplate(served[k % served.size()].key);
      ++k;
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> servers;
  for (int t = 0; t < 4; ++t) {
    servers.emplace_back([&, t] {
      for (int i = 0; i < 300; ++i) {
        const ServedTemplate& s =
            served[static_cast<size_t>(t + i) % served.size()];
        const WorkloadInstance& wi =
            (*s.instances)[static_cast<size_t>(i) % s.instances->size()];
        PlanChoice c = mgr.OnInstance(s.key, wi, s.engine);
        EXPECT_NE(c.plan, nullptr);
      }
    });
  }
  for (std::thread& th : servers) th.join();
  stop.store(true);
  reader.join();
  chaos.join();

  // A trailing invalidation may have removed a template for good; serve
  // one instance per template to re-create it, then the snapshot must
  // reflect the full fleet.
  for (const ServedTemplate& s : served) {
    (void)mgr.OnInstance(s.key, (*s.instances)[0], s.engine);
  }
  std::string json = mgr.StatuszJson();
  for (const ServedTemplate& s : served) {
    EXPECT_NE(json.find(s.key), std::string::npos) << s.key;
  }
}

}  // namespace
}  // namespace scrpqo
