// RecostBundle property suite: the SIMD-batched bundle must agree with the
// flat program scan and the tree walker at every kernel tier, preserve the
// visitor's early-exit billing exactly, survive incremental store/evict
// patching (including tombstone-compaction rebuilds), and keep the warmed
// getPlan reuse path allocation-free (asserted through the ScratchArena
// watermark plus a global operator-new counter). Any divergence here either
// breaks the paper's lambda guarantee or silently re-introduces the
// per-decision overheads the bundle exists to remove.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <thread>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "common/scratch_arena.h"
#include "common/thread_annotations.h"
#include "obs/metrics_registry.h"
#include "obs/ring_tracer.h"
#include "obs/span.h"
#include "optimizer/optimizer.h"
#include "optimizer/recost.h"
#include "optimizer/recost_bundle.h"
#include "pqo/pqo_manager.h"
#include "pqo/scr.h"
#include "tests/test_util.h"
#include "workload/instance_gen.h"
#include "workload/schemas.h"
#include "workload/templates.h"

// ---------------------------------------------------------------------------
// Global operator-new counter. Replacing the global allocator in one TU
// covers the whole test binary; the override only counts and forwards, so
// every other test is unaffected. The zero-allocation tests read the
// counters around their measured windows: the process-wide one, or the
// calling thread's own where background threads (the trace exporter,
// AsyncScr workers) run alongside the serving thread.
// ---------------------------------------------------------------------------

static std::atomic<int64_t> g_heap_allocs{0};
static thread_local int64_t t_heap_allocs = 0;

static void* CountedAlloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  ++t_heap_allocs;
  if (n == 0) n = 1;
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  ++t_heap_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace scrpqo {
namespace {

/// Restores auto-detected tier dispatch when a test scope ends.
struct TierGuard {
  ~TierGuard() { RecostBundle::ForceTierForTest(SimdTier::kScalar4, false); }
};

/// Stats-only universe shared across the property instantiations.
struct Universe {
  std::vector<BenchmarkDb> dbs;
  std::vector<BoundTemplate> templates;

  Universe() {
    SchemaScale scale;
    scale.factor = 0.12;
    dbs = BuildAllDatabases(scale);
    TemplateGenOptions topts;
    topts.num_templates = 16;
    topts.max_tables = 4;
    templates = BuildTemplates(dbs, topts);
  }

  static Universe& Get() {
    static Universe* u = new Universe();
    return *u;
  }
};

/// Optimizes a few instances under `mask`'s operator set and returns their
/// cached plans behind stable addresses (the bundle keeps raw program
/// pointers).
std::vector<std::unique_ptr<CachedPlan>> BuildPlans(
    const BoundTemplate& bt, int mask, int per_mask, uint64_t seed,
    std::unique_ptr<Optimizer>* optimizer_out) {
  OptimizerOptions opts;
  opts.enable_merge_join = mask & 1;
  opts.enable_indexed_nlj = mask & 2;
  opts.enable_index_seek = mask & 4;
  auto optimizer = std::make_unique<Optimizer>(&bt.db->db, opts);
  InstanceGenOptions gen;
  gen.m = per_mask;
  gen.seed = seed;
  std::vector<std::unique_ptr<CachedPlan>> plans;
  for (const auto& wi : GenerateInstances(bt, gen)) {
    OptimizationResult r =
        optimizer->OptimizeWithSVector(wi.instance, wi.svector);
    if (r.plan == nullptr) continue;
    plans.push_back(std::make_unique<CachedPlan>(MakeCachedPlan(r)));
  }
  *optimizer_out = std::move(optimizer);
  return plans;
}

class RecostBundlePropertyTest : public ::testing::TestWithParam<int> {
 protected:
  const BoundTemplate& Template() {
    return Universe::Get().templates[static_cast<size_t>(GetParam())];
  }
};

TEST_P(RecostBundlePropertyTest, BundleMatchesFlatAndTreeAcrossTiers) {
  const BoundTemplate& bt = Template();
  Pcg32 rng(991 + static_cast<uint64_t>(GetParam()));
  int d = bt.tmpl->dimensions();
  TierGuard restore_tier;
  for (int mask = 0; mask < 8; ++mask) {
    std::unique_ptr<Optimizer> optimizer;
    auto plans = BuildPlans(bt, mask, /*per_mask=*/3,
                            5100 + static_cast<uint64_t>(GetParam() * 8 + mask),
                            &optimizer);
    ASSERT_FALSE(plans.empty());
    const CostParams& params = optimizer->cost_model().params();

    RecostBundle bundle;
    std::vector<int> ids;
    for (size_t i = 0; i < plans.size(); ++i) {
      ASSERT_TRUE(bundle.Add(static_cast<int>(i), &plans[i]->program));
      ids.push_back(static_cast<int>(i));
    }

    // A handful of re-cost points per mask: the optimized neighborhood
    // plus random draws over the whole selectivity cube.
    std::vector<SVector> points;
    for (int k = 0; k < 4; ++k) {
      SVector sv(static_cast<size_t>(d));
      for (int dim = 0; dim < d; ++dim) {
        sv[static_cast<size_t>(dim)] = rng.UniformDouble(0.001, 1.0);
      }
      points.push_back(std::move(sv));
    }
    points.emplace_back(static_cast<size_t>(d), 1e-7);
    points.emplace_back(static_cast<size_t>(d), 1.0);

    for (SimdTier tier : RecostBundle::AvailableTiers()) {
      RecostBundle::ForceTierForTest(tier);
      ASSERT_EQ(RecostBundle::ActiveTier(), tier);
      for (const SVector& sv : points) {
        std::vector<double> costs(ids.size());
        size_t visited = bundle.EvalMany(
            std::span<const int>(ids), sv, params,
            std::span<double>(costs),
            [](size_t, double) { return true; });
        ASSERT_EQ(visited, ids.size());
        for (size_t i = 0; i < ids.size(); ++i) {
          double flat = plans[i]->program.Run(sv, params);
          double tree =
              optimizer->cost_model().RecostTree(*plans[i]->plan, sv);
          EXPECT_NEAR(costs[i], flat, std::abs(flat) * 1e-9)
              << "tier=" << SimdTierName(tier) << " mask=" << mask
              << " plan=" << i;
          EXPECT_NEAR(costs[i], tree, std::abs(tree) * 1e-9)
              << "tier=" << SimdTierName(tier) << " mask=" << mask
              << " plan=" << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Templates, RecostBundlePropertyTest,
                         ::testing::Range(0, 16));

class RecostBundleTest : public ::testing::Test {
 protected:
  RecostBundleTest() : db_(testing::MakeSmallDatabase(20000, 500)) {}

  /// Join-template plans at spread-out operating points (stable addresses).
  std::vector<std::unique_ptr<CachedPlan>> MakePlans(int m) {
    auto tmpl = testing::MakeJoinTemplate();
    optimizer_ = std::make_unique<Optimizer>(&db_);
    Pcg32 rng(77);
    std::vector<std::unique_ptr<CachedPlan>> plans;
    for (int i = 0; i < m; ++i) {
      QueryInstance q = InstanceForSelectivities(
          db_, *tmpl,
          {rng.UniformDouble(0.001, 1.0), rng.UniformDouble(0.001, 1.0)});
      OptimizationResult r = optimizer_->Optimize(q);
      plans.push_back(std::make_unique<CachedPlan>(MakeCachedPlan(r)));
    }
    return plans;
  }

  Database db_;
  std::unique_ptr<Optimizer> optimizer_;
};

TEST_F(RecostBundleTest, EarlyExitBillsVisitedPlansOnly) {
  auto plans = MakePlans(10);
  const CostParams& params = optimizer_->cost_model().params();
  RecostBundle bundle;
  std::vector<int> ids;
  for (size_t i = 0; i < plans.size(); ++i) {
    ASSERT_TRUE(bundle.Add(static_cast<int>(i), &plans[i]->program));
    ids.push_back(static_cast<int>(i));
  }
  SVector sv{0.25, 0.6};
  for (size_t stop_at = 0; stop_at < ids.size(); ++stop_at) {
    std::vector<double> costs(ids.size(), -1.0);
    size_t seen = 0;
    size_t visited = bundle.EvalMany(
        std::span<const int>(ids), sv, params, std::span<double>(costs),
        [&](size_t idx, double) {
          ++seen;
          return idx != stop_at;  // stop after visiting stop_at
        });
    // Billing parity with the legacy one-Run-per-plan loop: exactly the
    // plans the visitor saw, regardless of how many lanes were computed.
    EXPECT_EQ(visited, stop_at + 1);
    EXPECT_EQ(seen, stop_at + 1);
    for (size_t i = 0; i <= stop_at; ++i) {
      double flat = plans[i]->program.Run(sv, params);
      EXPECT_NEAR(costs[i], flat, std::abs(flat) * 1e-9);
    }
  }
}

TEST_F(RecostBundleTest, DuplicateIdsReuseTheGroupPass) {
  auto plans = MakePlans(4);
  const CostParams& params = optimizer_->cost_model().params();
  RecostBundle bundle;
  for (size_t i = 0; i < plans.size(); ++i) {
    ASSERT_TRUE(bundle.Add(static_cast<int>(i), &plans[i]->program));
  }
  // The same plan requested several times (distinct instance entries can
  // share one cached plan) must yield identical costs per request.
  std::vector<int> ids = {2, 0, 2, 1, 0, 2};
  SVector sv{0.4, 0.1};
  std::vector<double> costs(ids.size());
  size_t visited =
      bundle.EvalMany(std::span<const int>(ids), sv, params,
                      std::span<double>(costs),
                      [](size_t, double) { return true; });
  EXPECT_EQ(visited, ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    double flat =
        plans[static_cast<size_t>(ids[i])]->program.Run(sv, params);
    EXPECT_NEAR(costs[i], flat, std::abs(flat) * 1e-9);
  }
}

TEST_F(RecostBundleTest, RejectsUnbundleablePrograms) {
  RecostBundle bundle;
  RecostProgram empty;
  EXPECT_FALSE(bundle.Add(0, &empty));
  EXPECT_FALSE(bundle.Contains(0));
  EXPECT_FALSE(bundle.Add(1, nullptr));
  EXPECT_EQ(bundle.num_plans(), 0);
}

TEST_F(RecostBundleTest, IncrementalPatchMatchesFreshBundle) {
  auto plans = MakePlans(12);
  const CostParams& params = optimizer_->cost_model().params();

  // Patched bundle: add everything, evict most of it (forcing the
  // tombstone compaction), then re-admit a few — the StoreOrReuse/evict
  // life cycle in miniature.
  RecostBundle patched;
  for (size_t i = 0; i < plans.size(); ++i) {
    ASSERT_TRUE(patched.Add(static_cast<int>(i), &plans[i]->program));
  }
  for (int id : {1, 3, 5, 7, 9, 11, 2, 4}) patched.Remove(id);
  EXPECT_GE(patched.rebuilds(), 1) << "compaction should have triggered";
  for (int id : {3, 9}) {
    ASSERT_TRUE(
        patched.Add(id, &plans[static_cast<size_t>(id)]->program));
  }
  std::vector<int> live = {0, 6, 8, 10, 3, 9};
  for (int id : live) EXPECT_TRUE(patched.Contains(id));
  EXPECT_EQ(patched.num_plans(), static_cast<int>(live.size()));

  // Fresh bundle over the same survivors.
  RecostBundle fresh;
  for (int id : live) {
    ASSERT_TRUE(fresh.Add(id, &plans[static_cast<size_t>(id)]->program));
  }

  Pcg32 rng(55);
  for (int k = 0; k < 8; ++k) {
    SVector sv{rng.UniformDouble(0.001, 1.0), rng.UniformDouble(0.001, 1.0)};
    std::vector<double> got(live.size()), want(live.size());
    patched.EvalMany(std::span<const int>(live), sv, params,
                     std::span<double>(got),
                     [](size_t, double) { return true; });
    fresh.EvalMany(std::span<const int>(live), sv, params,
                   std::span<double>(want),
                   [](size_t, double) { return true; });
    for (size_t i = 0; i < live.size(); ++i) {
      double flat = plans[static_cast<size_t>(live[i])]->program.Run(
          sv, params);
      EXPECT_NEAR(got[i], flat, std::abs(flat) * 1e-9) << "patched, i=" << i;
      EXPECT_NEAR(want[i], flat, std::abs(flat) * 1e-9) << "fresh, i=" << i;
    }
  }
}

TEST_F(RecostBundleTest, RemoveIsTolerantAndClearResets) {
  auto plans = MakePlans(3);
  RecostBundle bundle;
  ASSERT_TRUE(bundle.Add(0, &plans[0]->program));
  bundle.Remove(42);  // never added: no-op
  EXPECT_EQ(bundle.num_plans(), 1);
  bundle.Clear();
  EXPECT_EQ(bundle.num_plans(), 0);
  EXPECT_FALSE(bundle.Contains(0));
  ASSERT_TRUE(bundle.Add(0, &plans[0]->program));
  EXPECT_EQ(bundle.num_plans(), 1);
}

TEST_F(RecostBundleTest, MemoryBytesGrowsWithContent) {
  auto plans = MakePlans(5);
  RecostBundle bundle;
  EXPECT_EQ(bundle.memory_bytes(), 0);
  ASSERT_TRUE(bundle.Add(0, &plans[0]->program));
  int64_t one = bundle.memory_bytes();
  EXPECT_GT(one, 0);
  for (size_t i = 1; i < plans.size(); ++i) {
    ASSERT_TRUE(bundle.Add(static_cast<int>(i), &plans[i]->program));
  }
  EXPECT_GE(bundle.memory_bytes(), one);
}

TEST_F(RecostBundleTest, SameTemplatePlansPackOntoFastPaths) {
  // Plans of one template bind the same sVector slots, so pack-time
  // classification must keep every cell off the general per-lane loop,
  // and a multi-block group of identical bindings must hoist its uniform
  // steps to the step-shared product (the binding-clustered placement
  // guarantee the kernel's fast paths rely on).
  auto tmpl = testing::MakeJoinTemplate();
  optimizer_ = std::make_unique<Optimizer>(&db_);
  std::vector<std::unique_ptr<CachedPlan>> plans;
  RecostBundle bundle;
  // Six copies of one operating point: one shape, identical bindings,
  // spilling past a single 4-lane block.
  QueryInstance q = InstanceForSelectivities(db_, *tmpl, {0.2, 0.3});
  for (int i = 0; i < 6; ++i) {
    OptimizationResult r = optimizer_->Optimize(q);
    plans.push_back(std::make_unique<CachedPlan>(MakeCachedPlan(r)));
    ASSERT_TRUE(bundle.Add(i, &plans.back()->program));
  }
  RecostBundle::PackStats st = bundle.pack_stats();
  EXPECT_EQ(st.cells_general, 0);
  EXPECT_GT(st.steps_total, 0);
  // Every step whose cells are uniform on one slot list must carry the
  // hoist; the join template's leaves bind slots, so at least one does.
  EXPECT_GT(st.steps_shared, 0);
}

// ---------------------------------------------------------------------------
// ComputeGlFast: the 4-lane unrolled selectivity check must agree with the
// scalar ComputeGl to 1e-9 relative (the lanes only reorder multiplies).
// ---------------------------------------------------------------------------

TEST(ComputeGlFastTest, MatchesScalarComputeGl) {
  Pcg32 rng(1234);
  for (int dims = 1; dims <= 19; ++dims) {
    for (int rep = 0; rep < 50; ++rep) {
      std::vector<double> from(static_cast<size_t>(dims));
      std::vector<double> to(static_cast<size_t>(dims));
      for (int i = 0; i < dims; ++i) {
        // Includes sub-floor values so the kSelectivityFloor clamp path is
        // exercised on both sides.
        from[static_cast<size_t>(i)] =
            rng.UniformDouble() < 0.1 ? 1e-12 : rng.UniformDouble(1e-6, 1.0);
        to[static_cast<size_t>(i)] =
            rng.UniformDouble() < 0.1 ? 0.0 : rng.UniformDouble(1e-6, 1.0);
      }
      GlFactors slow = ComputeGl(from, to);
      GlFactors fast = ComputeGlFast(from, to);
      EXPECT_NEAR(fast.g, slow.g, slow.g * 1e-9) << "dims=" << dims;
      EXPECT_NEAR(fast.l, slow.l, slow.l * 1e-9) << "dims=" << dims;
    }
  }
}

// ---------------------------------------------------------------------------
// Warmed getPlan reuse path performs zero heap allocations: the arena
// watermark stays flat AND the global operator-new counter stays flat
// across a window of reuse hits.
// ---------------------------------------------------------------------------

/// The zero-allocation workload: a join template over a small database,
/// warm-up traffic that populates the cache, and probes that resolve on
/// the reuse path.
struct ReuseWorkload {
  Database db = testing::MakeSmallDatabase(20000, 500);
  std::shared_ptr<QueryTemplate> tmpl = testing::MakeJoinTemplate();
  Optimizer optimizer{&db};

  WorkloadInstance Make(int id, double s0, double s1) const {
    WorkloadInstance wi;
    wi.id = id;
    wi.instance = InstanceForSelectivities(db, *tmpl, {s0, s1});
    wi.svector = ComputeSelectivityVector(db, wi.instance);
    return wi;
  }

  std::vector<WorkloadInstance> Warm() const {
    std::vector<WorkloadInstance> out;
    Pcg32 rng(9);
    for (int i = 0; i < 60; ++i) {
      out.push_back(Make(i, rng.UniformDouble(0.01, 0.95),
                         rng.UniformDouble(0.01, 0.95)));
    }
    return out;
  }

  std::vector<WorkloadInstance> Probes() const {
    std::vector<WorkloadInstance> out;
    Pcg32 rng(21);
    for (int i = 0; i < 16; ++i) {
      out.push_back(Make(1000 + i, rng.UniformDouble(0.05, 0.9),
                         rng.UniformDouble(0.05, 0.9)));
    }
    return out;
  }
};

TEST(ScrZeroAllocTest, WarmedReusePathAllocatesNothing) {
  ReuseWorkload w;
  EngineContext engine(&w.db, &w.optimizer);
  ScrOptions opts;
  opts.lambda = 3.0;
  opts.use_spatial_index = true;
  Scr scr(opts);

  // Warm-up traffic: populate the cache, the kd-tree, and the bundle.
  for (const WorkloadInstance& wi : w.Warm()) scr.OnInstance(wi, &engine);

  // Probes that resolve on the reuse path (hit or miss both stay inside
  // TryReuse — no optimizer call happens there). One priming pass grows
  // the arena to this workload's high-water mark.
  const std::vector<WorkloadInstance> probes = w.Probes();
  int hits = 0;
  for (const auto& wi : probes) {
    PlanChoice choice;
    if (scr.TryReuse(wi, &engine, &choice)) ++hits;
  }
  ASSERT_GT(hits, 0) << "warm-up produced no reusable coverage";

  // Measured window: watermark and allocation count must not move.
  int64_t watermark_before = ScratchArena::Tls().watermark();
  int64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 20; ++rep) {
    for (const auto& wi : probes) {
      PlanChoice choice;
      (void)scr.TryReuse(wi, &engine, &choice);
    }
  }
  int64_t allocs_after = g_heap_allocs.load(std::memory_order_relaxed);
  int64_t watermark_after = ScratchArena::Tls().watermark();
  EXPECT_EQ(watermark_after, watermark_before)
      << "warmed reuse path grew the scratch arena";
  EXPECT_EQ(allocs_after, allocs_before)
      << "warmed reuse path hit the heap";
}

TEST(ScrZeroAllocTest, TracedReusePathAllocatesNothing) {
  // Production observability attached: every hit emits a DecisionEvent
  // and updates counters and histograms. The serving thread's share is a
  // fixed-size copy into its own ring, so warmed hits still allocate
  // nothing on the calling thread (the exporter drains on its own).
  ReuseWorkload w;
  EngineContext engine(&w.db, &w.optimizer);
  RingTracer tracer;
  MetricsRegistry registry;
  engine.SetObs(&registry);
  ScrOptions opts;
  opts.lambda = 3.0;
  opts.use_spatial_index = true;
  Scr scr(opts);
  scr.SetObs(ObsHooks{&tracer, &registry});
  for (const WorkloadInstance& wi : w.Warm()) scr.OnInstance(wi, &engine);

  // Priming pass: registers this thread's ring and grows the arena.
  std::vector<WorkloadInstance> hits;
  for (const WorkloadInstance& wi : w.Probes()) {
    PlanChoice choice;
    if (scr.TryReuse(wi, &engine, &choice)) hits.push_back(wi);
  }
  ASSERT_FALSE(hits.empty()) << "warm-up produced no reusable coverage";
  ASSERT_TRUE(tracer.Flush().ok());
  const int64_t traced_before = tracer.total_recorded() + tracer.dropped();

  const int64_t allocs_before = t_heap_allocs;
  for (int rep = 0; rep < 20; ++rep) {
    for (const WorkloadInstance& wi : hits) {
      PlanChoice choice;
      EXPECT_TRUE(scr.TryReuse(wi, &engine, &choice));
    }
  }
  EXPECT_EQ(t_heap_allocs, allocs_before)
      << "traced reuse path hit the heap on the serving thread";
  ASSERT_TRUE(tracer.Flush().ok());
  EXPECT_EQ(tracer.total_recorded() + tracer.dropped() - traced_before,
            static_cast<int64_t>(20 * hits.size()))
      << "every measured hit is traced";
}

/// A PqoManager over AsyncScr with production observability, warmed on
/// the workload, plus the probes that it serves as hits.
struct RoutedTracedServing {
  explicit RoutedTracedServing(const ReuseWorkload& w)
      : engine(&w.db, &w.optimizer), manager(Options()) {
    engine.SetObs(&registry);
    manager.SetObs(ObsHooks{&tracer, &registry});
    for (const WorkloadInstance& wi : w.Warm()) {
      manager.OnInstance(key, wi, &engine);
      manager.FlushAll();
    }
    // Two passes: misses of the first feed the cache; the second keeps
    // the probes that now hit and warms this thread's ring and arena.
    for (int pass = 0; pass < 2; ++pass) {
      hits.clear();
      for (const WorkloadInstance& wi : w.Probes()) {
        PlanChoice c = manager.OnInstance(key, wi, &engine);
        if (!c.optimized && !c.degraded) hits.push_back(wi);
      }
      manager.FlushAll();
    }
  }

  static PqoManagerOptions Options() {
    PqoManagerOptions opts;
    opts.use_async = true;
    opts.default_lambda = 2.0;
    opts.num_shards = 2;
    return opts;
  }

  const std::string key = "join";
  RingTracer tracer;
  MetricsRegistry registry;
  EngineContext engine;
  PqoManager manager;
  std::vector<WorkloadInstance> hits;
};

TEST(ScrZeroAllocTest, TracedRoutedPathAllocatesNothing) {
  // The routed product decision — template lookup, AsyncScr's shared
  // lock, the checks and the emit — with a tracer and metrics attached.
  ReuseWorkload w;
  RoutedTracedServing serving(w);
  ASSERT_FALSE(serving.hits.empty());
  const int64_t allocs_before = t_heap_allocs;
  for (int rep = 0; rep < 20; ++rep) {
    for (const WorkloadInstance& wi : serving.hits) {
      PlanChoice c = serving.manager.OnInstance(serving.key, wi,
                                                &serving.engine);
      EXPECT_FALSE(c.optimized);
    }
  }
  EXPECT_EQ(t_heap_allocs, allocs_before)
      << "traced routed hits hit the heap on the serving thread";
}

TEST(TracedDecisionClockTest, RoutedHitsReuseStageStamps) {
  // Tracing reads the clock only in the stage timers: the attempt's
  // start, the event's wall time and scr.get_plan_micros reuse their
  // stamps. A routed sel-check hit reads it 4 times (shard wait and
  // sel_check, start and stop), a cost-check hit 6 (plus batch_recost).
  ReuseWorkload w;
  RoutedTracedServing serving(w);
  int sel_hits = 0;
  int cost_hits = 0;
  for (const WorkloadInstance& wi : serving.hits) {
    const uint64_t before = ObsClock::Reads();
    PlanChoice c = serving.manager.OnInstance(serving.key, wi,
                                              &serving.engine);
    const uint64_t reads = ObsClock::Reads() - before;
    ASSERT_FALSE(c.optimized);
    if (c.recost_calls_in_get_plan == 0) {
      ++sel_hits;
      EXPECT_LE(reads, 4u) << "sel-check hit, instance " << wi.id;
    } else {
      ++cost_hits;
      EXPECT_LE(reads, 6u) << "cost-check hit, instance " << wi.id;
    }
  }
  EXPECT_GT(sel_hits, 0);
  EXPECT_GT(cost_hits, 0);
}

// ---------------------------------------------------------------------------
// Concurrency: EvalMany readers race a mutating writer under the
// PlanStore locking discipline (shared readers, exclusive rebuilds). Run
// under TSan by the concurrency CI job.
// ---------------------------------------------------------------------------

TEST(RecostBundleConcurrencyTest, RebuildRacesReaders) {
  Database db = testing::MakeSmallDatabase(20000, 500);
  auto tmpl = testing::MakeJoinTemplate();
  Optimizer optimizer(&db);
  const CostParams& params = optimizer.cost_model().params();
  Pcg32 rng(31);
  std::vector<std::unique_ptr<CachedPlan>> plans;
  for (int i = 0; i < 8; ++i) {
    QueryInstance q = InstanceForSelectivities(
        db, *tmpl,
        {rng.UniformDouble(0.001, 1.0), rng.UniformDouble(0.001, 1.0)});
    plans.push_back(
        std::make_unique<CachedPlan>(MakeCachedPlan(optimizer.Optimize(q))));
  }

  SharedMutex mu;
  RecostBundle bundle;
  std::vector<int> live_ids;
  {
    WriterMutexLock lock(mu);
    for (size_t i = 0; i < plans.size(); ++i) {
      ASSERT_TRUE(bundle.Add(static_cast<int>(i), &plans[i]->program));
      live_ids.push_back(static_cast<int>(i));
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<int64_t> mismatches{0};
  std::atomic<int64_t> reads{0};

  auto reader = [&](uint64_t seed) {
    Pcg32 r(seed);
    while (!stop.load(std::memory_order_acquire)) {
      SVector sv{r.UniformDouble(0.001, 1.0), r.UniformDouble(0.001, 1.0)};
      ReaderMutexLock lock(mu);
      if (live_ids.empty()) continue;
      std::vector<double> costs(live_ids.size());
      bundle.EvalMany(std::span<const int>(live_ids), sv, params,
                      std::span<double>(costs),
                      [](size_t, double) { return true; });
      for (size_t i = 0; i < live_ids.size(); ++i) {
        double flat = plans[static_cast<size_t>(live_ids[i])]->program.Run(
            sv, params);
        if (std::abs(costs[i] - flat) > std::abs(flat) * 1e-9) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::thread r1(reader, 101), r2(reader, 202);
  // Start the writer only once a reader is in flight: on a loaded host the
  // 300 cycles can otherwise finish before either reader is scheduled,
  // and the race under test never happens.
  while (reads.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  // Writer: evict/re-admit cycles that repeatedly trip the tombstone
  // compaction (a full dense rebuild) while the readers are in flight.
  for (int cycle = 0; cycle < 300; ++cycle) {
    WriterMutexLock lock(mu);
    if (live_ids.size() > 2) {
      for (int k = 0; k < 3 && live_ids.size() > 2; ++k) {
        int victim = live_ids[static_cast<size_t>(cycle + k) %
                              live_ids.size()];
        bundle.Remove(victim);
        live_ids.erase(
            std::find(live_ids.begin(), live_ids.end(), victim));
      }
    } else {
      for (size_t i = 0; i < plans.size(); ++i) {
        int id = static_cast<int>(i);
        if (!bundle.Contains(id)) {
          ASSERT_TRUE(bundle.Add(id, &plans[i]->program));
          live_ids.push_back(id);
        }
      }
    }
  }
  stop.store(true, std::memory_order_release);
  r1.join();
  r2.join();

  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(bundle.rebuilds(), 1);
}

}  // namespace
}  // namespace scrpqo
