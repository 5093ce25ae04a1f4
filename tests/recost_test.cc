// The Recost API (paper Appendix B) and the allocation-free serving path
// built on it. RecostService must agree with the optimizer and with the
// CostModel::RecostTree oracle, bill exactly the plans its visitor sees,
// and run on a fixed stack; the warmed getPlan reuse path around it must
// not touch the heap (asserted through the ScratchArena watermark plus a
// global operator-new counter), and the plan store must not grow under
// store/drop churn (asserted through the counter's live-byte total).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "common/math_util.h"
#include "common/rng.h"
#include "common/scratch_arena.h"
#include "obs/metrics_registry.h"
#include "obs/ring_tracer.h"
#include "obs/span.h"
#include "optimizer/optimizer.h"
#include "optimizer/recost.h"
#include "pqo/plan_store.h"
#include "pqo/pqo_manager.h"
#include "pqo/scr.h"
#include "query/query_instance.h"
#include "tests/test_util.h"

// ---------------------------------------------------------------------------
// Global operator-new counter. Replacing the global allocator in one TU
// covers the whole test binary; the override only counts and forwards, so
// every other test is unaffected. The zero-allocation tests read the
// counters around their measured windows: the process-wide one, or the
// calling thread's own where background threads (the trace exporter,
// AsyncScr workers) run alongside the serving thread. Each block also
// carries its size in a header, so every delete form can keep a
// process-wide total of live bytes.
// ---------------------------------------------------------------------------

static std::atomic<int64_t> g_heap_allocs{0};
static std::atomic<int64_t> g_live_heap_bytes{0};
static thread_local int64_t t_heap_allocs = 0;

// A multiple of the default new alignment, so the user block stays aligned.
static constexpr std::size_t kSizeHeader = alignof(std::max_align_t);

static void* CountedMalloc(std::size_t n) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  ++t_heap_allocs;
  void* block = std::malloc(n + kSizeHeader);
  if (block == nullptr) return nullptr;
  *static_cast<std::size_t*>(block) = n;
  g_live_heap_bytes.fetch_add(static_cast<int64_t>(n),
                              std::memory_order_relaxed);
  return static_cast<char*>(block) + kSizeHeader;
}

static void* CountedAlloc(std::size_t n) {
  void* p = CountedMalloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

static void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  char* block = static_cast<char*>(p) - kSizeHeader;
  g_live_heap_bytes.fetch_sub(
      static_cast<int64_t>(*reinterpret_cast<std::size_t*>(block)),
      std::memory_order_relaxed);
  std::free(block);
}

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedMalloc(n);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace scrpqo {
namespace {

class RecostTest : public ::testing::Test {
 protected:
  RecostTest()
      : db_(testing::MakeSmallDatabase(20000, 500)),
        tmpl_(testing::MakeJoinTemplate()),
        optimizer_(&db_) {}

  QueryInstance Instance(double s0, double s1) {
    return InstanceForSelectivities(db_, *tmpl_, {s0, s1});
  }

  Database db_;
  std::shared_ptr<QueryTemplate> tmpl_;
  Optimizer optimizer_;
};

TEST_F(RecostTest, RecostAtOwnInstanceEqualsOptimizedCost) {
  // The core engine invariant: Recost(Popt(q), q) == Cost(Popt(q), q) as
  // reported by the optimizer. SCR's cost check depends on it.
  for (double s0 : {0.01, 0.2, 0.7}) {
    for (double s1 : {0.05, 0.5, 0.95}) {
      QueryInstance q = Instance(s0, s1);
      OptimizationResult r = optimizer_.Optimize(q);
      CachedPlan cached = MakeCachedPlan(r);
      RecostService recost(&optimizer_.cost_model());
      double c = recost.Recost(cached, r.svector);
      EXPECT_NEAR(c, r.cost, r.cost * 1e-9) << "s0=" << s0 << " s1=" << s1;
    }
  }
}

TEST_F(RecostTest, RecostAtOtherInstanceUpperBoundsOptimal) {
  // Re-costing qa's plan at qb can never beat qb's optimal cost.
  QueryInstance qa = Instance(0.01, 0.9);
  QueryInstance qb = Instance(0.7, 0.1);
  OptimizationResult ra = optimizer_.Optimize(qa);
  OptimizationResult rb = optimizer_.Optimize(qb);
  CachedPlan cached = MakeCachedPlan(ra);
  RecostService recost(&optimizer_.cost_model());
  double c = recost.Recost(cached, rb.svector);
  EXPECT_GE(c, rb.cost * 0.999);
}

TEST_F(RecostTest, CountsCalls) {
  OptimizationResult r = optimizer_.Optimize(Instance(0.3, 0.3));
  CachedPlan cached = MakeCachedPlan(r);
  RecostService recost(&optimizer_.cost_model());
  EXPECT_EQ(recost.num_calls(), 0);
  (void)recost.Recost(cached, r.svector);
  (void)recost.Recost(cached, r.svector);
  EXPECT_EQ(recost.num_calls(), 2);
  recost.ResetCounters();
  EXPECT_EQ(recost.num_calls(), 0);
}

TEST_F(RecostTest, ShrunkenMemoPruningIsSubstantial) {
  // Appendix B reports >= 70% of the memo pruned when caching the final
  // plan; our retained-nodes vs costed-expressions ratio shows the same.
  OptimizationResult r = optimizer_.Optimize(Instance(0.2, 0.4));
  CachedPlan cached = MakeCachedPlan(r);
  EXPECT_GT(cached.memo_physical_exprs, cached.retained_nodes);
  EXPECT_GE(cached.PruningRatio(), 0.5) << "memo=" << cached.memo_physical_exprs
                                        << " plan=" << cached.retained_nodes;
}

TEST_F(RecostTest, RecostMuchFasterThanOptimize) {
  // Section 1/7.3: Recost is up to two orders of magnitude faster than an
  // optimizer call. Require at least 10x here to stay robust under CI noise.
  QueryInstance q = Instance(0.2, 0.4);
  OptimizationResult r = optimizer_.Optimize(q);
  CachedPlan cached = MakeCachedPlan(r);
  RecostService recost(&optimizer_.cost_model());

  const int kIters = 200;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    optimizer_.OptimizeWithSVector(q, r.svector);
  }
  auto t1 = std::chrono::steady_clock::now();
  double sink = 0.0;
  for (int i = 0; i < kIters; ++i) {
    sink += recost.Recost(cached, r.svector);
  }
  auto t2 = std::chrono::steady_clock::now();
  double opt_ns = std::chrono::duration<double>(t1 - t0).count();
  double recost_ns = std::chrono::duration<double>(t2 - t1).count();
  EXPECT_GT(sink, 0.0);
  EXPECT_GT(opt_ns / recost_ns, 10.0)
      << "optimize=" << opt_ns << "s recost=" << recost_ns << "s";
}

TEST_F(RecostTest, ParameterizedLeavesRebind) {
  // Moving only dimension 0 changes recost; untouched dimensions do not.
  OptimizationResult r = optimizer_.Optimize(Instance(0.2, 0.4));
  CachedPlan cached = MakeCachedPlan(r);
  RecostService recost(&optimizer_.cost_model());
  double base = recost.Recost(cached, r.svector);
  SVector moved = r.svector;
  moved[0] *= 2.0;
  EXPECT_GT(recost.Recost(cached, moved), base);
  SVector same = r.svector;
  EXPECT_EQ(recost.Recost(cached, same), base);
}

TEST_F(RecostTest, CachedPlanSignatureMatchesPlan) {
  OptimizationResult r = optimizer_.Optimize(Instance(0.3, 0.3));
  CachedPlan cached = MakeCachedPlan(r);
  EXPECT_EQ(cached.signature, PlanSignatureHash(*r.plan));
}

// ---------------------------------------------------------------------------
// RecostService::RecostMany: one Run per plan, stopped by the visitor.
// ---------------------------------------------------------------------------

using RecostServiceTest = RecostTest;

TEST_F(RecostServiceTest, EarlyExitBillsVisitedPlansOnly) {
  // Join-template plans at spread-out operating points.
  Pcg32 rng(77);
  std::vector<CachedPlan> plans;
  for (int i = 0; i < 10; ++i) {
    plans.push_back(MakeCachedPlan(optimizer_.Optimize(Instance(
        rng.UniformDouble(0.001, 1.0), rng.UniformDouble(0.001, 1.0)))));
  }
  std::vector<const CachedPlan*> ptrs;
  for (const CachedPlan& p : plans) ptrs.push_back(&p);
  const CostParams& params = optimizer_.cost_model().params();
  RecostService recost(&optimizer_.cost_model());
  const SVector sv{0.25, 0.6};
  for (size_t stop_at = 0; stop_at < plans.size(); ++stop_at) {
    recost.ResetCounters();
    std::vector<double> costs(plans.size(), -1.0);
    size_t seen = 0;
    size_t visited = recost.RecostMany(
        ptrs, sv, std::span<double>(costs), [&](size_t idx, double) {
          ++seen;
          return idx != stop_at;  // stop after visiting stop_at
        });
    // Billing parity with the one-Recost-per-plan loop: exactly the plans
    // the visitor saw.
    EXPECT_EQ(visited, stop_at + 1);
    EXPECT_EQ(seen, stop_at + 1);
    EXPECT_EQ(recost.num_calls(), static_cast<int64_t>(stop_at + 1));
    for (size_t i = 0; i < plans.size(); ++i) {
      if (i <= stop_at) {
        EXPECT_EQ(costs[i], plans[i].program.Run(sv, params)) << i;
      } else {
        EXPECT_EQ(costs[i], -1.0) << "plan " << i << " past the stop";
      }
    }
  }
}

TEST_F(RecostServiceTest, DeepPlanRunsOnTheStackWithoutAllocating) {
  // One scan under 100 Sorts: 101 ops at stack depth 1. Op count does not
  // bound the value stack, leaves do, so this runs on Run's fixed arrays.
  auto scan = std::make_shared<PhysicalPlanNode>();
  scan->kind = PhysicalOpKind::kTableScan;
  scan->leaf.table = "fact";
  scan->leaf.base_rows = 20000.0;
  PredSpec pred;
  pred.param_slot = 0;
  scan->leaf.preds.push_back(pred);
  PlanPtr root = scan;
  for (int i = 0; i < 100; ++i) {
    auto sort = std::make_shared<PhysicalPlanNode>();
    sort->kind = PhysicalOpKind::kSort;
    sort->children.push_back(root);
    root = sort;
  }
  OptimizationResult result;
  result.plan = root;
  const CachedPlan cached = MakeCachedPlan(result);
  ASSERT_EQ(cached.program.num_nodes(), 101);
  RecostService recost(&optimizer_.cost_model());
  const SVector sv{0.3, 0.7};
  const int64_t allocs_before = t_heap_allocs;
  const double cost = recost.Recost(cached, sv);
  EXPECT_EQ(t_heap_allocs, allocs_before) << "deep plan recost hit the heap";
  const double tree = optimizer_.cost_model().RecostTree(*root, sv);
  EXPECT_NEAR(cost, tree, tree * 1e-9);
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
  Scr scr(opts);

  // Warm-up traffic: populate the cache.
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

TEST(ScrZeroAllocTest, WarmedMissesOverALargeTableAllocateNothing) {
  // 1,200 entries at d = 4 and probes that pass no selectivity check: each
  // measured decision scans the whole table, keeps a (distance, position)
  // pair per entry, shortlists the cost-check candidates and recosts 8 of
  // them, all in the thread's arena.
  ReuseWorkload w;
  std::shared_ptr<QueryTemplate> tmpl = testing::MakeJoinTemplate();
  PredicateTemplate weight;
  weight.table_index = 0;
  weight.column = "f_weight";
  weight.param_slot = 2;
  ASSERT_TRUE(tmpl->AddPredicate(weight).ok());
  PredicateTemplate key;
  key.table_index = 1;
  key.column = "d_key";
  key.param_slot = 3;
  ASSERT_TRUE(tmpl->AddPredicate(key).ok());
  ASSERT_EQ(tmpl->dimensions(), 4);

  Pcg32 rng(44);
  auto random_sv = [&rng] {
    SVector sv;
    for (int k = 0; k < 4; ++k) {
      sv.push_back(std::exp(rng.UniformDouble(std::log(1e-3), 0.0)));
    }
    return sv;
  };
  std::vector<PlanPtr> plans;
  for (int i = 0; i < 12; ++i) {
    const SVector s = random_sv();
    QueryInstance qi = InstanceForSelectivities(w.db, *tmpl, s);
    plans.push_back(w.optimizer
                        .OptimizeWithSVector(qi,
                                             ComputeSelectivityVector(w.db, qi))
                        .plan);
  }
  std::vector<Scr::SnapshotEntry> entries;
  for (int i = 0; i < 1200; ++i) {
    Scr::SnapshotEntry e;
    e.v = random_sv();
    e.plan_ordinal = i % static_cast<int>(plans.size());
    e.opt_cost = rng.UniformDouble(10.0, 1e4);
    e.subopt = 1.0;
    e.usage = 1;
    entries.push_back(std::move(e));
  }
  ScrOptions opts;
  opts.lambda = 1.05;
  Scr scr(opts);
  ASSERT_TRUE(scr.Restore(plans, entries).ok());
  ASSERT_GE(scr.NumInstancesStored(), 1000);

  std::vector<WorkloadInstance> probes(16);
  for (size_t i = 0; i < probes.size(); ++i) {
    probes[i].id = static_cast<int>(i);
    probes[i].svector = random_sv();
  }
  EngineContext engine(&w.db, &w.optimizer);
  // Priming pass: grows the arena to this workload's high-water mark.
  for (const WorkloadInstance& wi : probes) {
    PlanChoice choice;
    (void)scr.TryReuse(wi, &engine, &choice);
  }

  const int64_t watermark_before = ScratchArena::Tls().watermark();
  const int64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  int full_scans = 0;
  for (int rep = 0; rep < 20; ++rep) {
    for (const WorkloadInstance& wi : probes) {
      PlanChoice choice;
      (void)scr.TryReuse(wi, &engine, &choice);
      // Recosts mean no selectivity-check hit: the whole table was scanned.
      if (choice.recost_calls_in_get_plan > 0 &&
          choice.cost_check_candidates_in_get_plan == 8) {
        ++full_scans;
      }
    }
  }
  const int64_t allocs_after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(ScratchArena::Tls().watermark(), watermark_before)
      << "warmed misses grew the scratch arena";
  EXPECT_EQ(allocs_after, allocs_before) << "warmed misses hit the heap";
  EXPECT_EQ(full_scans, 20 * static_cast<int>(probes.size()));
}

/// A PqoManager with production observability, warmed on the workload,
/// plus the probes that it serves as hits. `use_async` picks deferred or
/// inline manageCache.
struct RoutedTracedServing {
  explicit RoutedTracedServing(const ReuseWorkload& w, bool use_async = true)
      : engine(&w.db, &w.optimizer), manager(Options(use_async)) {
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

  static PqoManagerOptions Options(bool use_async) {
    PqoManagerOptions opts;
    opts.use_async = use_async;
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
  // lock, the checks and the emit — with a tracer and metrics attached,
  // under inline and deferred manageCache.
  ReuseWorkload w;
  for (const bool use_async : {false, true}) {
    SCOPED_TRACE(use_async ? "deferred manageCache" : "inline manageCache");
    RoutedTracedServing serving(w, use_async);
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
}

TEST(TracedDecisionClockTest, RoutedHitsReuseStageStamps) {
  // Tracing reads the clock only in the stage timers: the attempt's
  // start, the event's wall time and scr.get_plan_micros reuse their
  // stamps, and routing reads none. A routed sel-check hit reads it twice
  // (sel_check start and stop), a cost-check hit 4 times (plus
  // batch_recost).
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
      EXPECT_LE(reads, 2u) << "sel-check hit, instance " << wi.id;
    } else {
      ++cost_hits;
      EXPECT_LE(reads, 4u) << "cost-check hit, instance " << wi.id;
    }
  }
  EXPECT_GT(sel_hits, 0);
  EXPECT_GT(cost_hits, 0);
}

TEST(StageHistogramTest, RoutedTrafficRegistersOnlyTheSelCheckStage) {
  // Of the stage timers, only the selectivity check records into a
  // "stage.*" histogram; the other stages time into their layers' own
  // histograms (engine.*_micros, scr.manage_cache_micros), so no other
  // stage.* series may sit in the export at count 0.
  ReuseWorkload w;
  RoutedTracedServing serving(w, /*use_async=*/false);
  for (const WorkloadInstance& wi : serving.hits) {
    (void)serving.manager.OnInstance(serving.key, wi, &serving.engine);
  }
  const RegistrySnapshot snap = serving.registry.Snapshot();
  int stage_series = 0;
  for (const HistogramSnapshot& h : snap.histograms) {
    if (h.name.rfind("stage.", 0) != 0) continue;
    ++stage_series;
    EXPECT_EQ(h.name, "stage.sel_check_micros");
    EXPECT_GT(h.count, 0) << h.name;
  }
  EXPECT_EQ(stage_series, 1);
}

TEST(PlanStoreHeapTest, StoreDropChurnKeepsLiveBytesFlat) {
  // The store keeps only live plans: after 100,000 store/drop cycles
  // (distinct signatures; lambda_r < 1, so nothing is recosted) the heap
  // holds what it held after the first 1,000.
  ReuseWorkload w;
  const WorkloadInstance wi = w.Make(0, 0.2, 0.6);
  const OptimizationResult r = w.optimizer.Optimize(wi.instance);
  const CachedPlan base = MakeCachedPlan(r);
  PlanStore store;
  int64_t live_after_warmup = 0;
  for (int i = 0; i < 100000; ++i) {
    if (i == 1000) {
      live_after_warmup = g_live_heap_bytes.load(std::memory_order_relaxed);
    }
    CachedPlan plan = base;
    plan.signature = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i + 1);
    PlanStore::StoreResult stored =
        store.StoreOrReuse(plan, wi.svector, r.cost, -1.0, nullptr);
    ASSERT_FALSE(stored.already_present);
    ASSERT_EQ(stored.entry->id, i);
    store.Drop(stored.entry);
  }
  EXPECT_EQ(g_live_heap_bytes.load(std::memory_order_relaxed),
            live_after_warmup)
      << "store/drop churn left heap behind";
  EXPECT_EQ(store.NumLive(), 0);
  EXPECT_EQ(store.Peak(), 1);
}

}  // namespace
}  // namespace scrpqo
