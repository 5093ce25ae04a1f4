#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>

#include "pqo/plan_store.h"
#include "query/query_instance.h"
#include "tests/test_util.h"

namespace scrpqo {
namespace {

class PlanStoreTest : public ::testing::Test {
 protected:
  PlanStoreTest()
      : db_(testing::MakeSmallDatabase(20000, 500)),
        tmpl_(testing::MakeJoinTemplate()),
        optimizer_(&db_),
        engine_(&db_, &optimizer_) {}

  struct Optimized {
    CachedPlan plan;
    SVector sv;
    double cost;
  };

  Optimized OptimizeAt(double s0, double s1) {
    QueryInstance q = InstanceForSelectivities(db_, *tmpl_, {s0, s1});
    OptimizationResult r = optimizer_.Optimize(q);
    return {MakeCachedPlan(r), r.svector, r.cost};
  }

  Database db_;
  std::shared_ptr<QueryTemplate> tmpl_;
  Optimizer optimizer_;
  EngineContext engine_;
};

TEST_F(PlanStoreTest, StoresNewPlan) {
  PlanStore store;
  Optimized o = OptimizeAt(0.1, 0.5);
  auto r = store.StoreOrReuse(o.plan, o.sv, o.cost, -1.0, &engine_);
  EXPECT_GE(r.plan_id, 0);
  EXPECT_FALSE(r.already_present);
  EXPECT_FALSE(r.reused_existing);
  EXPECT_EQ(r.subopt, 1.0);
  EXPECT_EQ(store.NumLive(), 1);
  EXPECT_EQ(store.Peak(), 1);
}

TEST_F(PlanStoreTest, DetectsAlreadyPresent) {
  PlanStore store;
  Optimized a = OptimizeAt(0.10, 0.50);
  Optimized b = OptimizeAt(0.11, 0.51);  // same plan shape expected
  auto ra = store.StoreOrReuse(a.plan, a.sv, a.cost, -1.0, &engine_);
  auto rb = store.StoreOrReuse(b.plan, b.sv, b.cost, -1.0, &engine_);
  if (a.plan.signature == b.plan.signature) {
    EXPECT_TRUE(rb.already_present);
    EXPECT_EQ(ra.plan_id, rb.plan_id);
    EXPECT_EQ(store.NumLive(), 1);
  } else {
    EXPECT_EQ(store.NumLive(), 2);
  }
}

TEST_F(PlanStoreTest, RedundancyCheckReusesCloseEnoughPlan) {
  PlanStore store;
  Optimized a = OptimizeAt(0.10, 0.50);
  store.StoreOrReuse(a.plan, a.sv, a.cost, -1.0, &engine_);
  // Find an instance with a different optimal plan.
  for (double s0 : {0.001, 0.3, 0.6, 0.95}) {
    Optimized b = OptimizeAt(s0, 0.9);
    if (b.plan.signature == a.plan.signature) continue;
    // With an absurdly loose threshold the new plan must be rejected.
    auto r = store.StoreOrReuse(b.plan, b.sv, b.cost, 1e9, &engine_);
    EXPECT_TRUE(r.reused_existing);
    EXPECT_GE(r.subopt, 1.0);
    EXPECT_EQ(store.NumLive(), 1);
    return;
  }
  GTEST_SKIP() << "no second plan shape found at this scale";
}

TEST_F(PlanStoreTest, RedundancyCheckChargesRecostCalls) {
  PlanStore store;
  Optimized a = OptimizeAt(0.10, 0.50);
  store.StoreOrReuse(a.plan, a.sv, a.cost, -1.0, &engine_);
  int64_t before = engine_.num_recost_calls();
  Optimized b = OptimizeAt(0.9, 0.01);
  store.StoreOrReuse(b.plan, b.sv, b.cost, 1.5, &engine_);
  EXPECT_GT(engine_.num_recost_calls(), before);
}

TEST_F(PlanStoreTest, DropAndUsageTracking) {
  PlanStore store;
  Optimized a = OptimizeAt(0.01, 0.1);
  Optimized b = OptimizeAt(0.9, 0.9);
  auto ra = store.StoreOrReuse(a.plan, a.sv, a.cost, -1.0, &engine_);
  auto rb = store.StoreOrReuse(b.plan, b.sv, b.cost, -1.0, &engine_);
  if (a.plan.signature == b.plan.signature) {
    GTEST_SKIP() << "need two distinct plans";
  }
  store.AddUsage(ra.plan_id, 5);
  store.AddUsage(rb.plan_id, 2);
  EXPECT_EQ(store.MinUsagePlanId(), rb.plan_id);
  store.Drop(rb.plan_id);
  EXPECT_EQ(store.NumLive(), 1);
  EXPECT_EQ(store.Peak(), 2);  // peak is sticky
  EXPECT_EQ(store.MinUsagePlanId(), ra.plan_id);
  EXPECT_EQ(store.LivePlanIds().size(), 1u);
}

TEST_F(PlanStoreTest, DroppedSignatureCanBeReinserted) {
  PlanStore store;
  Optimized a = OptimizeAt(0.2, 0.2);
  auto r1 = store.StoreOrReuse(a.plan, a.sv, a.cost, -1.0, &engine_);
  store.Drop(r1.plan_id);
  auto r2 = store.StoreOrReuse(a.plan, a.sv, a.cost, -1.0, &engine_);
  EXPECT_FALSE(r2.already_present);
  EXPECT_NE(r2.plan_id, r1.plan_id);
  EXPECT_EQ(store.NumLive(), 1);
}

TEST_F(PlanStoreTest, DropReleasesThePlan) {
  PlanStore store;
  Optimized o = OptimizeAt(0.2, 0.6);
  auto r = store.StoreOrReuse(o.plan, o.sv, o.cost, -1.0, &engine_);
  // Held the way a PlanChoice serving the plan holds it.
  std::shared_ptr<const CachedPlan> served = store.entry(r.plan_id).plan;
  std::weak_ptr<const CachedPlan> watch = served;
  store.Drop(r.plan_id);
  EXPECT_EQ(store.entry(r.plan_id).plan, nullptr);
  EXPECT_FALSE(watch.expired()) << "a served plan must outlive its eviction";
  served.reset();
  EXPECT_TRUE(watch.expired()) << "the store kept an evicted plan alive";
}

TEST_F(PlanStoreTest, EntryOutOfRangeDies) {
  PlanStore store;
  Optimized o = OptimizeAt(0.2, 0.6);
  auto r = store.StoreOrReuse(o.plan, o.sv, o.cost, -1.0, &engine_);
  // Ids handed out by StoreOrReuse stay valid (even after Drop — dead
  // entries remain readable); anything else must abort, not index past
  // the entry vector.
  EXPECT_NO_FATAL_FAILURE((void)store.entry(r.plan_id));
  EXPECT_DEATH((void)store.entry(-1), "plan id out of range");
  EXPECT_DEATH((void)store.entry(r.plan_id + 1), "plan id out of range");
  EXPECT_DEATH(store.AddUsage(12345, 1), "plan id out of range");
}

TEST_F(PlanStoreTest, LiveListSkipsDeadPlansAndKeepsLowestIdTies) {
  // 1,000 plans (one optimized plan under distinct signatures) with usage
  // counts full of ties, every other one dropped: the live list holds the
  // survivors in ascending id order, and the LFU victim equals a scan over
  // every id ever stored, ties to the lowest id, with and without a pin.
  PlanStore store;
  const Optimized o = OptimizeAt(0.1, 0.5);
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    CachedPlan plan = o.plan;
    plan.signature = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i + 1);
    auto r = store.StoreOrReuse(plan, o.sv, o.cost, -1.0, &engine_);
    ASSERT_EQ(r.plan_id, i);
    store.AddUsage(i, (i * 37) % 11);
  }
  for (int i = 0; i < n; i += 2) store.Drop(i);

  const std::span<const int> live = store.LivePlanIds();
  ASSERT_EQ(live.size(), static_cast<size_t>(n / 2));
  EXPECT_EQ(store.NumLive(), n / 2);
  EXPECT_TRUE(std::adjacent_find(live.begin(), live.end(),
                                 [](int a, int b) { return a >= b; }) ==
              live.end())
      << "live ids are not strictly ascending";
  for (int id : live) {
    EXPECT_EQ(id % 2, 1);
    EXPECT_TRUE(store.entry(id).live);
  }

  const auto reference = [&](int exclude) {
    int best = -1;
    int64_t best_usage = std::numeric_limits<int64_t>::max();
    for (int id = 0; id < n; ++id) {
      const PlanStore::Entry& e = store.entry(id);
      if (!e.live || id == exclude) continue;
      if (e.total_usage.value() < best_usage) {
        best_usage = e.total_usage.value();
        best = id;
      }
    }
    return best;
  };
  const int victim = store.MinUsagePlanId();
  EXPECT_EQ(victim, reference(-1));
  EXPECT_EQ(victim, 11);  // the lowest odd id with usage 0
  for (int exclude : {victim, 0, 33, n - 1, n + 5}) {
    EXPECT_EQ(store.MinUsagePlanId(exclude), reference(exclude)) << exclude;
  }
  EXPECT_EQ(store.MinUsagePlanId(victim), 33);

  // Ids are never reused: the next plan gets a new id at the list's end.
  CachedPlan next = o.plan;
  next.signature = 42;
  auto r = store.StoreOrReuse(next, o.sv, o.cost, -1.0, &engine_);
  EXPECT_EQ(r.plan_id, n);
  EXPECT_EQ(store.LivePlanIds().back(), n);
  EXPECT_EQ(store.NumLive(), n / 2 + 1);
  EXPECT_EQ(store.Peak(), n);
}

TEST_F(PlanStoreTest, PeakTracksHighWaterMark) {
  PlanStore store;
  int stored = 0;
  for (double s0 : {0.001, 0.05, 0.3, 0.6, 0.95}) {
    Optimized o = OptimizeAt(s0, s0);
    auto r = store.StoreOrReuse(o.plan, o.sv, o.cost, -1.0, &engine_);
    if (!r.already_present) ++stored;
  }
  EXPECT_EQ(store.Peak(), stored);
  EXPECT_EQ(store.NumLive(), stored);
}

}  // namespace
}  // namespace scrpqo
