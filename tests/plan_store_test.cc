#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

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
  ASSERT_NE(r.entry, nullptr);
  EXPECT_EQ(r.entry->id, 0);
  EXPECT_EQ(r.entry->plan->signature, o.plan.signature);
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
    EXPECT_EQ(ra.entry, rb.entry);
    EXPECT_EQ(store.NumLive(), 1);
  } else {
    EXPECT_EQ(store.NumLive(), 2);
  }
}

TEST_F(PlanStoreTest, RedundancyCheckReusesCloseEnoughPlan) {
  PlanStore store;
  Optimized a = OptimizeAt(0.10, 0.50);
  auto ra = store.StoreOrReuse(a.plan, a.sv, a.cost, -1.0, &engine_);
  // Find an instance with a different optimal plan.
  for (double s0 : {0.001, 0.3, 0.6, 0.95}) {
    Optimized b = OptimizeAt(s0, 0.9);
    if (b.plan.signature == a.plan.signature) continue;
    // With an absurdly loose threshold the new plan must be rejected.
    auto r = store.StoreOrReuse(b.plan, b.sv, b.cost, 1e9, &engine_);
    EXPECT_TRUE(r.reused_existing);
    EXPECT_EQ(r.entry, ra.entry);
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
  ra.entry->total_usage.Add(5);
  rb.entry->total_usage.Add(2);
  EXPECT_EQ(store.MinUsage(), rb.entry);
  EXPECT_EQ(store.MinUsage(rb.entry), ra.entry);
  store.Drop(rb.entry);
  EXPECT_EQ(store.NumLive(), 1);
  EXPECT_EQ(store.Peak(), 2);  // peak is sticky
  EXPECT_EQ(store.MinUsage(), ra.entry);
  EXPECT_EQ(store.MinUsage(ra.entry), nullptr);
  EXPECT_EQ(store.FindBySignature(b.plan.signature), nullptr);
  EXPECT_EQ(store.FindBySignature(a.plan.signature), ra.entry);
  ASSERT_EQ(store.live().size(), 1u);
  EXPECT_EQ(store.live()[0].get(), ra.entry);
}

TEST_F(PlanStoreTest, DroppedSignatureCanBeReinserted) {
  PlanStore store;
  Optimized a = OptimizeAt(0.2, 0.2);
  auto r1 = store.StoreOrReuse(a.plan, a.sv, a.cost, -1.0, &engine_);
  const int first_id = r1.entry->id;
  store.Drop(r1.entry);
  auto r2 = store.StoreOrReuse(a.plan, a.sv, a.cost, -1.0, &engine_);
  EXPECT_FALSE(r2.already_present);
  EXPECT_NE(r2.entry->id, first_id);
  EXPECT_EQ(store.FindBySignature(a.plan.signature), r2.entry);
  EXPECT_EQ(store.NumLive(), 1);
}

TEST_F(PlanStoreTest, DropReleasesThePlan) {
  PlanStore store;
  Optimized o = OptimizeAt(0.2, 0.6);
  auto r = store.StoreOrReuse(o.plan, o.sv, o.cost, -1.0, &engine_);
  // Held the way a PlanChoice serving the plan holds it.
  std::shared_ptr<const CachedPlan> served = r.entry->plan;
  std::weak_ptr<const CachedPlan> watch = served;
  store.Drop(r.entry);
  EXPECT_EQ(store.NumLive(), 0);
  EXPECT_TRUE(store.live().empty());
  EXPECT_FALSE(watch.expired()) << "a served plan must outlive its eviction";
  served.reset();
  EXPECT_TRUE(watch.expired()) << "the store kept an evicted plan alive";
}

TEST_F(PlanStoreTest, LiveListSkipsDeadPlansAndKeepsLowestIdTies) {
  // 1,000 plans (one optimized plan under distinct signatures) with usage
  // counts full of ties, every other one dropped: the store lists the
  // survivors oldest first, and the LFU victim equals a scan over every
  // plan ever stored, ties to the oldest, with and without a pin.
  PlanStore store;
  const Optimized o = OptimizeAt(0.1, 0.5);
  const int n = 1000;
  std::vector<PlanStore::Entry*> stored;
  for (int i = 0; i < n; ++i) {
    CachedPlan plan = o.plan;
    plan.signature = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i + 1);
    auto r = store.StoreOrReuse(plan, o.sv, o.cost, -1.0, &engine_);
    ASSERT_EQ(r.entry->id, i);
    r.entry->total_usage.Add((i * 37) % 11);
    stored.push_back(r.entry);
  }
  for (int i = 0; i < n; i += 2) {
    store.Drop(stored[static_cast<size_t>(i)]);
    stored[static_cast<size_t>(i)] = nullptr;
  }

  const std::span<const std::unique_ptr<PlanStore::Entry>> live =
      store.live();
  ASSERT_EQ(live.size(), static_cast<size_t>(n / 2));
  EXPECT_EQ(store.NumLive(), n / 2);
  for (size_t k = 0; k < live.size(); ++k) {
    EXPECT_EQ(live[k]->id, static_cast<int>(2 * k + 1));
    EXPECT_EQ(live[k].get(), stored[2 * k + 1]);
  }

  const auto reference = [&](const PlanStore::Entry* exclude) {
    PlanStore::Entry* best = nullptr;
    int64_t best_usage = std::numeric_limits<int64_t>::max();
    for (PlanStore::Entry* e : stored) {
      if (e == nullptr || e == exclude) continue;
      if (e->total_usage.value() < best_usage) {
        best_usage = e->total_usage.value();
        best = e;
      }
    }
    return best;
  };
  PlanStore::Entry* const victim = store.MinUsage();
  EXPECT_EQ(victim, reference(nullptr));
  EXPECT_EQ(victim->id, 11);  // the oldest odd id with usage 0
  for (int pin : {11, 1, 33, n - 1}) {
    const PlanStore::Entry* exclude = stored[static_cast<size_t>(pin)];
    EXPECT_EQ(store.MinUsage(exclude), reference(exclude)) << pin;
  }
  EXPECT_EQ(store.MinUsage(victim)->id, 33);

  // Ids are never reused: the next plan gets a new id at the list's end.
  CachedPlan next = o.plan;
  next.signature = 42;
  auto r = store.StoreOrReuse(next, o.sv, o.cost, -1.0, &engine_);
  EXPECT_EQ(r.entry->id, n);
  EXPECT_EQ(store.live().back().get(), r.entry);
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
