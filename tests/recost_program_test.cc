// Flat-program equivalence property: for every plan the optimizer can
// produce — across all four evaluation schemas, randomized templates,
// every physical-operator mask, and randomized re-cost points — the
// compiled RecostProgram must agree with the tree walker
// (CostModel::RecostTree) to 1e-9 relative. The flat path is what every
// cost check and redundancy sweep runs, so any divergence here silently
// breaks the paper's lambda guarantee.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "optimizer/optimizer.h"
#include "optimizer/recost.h"
#include "optimizer/recost_program.h"
#include "tests/test_util.h"
#include "workload/instance_gen.h"
#include "workload/schemas.h"
#include "workload/templates.h"

namespace scrpqo {
namespace {

bool ContainsKind(const PhysicalPlanNode& node, PhysicalOpKind kind) {
  if (node.kind == kind) return true;
  for (const auto& c : node.children) {
    if (c != nullptr && ContainsKind(*c, kind)) return true;
  }
  return false;
}

/// Compares the flat program against the tree walker at `sv`; writes the
/// tree cost to `tree_out` when non-null. Registers a gtest failure on
/// divergence.
void ExpectFlatMatchesTree(const CostModel& model, const CachedPlan& plan,
                           const SVector& sv, const char* what,
                           double* tree_out = nullptr) {
  double tree = model.RecostTree(*plan.plan, sv);
  if (tree_out != nullptr) *tree_out = tree;
  ASSERT_FALSE(plan.program.empty()) << what;
  double flat = plan.program.Run(sv, model.params());
  EXPECT_NEAR(flat, tree, std::abs(tree) * 1e-9)
      << what << "\n"
      << plan.plan->ToString();
}

/// Stats-only universe (no materialized rows — nothing executes here).
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

class RecostProgramPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  const BoundTemplate& Template() {
    return Universe::Get().templates[static_cast<size_t>(GetParam())];
  }
};

TEST_P(RecostProgramPropertyTest, FlatMatchesTreeAcrossMasksAndPoints) {
  const BoundTemplate& bt = Template();
  Pcg32 rng(4242 + static_cast<uint64_t>(GetParam()));
  int d = bt.tmpl->dimensions();
  // Every operator mask, so the sweep compiles HashJoin/MergeJoin/INLJ/
  // NaiveNLJ/IndexSeek/Sort/aggregate shapes, not just the default winner.
  for (int mask = 0; mask < 8; ++mask) {
    OptimizerOptions opts;
    opts.enable_merge_join = mask & 1;
    opts.enable_indexed_nlj = mask & 2;
    opts.enable_index_seek = mask & 4;
    Optimizer optimizer(&bt.db->db, opts);
    InstanceGenOptions gen;
    gen.m = 3;
    gen.seed = 7000 + static_cast<uint64_t>(GetParam() * 8 + mask);
    for (const auto& wi : GenerateInstances(bt, gen)) {
      OptimizationResult r =
          optimizer.OptimizeWithSVector(wi.instance, wi.svector);
      ASSERT_NE(r.plan, nullptr);
      CachedPlan cached = MakeCachedPlan(r);
      // At the optimized point the program must also reproduce the
      // optimizer's own cost (transitively, via the tree invariant).
      double tree = 0.0;
      ExpectFlatMatchesTree(optimizer.cost_model(), cached, wi.svector,
                            "optimized point", &tree);
      EXPECT_NEAR(tree, r.cost, r.cost * 1e-9);
      // Random re-cost points — the case the cache actually exercises.
      for (int k = 0; k < 8; ++k) {
        SVector moved(static_cast<size_t>(d));
        for (int dim = 0; dim < d; ++dim) {
          moved[static_cast<size_t>(dim)] = rng.UniformDouble(0.001, 1.0);
        }
        ExpectFlatMatchesTree(optimizer.cost_model(), cached, moved,
                              "random point");
      }
      // Extreme corners stress the kMinRows clamps and spill thresholds.
      ExpectFlatMatchesTree(optimizer.cost_model(), cached,
                            SVector(static_cast<size_t>(d), 1e-7),
                            "all-tiny corner");
      ExpectFlatMatchesTree(optimizer.cost_model(), cached,
                            SVector(static_cast<size_t>(d), 1.0),
                            "all-one corner");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Templates, RecostProgramPropertyTest,
                         ::testing::Range(0, 16));

class RecostProgramTest : public ::testing::Test {
 protected:
  RecostProgramTest()
      : db_(testing::MakeSmallDatabase(20000, 500)) {}

  Database db_;
};

TEST_F(RecostProgramTest, SingleLeafPlan) {
  // Degenerate one-node program: a single parameterized scan.
  auto tmpl = testing::MakeScanTemplate();
  Optimizer optimizer(&db_);
  QueryInstance q = InstanceForSelectivities(db_, *tmpl, {0.3});
  OptimizationResult r = optimizer.Optimize(q);
  ASSERT_NE(r.plan, nullptr);
  CachedPlan cached = MakeCachedPlan(r);
  ASSERT_FALSE(cached.program.empty());
  EXPECT_EQ(cached.program.num_nodes(), r.plan->NodeCount());
  for (double s : {1e-9, 0.01, 0.3, 0.9999, 1.0}) {
    SVector sv{s};
    double tree = optimizer.cost_model().RecostTree(*r.plan, sv);
    EXPECT_NEAR(cached.program.Run(sv, optimizer.cost_model().params()),
                tree, tree * 1e-9)
        << "s=" << s;
  }
}

TEST_F(RecostProgramTest, InljInnerBindingRebinds) {
  // The INLJ inner leaf never appears as a scanned child (only the outer
  // side is charged), but its parameterized selectivity still scales the
  // join output. Force an INLJ-winning shape — tiny outer, big inner so a
  // hash build is hopeless — and move the inner dimension.
  Database big = testing::MakeSmallDatabase(/*fact_rows=*/2000,
                                            /*dim_rows=*/100000);
  auto tmpl = testing::MakeJoinTemplate();
  OptimizerOptions opts;
  opts.enable_merge_join = false;
  opts.enable_naive_nlj = false;
  Optimizer optimizer(&big, opts);
  OptimizationResult r;
  bool found = false;
  for (double s0 : {0.001, 0.005, 0.02, 0.1}) {
    QueryInstance q = InstanceForSelectivities(big, *tmpl, {s0, 0.4});
    r = optimizer.Optimize(q);
    ASSERT_NE(r.plan, nullptr);
    if (ContainsKind(*r.plan, PhysicalOpKind::kIndexedNestedLoopsJoin)) {
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "no operating point produced an INLJ plan:\n"
                     << r.plan->ToString();
  CachedPlan cached = MakeCachedPlan(r);
  const CostModel& model = optimizer.cost_model();
  double base = cached.program.Run(r.svector, model.params());
  EXPECT_NEAR(base, model.RecostTree(*r.plan, r.svector), base * 1e-9);
  for (double s1 : {0.01, 0.1, 0.4, 0.8, 1.0}) {
    SVector moved = r.svector;
    moved[1] = s1;
    double tree = model.RecostTree(*r.plan, moved);
    EXPECT_NEAR(cached.program.Run(moved, model.params()), tree,
                tree * 1e-9)
        << "s1=" << s1;
  }
}

TEST_F(RecostProgramTest, MemoryBytesIsExactAfterCompile) {
  // Compile shrinks ops_/slots_ to fit, so memory_bytes() must equal the
  // size-based expectation exactly — no growth-policy overshoot inflating
  // PqoManager's global_memory_bytes eviction pressure.
  auto tmpl = testing::MakeJoinTemplate();
  Optimizer optimizer(&db_);
  for (double s : {0.01, 0.2, 0.7}) {
    QueryInstance q = InstanceForSelectivities(db_, *tmpl, {s, 0.3});
    OptimizationResult r = optimizer.Optimize(q);
    ASSERT_NE(r.plan, nullptr);
    CachedPlan cached = MakeCachedPlan(r);
    const RecostProgram& p = cached.program;
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p.memory_bytes(),
              static_cast<int64_t>(p.num_nodes()) *
                      static_cast<int64_t>(RecostProgram::kOpBytes) +
                  static_cast<int64_t>(p.num_binding_slots()) *
                      static_cast<int64_t>(sizeof(int32_t)))
        << "s=" << s;
  }
}

TEST_F(RecostProgramTest, MaxBindingSlotAndEmpty) {
  RecostProgram fresh;
  EXPECT_TRUE(fresh.empty());
  EXPECT_EQ(fresh.max_binding_slot(), -1);
  auto tmpl = testing::MakeJoinTemplate();
  Optimizer optimizer(&db_);
  QueryInstance q = InstanceForSelectivities(db_, *tmpl, {0.2, 0.2});
  OptimizationResult r = optimizer.Optimize(q);
  CachedPlan cached = MakeCachedPlan(r);
  EXPECT_EQ(cached.program.max_binding_slot(), 1);
  // A too-short sVector must trip the bounds check, not read garbage.
  EXPECT_DEATH((void)cached.program.Run(SVector{0.5},
                                        optimizer.cost_model().params()),
               "selectivity vector too short");
}

/// A table scan with one predicate on sVector slot `slot`.
std::shared_ptr<PhysicalPlanNode> ScanLeaf(int slot = 0) {
  auto leaf = std::make_shared<PhysicalPlanNode>();
  leaf->kind = PhysicalOpKind::kTableScan;
  leaf->leaf.table = "fact";
  leaf->leaf.base_rows = 20000.0;
  PredSpec pred;
  pred.param_slot = slot;
  leaf->leaf.preds.push_back(pred);
  return leaf;
}

/// A right-deep hash-join chain over `leaves` scans: the scan holds one
/// value per leaf before the first join pops, the deepest shape a plan
/// with that many leaves can take.
PlanPtr RightDeepJoins(int leaves) {
  PlanPtr node = ScanLeaf();
  for (int i = 1; i < leaves; ++i) {
    auto join = std::make_shared<PhysicalPlanNode>();
    join->kind = PhysicalOpKind::kHashJoin;
    join->children = {ScanLeaf(), node};
    node = join;
  }
  return node;
}

TEST_F(RecostProgramTest, CompileAbortsBeyondTheStackBound) {
  // Every optimizer plan fits the fixed stack: kMaxPlanTables leaves.
  const PlanPtr widest = RightDeepJoins(RecostProgram::kMaxStackDepth);
  RecostProgram fits = RecostProgram::Compile(*widest);
  CostModel model;
  const SVector sv{0.4};
  const double tree = model.RecostTree(*widest, sv);
  EXPECT_NEAR(fits.Run(sv, model.params()), tree, tree * 1e-9);
  // One leaf more would overrun Run's stack arrays.
  const PlanPtr deeper = RightDeepJoins(RecostProgram::kMaxStackDepth + 1);
  EXPECT_FALSE(RecostProgram::Validate(*deeper, 1).ok());
  EXPECT_DEATH((void)RecostProgram::Compile(*deeper), "kMaxStackDepth");
}

TEST_F(RecostProgramTest, ValidateRejectsPlansCompileCannotTake) {
  EXPECT_TRUE(RecostProgram::Validate(*ScanLeaf(1), 2).ok());
  // A binding slot at or past the sVector's dimension, or below -1.
  EXPECT_FALSE(RecostProgram::Validate(*ScanLeaf(2), 2).ok());
  EXPECT_FALSE(RecostProgram::Validate(*ScanLeaf(-5), 2).ok());
  // A join with no children, and a scan with one.
  auto childless = std::make_shared<PhysicalPlanNode>();
  childless->kind = PhysicalOpKind::kHashJoin;
  EXPECT_FALSE(RecostProgram::Validate(*childless, 2).ok());
  auto parent_scan = ScanLeaf();
  parent_scan->children = {ScanLeaf()};
  EXPECT_FALSE(RecostProgram::Validate(*parent_scan, 2).ok());
  // A seek predicate outside the leaf's predicate list, also on an
  // IndexedNLJ inner that the flat program elides.
  auto seek = ScanLeaf();
  seek->kind = PhysicalOpKind::kIndexSeek;
  seek->leaf.seek_pred = 1;
  EXPECT_FALSE(RecostProgram::Validate(*seek, 2).ok());
  auto inlj = std::make_shared<PhysicalPlanNode>();
  inlj->kind = PhysicalOpKind::kIndexedNestedLoopsJoin;
  inlj->children = {ScanLeaf(), seek};
  EXPECT_FALSE(RecostProgram::Validate(*inlj, 2).ok());
  seek->leaf.seek_pred = 0;
  EXPECT_TRUE(RecostProgram::Validate(*inlj, 2).ok());
}

}  // namespace
}  // namespace scrpqo
