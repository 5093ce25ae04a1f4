#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pqo/cache_persistence.h"
#include "query/query_instance.h"
#include "tests/test_util.h"
#include "workload/instance_gen.h"
#include "workload/named_templates.h"

namespace scrpqo {
namespace {

class CachePersistenceTest : public ::testing::Test {
 protected:
  CachePersistenceTest()
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

  /// Warms an SCR cache with a deterministic stream.
  void Warm(Scr* scr, EngineContext* engine, int m = 150) {
    Pcg32 rng(5);
    for (int i = 0; i < m; ++i) {
      scr->OnInstance(MakeWi(i, rng.UniformDouble(0.005, 0.95),
                             rng.UniformDouble(0.005, 0.95)),
                      engine);
    }
  }

  Database db_;
  std::shared_ptr<QueryTemplate> tmpl_;
  Optimizer optimizer_;
};

TEST_F(CachePersistenceTest, RoundTripPreservesCacheShape) {
  Scr scr(ScrOptions{.lambda = 1.5});
  EngineContext engine(&db_, &optimizer_);
  Warm(&scr, &engine);

  std::string snapshot = SaveScrCache(scr);
  Scr restored(ScrOptions{.lambda = 1.5});
  Status st = LoadScrCache(snapshot, *tmpl_, &restored);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(restored.NumPlansCached(), scr.NumPlansCached());
  EXPECT_EQ(restored.NumInstancesStored(), scr.NumInstancesStored());
}

TEST_F(CachePersistenceTest, RestoredCacheMakesSameDecisions) {
  Scr scr(ScrOptions{.lambda = 1.5});
  EngineContext engine(&db_, &optimizer_);
  Warm(&scr, &engine);

  Scr restored(ScrOptions{.lambda = 1.5});
  ASSERT_TRUE(LoadScrCache(SaveScrCache(scr), *tmpl_, &restored).ok());

  // A fresh probe stream must get identical reuse decisions and plans.
  EngineContext e1(&db_, &optimizer_);
  EngineContext e2(&db_, &optimizer_);
  Pcg32 rng(9);
  for (int i = 0; i < 80; ++i) {
    WorkloadInstance wi = MakeWi(1000 + i, rng.UniformDouble(0.005, 0.95),
                                 rng.UniformDouble(0.005, 0.95));
    PlanChoice a = scr.OnInstance(wi, &e1);
    PlanChoice b = restored.OnInstance(wi, &e2);
    EXPECT_EQ(a.optimized, b.optimized) << "instance " << i;
    EXPECT_EQ(a.plan->signature, b.plan->signature) << "instance " << i;
  }
  EXPECT_EQ(e1.num_optimizer_calls(), e2.num_optimizer_calls());
}

TEST_F(CachePersistenceTest, RestoreRequiresEmptyCache) {
  Scr scr(ScrOptions{.lambda = 1.5});
  EngineContext engine(&db_, &optimizer_);
  Warm(&scr, &engine, 30);
  std::string snapshot = SaveScrCache(scr);
  // Restoring into a non-empty cache is rejected.
  Status st = LoadScrCache(snapshot, *tmpl_, &scr);
  EXPECT_FALSE(st.ok());
}

TEST_F(CachePersistenceTest, RejectsMalformedSnapshots) {
  Scr scr(ScrOptions{.lambda = 1.5});
  EXPECT_FALSE(LoadScrCache("", *tmpl_, &scr).ok());
  EXPECT_FALSE(LoadScrCache("wrong-header\n", *tmpl_, &scr).ok());
  EXPECT_FALSE(LoadScrCache("scrpqo-cache-v1\nX junk\n", *tmpl_, &scr).ok());
  EXPECT_FALSE(LoadScrCache("scrpqo-cache-v1\nI 0 1.0 1.0 1 0 2 0.5\n",
                            *tmpl_, &scr)
                   .ok());
  // Instance referencing a plan ordinal that does not exist.
  EXPECT_FALSE(LoadScrCache("scrpqo-cache-v1\nI 3 1.0 1.0 1 0 1 0.5\n",
                            *tmpl_, &scr)
                   .ok());
}

TEST_F(CachePersistenceTest, FileRoundTrip) {
  Scr scr(ScrOptions{.lambda = 2.0});
  EngineContext engine(&db_, &optimizer_);
  Warm(&scr, &engine, 60);
  std::string path = ::testing::TempDir() + "/scrpqo_cache_test.txt";
  ASSERT_TRUE(SaveScrCacheToFile(scr, path).ok());
  Scr restored(ScrOptions{.lambda = 2.0});
  Status st = LoadScrCacheFromFile(path, *tmpl_, &restored);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(restored.NumPlansCached(), scr.NumPlansCached());
  std::remove(path.c_str());
}

// --- restore edge cases and corruption hardening ---

TEST_F(CachePersistenceTest, RejectsEntriesWithUnvalidatedFields) {
  // Every numeric field of an instance record is range-checked before it
  // can size an allocation or enter the cache. Pair each bad record with
  // a plan line so rejection is attributable to the field, not a missing
  // plan reference.
  Scr scr(ScrOptions{.lambda = 1.5});
  EngineContext engine(&db_, &optimizer_);
  Warm(&scr, &engine, 10);
  std::string snapshot = SaveScrCache(scr);
  std::string plan_line = snapshot.substr(snapshot.find("P "));
  plan_line = plan_line.substr(0, plan_line.find('\n') + 1);
  const std::string head = "scrpqo-cache-v1\n" + plan_line;

  auto rejects = [&](const std::string& entry) {
    Scr fresh(ScrOptions{.lambda = 1.5});
    return !LoadScrCache(head + entry, *tmpl_, &fresh).ok();
  };
  // A dimension count that would size a multi-GB resize.
  EXPECT_TRUE(rejects("I 0 1.0 1.0 1 0 4000000000 0.5\n"));
  EXPECT_TRUE(rejects("I 0 1.0 1.0 1 0 257 0.5\n"));  // > kMaxSnapshotDims
  EXPECT_TRUE(rejects("I 0 1.0 1.0 1 0 -1 0.5\n"));
  // Non-finite or out-of-(0,1] selectivities.
  EXPECT_TRUE(rejects("I 0 1.0 1.0 1 0 2 nan 0.5\n"));
  EXPECT_TRUE(rejects("I 0 1.0 1.0 1 0 2 inf 0.5\n"));
  EXPECT_TRUE(rejects("I 0 1.0 1.0 1 0 2 0.0 0.5\n"));
  EXPECT_TRUE(rejects("I 0 1.0 1.0 1 0 2 1.5 0.5\n"));
  EXPECT_TRUE(rejects("I 0 1.0 1.0 1 0 2 -0.5 0.5\n"));
  // Negative usage, bad opt_cost, bad subopt.
  EXPECT_TRUE(rejects("I 0 1.0 1.0 -3 0 2 0.5 0.5\n"));
  EXPECT_TRUE(rejects("I 0 0.0 1.0 1 0 2 0.5 0.5\n"));
  EXPECT_TRUE(rejects("I 0 -2.0 1.0 1 0 2 0.5 0.5\n"));
  EXPECT_TRUE(rejects("I 0 nan 1.0 1 0 2 0.5 0.5\n"));
  EXPECT_TRUE(rejects("I 0 1.0 0.5 1 0 2 0.5 0.5\n"));
  EXPECT_TRUE(rejects("I 0 1.0 inf 1 0 2 0.5 0.5\n"));
  // The well-formed control passes.
  Scr fresh(ScrOptions{.lambda = 1.5});
  EXPECT_TRUE(
      LoadScrCache(head + "I 0 1.0 1.2 1 0 2 0.5 0.5\n", *tmpl_, &fresh).ok());
}

TEST_F(CachePersistenceTest, RejectsDimensionMismatchedEntries) {
  Scr scr(ScrOptions{.lambda = 1.5});
  EngineContext engine(&db_, &optimizer_);
  Warm(&scr, &engine, 10);
  std::string snapshot = SaveScrCache(scr);
  std::string plan_line = snapshot.substr(snapshot.find("P "));
  plan_line = plan_line.substr(0, plan_line.find('\n') + 1);

  // Two internally-valid entries with different selectivity dimensions:
  // corruption a per-line parse cannot see, caught by Restore.
  Scr fresh(ScrOptions{.lambda = 1.5});
  Status st = LoadScrCache("scrpqo-cache-v1\n" + plan_line +
                               "I 0 1.0 1.2 1 0 2 0.5 0.5\n"
                               "I 0 1.0 1.2 1 0 3 0.5 0.5 0.5\n", *tmpl_,
                           &fresh);
  EXPECT_FALSE(st.ok());
}

TEST_F(CachePersistenceTest, LenientRestoreRequiresEmptyCacheToo) {
  Scr scr(ScrOptions{.lambda = 1.5});
  EngineContext engine(&db_, &optimizer_);
  Warm(&scr, &engine, 20);
  std::string snapshot = SaveScrCache(scr);
  SnapshotRestoreReport report;
  EXPECT_FALSE(LoadScrCacheLenient(snapshot, *tmpl_, &scr, &report).ok());
}

TEST_F(CachePersistenceTest, CostCheckDisabledSurvivesRoundTrip) {
  // Appendix-G quarantine flags must survive persistence: a restored
  // cache that forgot its quarantined entries would resume inferring
  // from instances known to violate the BCG assumption.
  Scr scr(ScrOptions{.lambda = 1.5});
  EngineContext engine(&db_, &optimizer_);
  Warm(&scr, &engine, 10);
  std::string snapshot = SaveScrCache(scr);
  std::string plan_line = snapshot.substr(snapshot.find("P "));
  plan_line = plan_line.substr(0, plan_line.find('\n') + 1);

  Scr loaded(ScrOptions{.lambda = 1.5});
  ASSERT_TRUE(LoadScrCache("scrpqo-cache-v1\n" + plan_line +
                               "I 0 1.0 1.2 4 1 2 0.5 0.5\n"
                               "I 0 2.0 1.1 2 0 2 0.25 0.75\n", *tmpl_,
                           &loaded)
                  .ok());
  std::vector<Scr::SnapshotEntry> entries = loaded.SnapshotInstances();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_TRUE(entries[0].cost_check_disabled);
  EXPECT_EQ(entries[0].usage, 4);
  EXPECT_FALSE(entries[1].cost_check_disabled);

  // And once more through the text format.
  Scr again(ScrOptions{.lambda = 1.5});
  ASSERT_TRUE(LoadScrCache(SaveScrCache(loaded), *tmpl_, &again).ok());
  entries = again.SnapshotInstances();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_TRUE(entries[0].cost_check_disabled);
  EXPECT_FALSE(entries[1].cost_check_disabled);
}

TEST_F(CachePersistenceTest, LenientRestoreKeepsValidPrefixAndReports) {
  Scr scr(ScrOptions{.lambda = 1.5});
  EngineContext engine(&db_, &optimizer_);
  Warm(&scr, &engine, 10);
  std::string snapshot = SaveScrCache(scr);
  std::string plan_line = snapshot.substr(snapshot.find("P "));
  plan_line = plan_line.substr(0, plan_line.find('\n') + 1);

  // Valid plan + one valid entry, then a rotted line, then a line that
  // would parse fine — everything after the first corruption is dropped
  // (a suffix that follows damage cannot be trusted).
  const std::string corrupt = "scrpqo-cache-v1\n" + plan_line +
                              "I 0 1.0 1.2 1 0 2 0.5 0.5\n"
                              "I 0 1.0 gibberish\n"
                              "I 0 1.0 1.2 1 0 2 0.25 0.25\n";
  Scr fresh(ScrOptions{.lambda = 1.5});
  SnapshotRestoreReport report;
  Status st = LoadScrCacheLenient(corrupt, *tmpl_, &fresh, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(report.plans_restored, 1);
  EXPECT_EQ(report.entries_restored, 1);
  EXPECT_EQ(report.records_dropped, 2);
  EXPECT_FALSE(report.first_error.empty());
  EXPECT_EQ(fresh.NumInstancesStored(), 1);

  // The strict loader refuses the same bytes outright.
  Scr strict(ScrOptions{.lambda = 1.5});
  EXPECT_FALSE(LoadScrCache(corrupt, *tmpl_, &strict).ok());

  // A pristine snapshot reports nothing dropped.
  Scr clean(ScrOptions{.lambda = 1.5});
  SnapshotRestoreReport clean_report;
  ASSERT_TRUE(
      LoadScrCacheLenient(snapshot, *tmpl_, &clean, &clean_report).ok());
  EXPECT_EQ(clean_report.records_dropped, 0);
  EXPECT_TRUE(clean_report.first_error.empty());
  EXPECT_EQ(clean.NumInstancesStored(), scr.NumInstancesStored());
}

TEST_F(CachePersistenceTest, LenientRestoreRejectsEntryBeforeItsPlan) {
  // Lenient mode still refuses an instance record that references a plan
  // the (possibly truncated) prefix has not produced.
  const std::string snapshot =
      "scrpqo-cache-v1\nI 0 1.0 1.2 1 0 2 0.5 0.5\n";
  Scr fresh(ScrOptions{.lambda = 1.5});
  SnapshotRestoreReport report;
  ASSERT_TRUE(LoadScrCacheLenient(snapshot, *tmpl_, &fresh, &report).ok());
  EXPECT_EQ(report.entries_restored, 0);
  EXPECT_EQ(report.records_dropped, 1);
}

// --- plans that cannot be recosted: rejected or dropped, never an abort ---

/// `snapshot` with `pattern`'s first match inside its `P` record number
/// `ordinal` replaced by `replacement` (ECMAScript $n references allowed).
std::string EditPlan(const std::string& snapshot, int ordinal,
                     const std::string& pattern,
                     const std::string& replacement) {
  size_t begin = snapshot.find("\nP ") + 1;
  for (int i = 0; i < ordinal; ++i) begin = snapshot.find("\nP ", begin) + 1;
  const size_t end = snapshot.find('\n', begin);
  const std::string plan = snapshot.substr(begin, end - begin);
  const std::string edited =
      std::regex_replace(plan, std::regex(pattern), replacement,
                         std::regex_constants::format_first_only);
  EXPECT_NE(edited, plan) << "pattern " << pattern << " did not match";
  return snapshot.substr(0, begin) + edited + snapshot.substr(end);
}

/// A parameterized predicate's slot: `{"column" op slot `, the slot a
/// non-negative number; group 1 is everything before it.
constexpr char kParamSlot[] = R"((\{"[^"]*" [0-9]+ )[0-9]+ )";

class CorruptPlanSnapshotTest : public CachePersistenceTest {
 protected:
  /// A real 2-d snapshot; its first plan is what the edits corrupt.
  std::string Snapshot() {
    Scr scr(ScrOptions{.lambda = 1.5});
    EngineContext engine(&db_, &optimizer_);
    Warm(&scr, &engine, 60);
    return SaveScrCache(scr);
  }

  /// The strict loader refuses `snapshot`; the lenient one keeps no plan
  /// (the bad one comes first, so the valid prefix holds no plan) and the
  /// cold cache still serves.
  void ExpectRejected(const std::string& snapshot) {
    Scr strict(ScrOptions{.lambda = 1.5});
    Status st = LoadScrCache(snapshot, *tmpl_, &strict);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();

    Scr lenient(ScrOptions{.lambda = 1.5});
    SnapshotRestoreReport report;
    st = LoadScrCacheLenient(snapshot, *tmpl_, &lenient, &report);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(report.plans_restored, 0);
    EXPECT_EQ(report.entries_restored, 0);
    EXPECT_GT(report.records_dropped, 0);
    EXPECT_FALSE(report.first_error.empty());
    EXPECT_EQ(lenient.NumPlansCached(), 0);
    EngineContext engine(&db_, &optimizer_);
    PlanChoice c = lenient.OnInstance(MakeWi(9000, 0.3, 0.6), &engine);
    EXPECT_NE(c.plan, nullptr);
  }
};

TEST_F(CorruptPlanSnapshotTest, ChildlessJoinIsRejected) {
  // The first leaf becomes a HashJoin (kind 4) with no children; Compile
  // used to abort on it ("join requires two children").
  ExpectRejected(EditPlan(Snapshot(), 0, R"(\([0-9]+ leaf\[([0-9]+) ")",
                          "(4 leaf[$1 \""));
}

TEST_F(CorruptPlanSnapshotTest, ParamSlotBeyondDimensionIsRejected) {
  // Slot 7 on a 2-d template; the tree walker used to abort on it in
  // CostModel::PredSelectivity.
  ExpectRejected(EditPlan(Snapshot(), 0, kParamSlot, "$017 "));
}

TEST_F(CorruptPlanSnapshotTest, NegativeParamSlotIsRejected) {
  // Slot -5 counts as parameterized (only -1 means literal), so the flat
  // program would read sv[-5].
  ExpectRejected(EditPlan(Snapshot(), 0, kParamSlot, "$01-5 "));
}

TEST_F(CorruptPlanSnapshotTest, ParamSlotOfAnotherPredicateIsRejected) {
  // The first parameterized predicate gets the template's other slot: both
  // are below d, so the plan recosts, but it would read the selectivity of
  // a predicate on another table.
  const std::string snapshot = Snapshot();
  std::smatch m;
  ASSERT_TRUE(std::regex_search(snapshot, m, std::regex(kParamSlot)));
  const char other = snapshot[static_cast<size_t>(m.position(0) +
                                                  m.length(1))] == '0'
                         ? '1'
                         : '0';
  ExpectRejected(EditPlan(snapshot, 0, kParamSlot,
                          std::string("$01") + other + " "));
}

TEST_F(CorruptPlanSnapshotTest, PlansWithoutEntriesAreRejected) {
  // No instance entry means no dimension to check the slots against.
  const std::string snapshot = Snapshot();
  const std::string plans_only = snapshot.substr(0, snapshot.find("\nI ") + 1);
  ExpectRejected(plans_only);
}

TEST_F(CorruptPlanSnapshotTest, LenientRestoreKeepsPlansBeforeTheBadOne) {
  const std::string snapshot = Snapshot();
  ASSERT_NE(snapshot.find("\nP ", snapshot.find("\nP ") + 1),
            std::string::npos)
      << "need two plans";
  // Corrupt the second plan: the first survives, with no entries (they
  // follow every plan in the file).
  const std::string edited = EditPlan(snapshot, 1, kParamSlot, "$017 ");
  Scr lenient(ScrOptions{.lambda = 1.5});
  SnapshotRestoreReport report;
  ASSERT_TRUE(LoadScrCacheLenient(edited, *tmpl_, &lenient, &report).ok());
  EXPECT_EQ(report.plans_restored, 1);
  EXPECT_EQ(report.entries_restored, 0);
  EXPECT_EQ(lenient.NumPlansCached(), 1);
}

TEST_F(CachePersistenceTest, MutatedSnapshotsLoadOrFailAndServe) {
  // Seeded byte-level mutations of a real snapshot (the trace parser's
  // pattern): erase, insert, overwrite, or splice in a token that breaks
  // a field's range. Both loaders must return a Status, never abort, and
  // every cache either one loads must serve a fixed probe set.
  static const char* const kSplices[] = {"-5", "7", "(4", "-1", "99999999999",
                                         "nan", "inf", "e300", " ", "\n",
                                         "{", ")", "P ", "I "};
  Scr scr(ScrOptions{.lambda = 1.5});
  EngineContext warm(&db_, &optimizer_);
  Warm(&scr, &warm, 60);
  const std::string snapshot = SaveScrCache(scr);
  std::vector<WorkloadInstance> probes;
  for (double s : {0.01, 0.2, 0.5, 0.9}) {
    probes.push_back(MakeWi(static_cast<int>(probes.size()), s, 1.0 - s));
  }
  Pcg32 rng(20170514);
  int strict_loaded = 0;
  int lenient_loaded = 0;
  constexpr int kMutations = 3000;
  for (int i = 0; i < kMutations; ++i) {
    std::string mutated = snapshot;
    const int edits = 1 + static_cast<int>(rng.UniformInt(0, 3));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      switch (rng.UniformInt(0, 3)) {
        case 0:
          mutated.erase(pos, 1);
          break;
        case 1:
          mutated.insert(pos, 1, static_cast<char>(rng.UniformInt(32, 126)));
          break;
        case 2:
          mutated[pos] = static_cast<char>(rng.UniformInt(0, 255));
          break;
        default:
          mutated.insert(pos, kSplices[rng.UniformInt(
                                  0, static_cast<int64_t>(
                                         std::size(kSplices)) - 1)]);
          break;
      }
      if (mutated.empty()) mutated = "\n";
    }
    auto serve = [&](Scr* loaded) {
      EngineContext engine(&db_, &optimizer_);
      for (const WorkloadInstance& wi : probes) {
        PlanChoice c = loaded->OnInstance(wi, &engine);
        EXPECT_NE(c.plan, nullptr) << "mutation " << i;
      }
    };
    Scr strict(ScrOptions{.lambda = 1.5});
    if (LoadScrCache(mutated, *tmpl_, &strict).ok()) {
      ++strict_loaded;
      serve(&strict);
    }
    Scr lenient(ScrOptions{.lambda = 1.5});
    SnapshotRestoreReport report;
    if (LoadScrCacheLenient(mutated, *tmpl_, &lenient, &report).ok()) {
      ++lenient_loaded;
      serve(&lenient);
    }
  }
  // The sweep reaches both outcomes of both loaders.
  EXPECT_GT(strict_loaded, 0);
  EXPECT_LT(strict_loaded, kMutations);
  EXPECT_GT(lenient_loaded, strict_loaded);
}

// --- snapshots of another template: rejected, or a cold start ---

/// TPC-H caches of three named templates: TPCH_PRICING (d = 2),
/// TPCH_SHIPPING (d = 2, other tables) and TPCH_PARTS (d = 3).
class CachePersistenceForeignTest : public ::testing::Test {
 protected:
  static BoundTemplate Named(const std::string& name) {
    static const std::vector<BenchmarkDb>* dbs = [] {
      SchemaScale scale;
      scale.factor = 0.2;
      auto* v = new std::vector<BenchmarkDb>();
      v->push_back(BuildTpchSkewed(scale));
      return v;
    }();
    return BuildNamedTemplate(*dbs, name);
  }

  static std::vector<WorkloadInstance> Instances(const BoundTemplate& bt,
                                                 int m) {
    InstanceGenOptions gen;
    gen.m = m;
    return GenerateInstances(bt, gen);
  }

  /// A snapshot of an SCR cache warmed on `name`.
  static std::string SnapshotOf(const std::string& name) {
    BoundTemplate bt = Named(name);
    Optimizer optimizer(&bt.db->db);
    EngineContext engine(&bt.db->db, &optimizer);
    Scr scr(ScrOptions{.lambda = 2.0});
    for (const WorkloadInstance& wi : Instances(bt, 100)) {
      scr.OnInstance(wi, &engine);
    }
    EXPECT_GT(scr.NumPlansCached(), 0);
    return SaveScrCache(scr);
  }

  /// `snapshot` does not fit `name`: the strict loader refuses it, the
  /// lenient one restores nothing, and the cold cache serves `name`'s
  /// queries by optimizing them.
  static void ExpectColdStart(const std::string& snapshot,
                              const std::string& name) {
    BoundTemplate bt = Named(name);
    Scr strict(ScrOptions{.lambda = 2.0});
    Status st = LoadScrCache(snapshot, *bt.tmpl, &strict);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();

    Scr lenient(ScrOptions{.lambda = 2.0});
    SnapshotRestoreReport report;
    st = LoadScrCacheLenient(snapshot, *bt.tmpl, &lenient, &report);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(report.plans_restored, 0);
    EXPECT_EQ(report.entries_restored, 0);
    EXPECT_GT(report.records_dropped, 0);
    EXPECT_FALSE(report.first_error.empty());
    EXPECT_EQ(lenient.NumPlansCached(), 0);
    EXPECT_EQ(lenient.NumInstancesStored(), 0);

    Optimizer optimizer(&bt.db->db);
    EngineContext engine(&bt.db->db, &optimizer);
    for (const WorkloadInstance& wi : Instances(bt, 20)) {
      PlanChoice c = lenient.OnInstance(wi, &engine);
      ASSERT_NE(c.plan, nullptr);
    }
    EXPECT_GT(engine.num_optimizer_calls(), 0);
  }
};

TEST_F(CachePersistenceForeignTest, SameDimensionOtherTablesLoadsCold) {
  // Both d = 2: every entry fits, but the plans read lineitem's pricing
  // columns, not the shipping template's tables.
  ExpectColdStart(SnapshotOf("TPCH_PRICING"), "TPCH_SHIPPING");
}

TEST_F(CachePersistenceForeignTest, LowerDimensionSnapshotLoadsCold) {
  ExpectColdStart(SnapshotOf("TPCH_PRICING"), "TPCH_PARTS");
}

TEST_F(CachePersistenceForeignTest, HigherDimensionSnapshotLoadsCold) {
  // d = 3 entries and plans binding slot 2 against a d = 2 template: the
  // selectivity check used to read past the query's selectivity vector
  // and the recost abort on the slot.
  ExpectColdStart(SnapshotOf("TPCH_PARTS"), "TPCH_PRICING");
}

TEST_F(CachePersistenceForeignTest, OwnSnapshotStillLoads) {
  const std::string snapshot = SnapshotOf("TPCH_PRICING");
  BoundTemplate bt = Named("TPCH_PRICING");
  Scr scr(ScrOptions{.lambda = 2.0});
  SnapshotRestoreReport report;
  ASSERT_TRUE(LoadScrCacheLenient(snapshot, *bt.tmpl, &scr, &report).ok());
  EXPECT_EQ(report.records_dropped, 0);
  EXPECT_GT(report.plans_restored, 0);
  Scr strict(ScrOptions{.lambda = 2.0});
  EXPECT_TRUE(LoadScrCache(snapshot, *bt.tmpl, &strict).ok());
}

TEST_F(CachePersistenceTest, SaveIsAtomicAndDetectsWriteFailure) {
  Scr scr(ScrOptions{.lambda = 1.5});
  EngineContext engine(&db_, &optimizer_);
  Warm(&scr, &engine, 20);

  // Successful save leaves no temp file behind and overwrites the old
  // snapshot in one step.
  const std::string path = ::testing::TempDir() + "/scrpqo_atomic_save.txt";
  {
    std::ofstream old(path);
    old << "stale contents\n";
  }
  ASSERT_TRUE(SaveScrCacheToFile(scr, path).ok());
  EXPECT_EQ(std::remove((path + ".tmp").c_str()), -1)
      << "temp file must not outlive a successful save";
  Scr restored(ScrOptions{.lambda = 1.5});
  EXPECT_TRUE(LoadScrCacheFromFile(path, *tmpl_, &restored).ok());
  EXPECT_EQ(restored.NumPlansCached(), scr.NumPlansCached());
  std::remove(path.c_str());

  // An unwritable destination is reported, not silently dropped.
  const std::string bad =
      ::testing::TempDir() + "/no_such_dir_scrpqo/cache.txt";
  EXPECT_FALSE(SaveScrCacheToFile(scr, bad).ok());
}

}  // namespace
}  // namespace scrpqo
