// Tests for verify/guarantee_audit.h: a clean SCR run must audit clean
// (trace and cache snapshot), and every audited inequality must trip when
// an event or cache entry violating it is injected.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "obs/ring_tracer.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "pqo/scr.h"
#include "query/query_instance.h"
#include "tests/test_util.h"
#include "verify/guarantee_audit.h"

namespace scrpqo {
namespace {

class GuaranteeAuditTest : public ::testing::Test {
 protected:
  GuaranteeAuditTest() : db_(testing::MakeSmallDatabase(5000, 200)) {
    optimizer_ = std::make_unique<Optimizer>(&db_);
    tmpl_ = testing::MakeJoinTemplate();
  }

  WorkloadInstance MakeWi(int id, double s0, double s1) {
    WorkloadInstance wi;
    wi.id = id;
    wi.instance = InstanceForSelectivities(db_, *tmpl_, {s0, s1});
    wi.svector = ComputeSelectivityVector(db_, wi.instance);
    return wi;
  }

  /// Runs `m` random instances through `scr` with a tracer attached;
  /// returns the tracer's events. The caller keeps `scr` for cache
  /// snapshots.
  std::vector<DecisionEvent> RunScr(Scr* scr, int m) {
    RingTracer tracer(1 << 14);
    ObsHooks hooks;
    hooks.tracer = &tracer;
    scr->SetObs(hooks);
    EngineContext engine(&db_, optimizer_.get());
    Pcg32 rng(11);
    for (int i = 0; i < m; ++i) {
      scr->OnInstance(MakeWi(i, rng.UniformDouble(0.005, 0.95),
                             rng.UniformDouble(0.005, 0.95)),
                      &engine);
    }
    return tracer.Snapshot();
  }

  Database db_;
  std::unique_ptr<Optimizer> optimizer_;
  std::shared_ptr<QueryTemplate> tmpl_;
};

AuditConfig ScrConfig(double lambda) {
  AuditConfig config;
  config.lambda = lambda;
  config.lambda_r = std::sqrt(lambda);
  return config;
}

TEST_F(GuaranteeAuditTest, CleanScrTraceAuditsClean) {
  ScrOptions opts;
  opts.lambda = 2.0;
  Scr scr(opts);
  std::vector<DecisionEvent> events = RunScr(&scr, 300);
  ASSERT_FALSE(events.empty());

  AuditReport report = AuditTrace(events, ScrConfig(2.0));
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.events_checked, static_cast<int64_t>(events.size()));
}

TEST_F(GuaranteeAuditTest, CleanScrCacheSnapshotAuditsClean) {
  ScrOptions opts;
  opts.lambda = 2.0;
  Scr scr(opts);
  (void)RunScr(&scr, 300);

  AuditReport report = AuditCacheSnapshot(
      scr.SnapshotPlans(), scr.SnapshotInstances(), ScrConfig(2.0));
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.entries_checked, 0);
  EXPECT_GT(report.plans_checked, 0);
}

TEST_F(GuaranteeAuditTest, DynamicLambdaTraceAuditsClean) {
  ScrOptions opts;
  opts.dynamic_lambda = true;
  opts.lambda_min = 1.1;
  opts.lambda_max = 4.0;
  Scr scr(opts);
  std::vector<DecisionEvent> events = RunScr(&scr, 300);

  AuditConfig config;
  config.dynamic_lambda = true;
  config.lambda_min = 1.1;
  config.lambda_max = 4.0;
  config.lambda_r = std::sqrt(opts.lambda);  // redundancy stays static
  AuditReport report = AuditTrace(events, config);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(GuaranteeAuditTest, SpillyCostModelTraceStillAuditsClean) {
  // Same spilly setup as violation_injection_test: BCG breaks happen at
  // run time and Appendix G quarantines the offending instances, but the
  // *recorded* decision arithmetic must still satisfy the inequalities —
  // a BCG violation is not a license for the checks to mis-add.
  OptimizerOptions oopts;
  oopts.cost_params.memory_rows = 2000.0;
  oopts.cost_params.spill_io_factor = 40.0;
  Optimizer spilly(&db_, oopts);
  ScrOptions opts;
  opts.lambda = 1.2;
  opts.detect_violations = true;
  Scr scr(opts);
  RingTracer tracer(1 << 14);
  ObsHooks hooks;
  hooks.tracer = &tracer;
  scr.SetObs(hooks);
  EngineContext engine(&db_, &spilly);
  Pcg32 rng(3);
  for (int i = 0; i < 300; ++i) {
    scr.OnInstance(MakeWi(i, rng.UniformDouble(0.005, 0.95),
                          rng.UniformDouble(0.005, 0.95)),
                   &engine);
  }
  AuditReport report = AuditTrace(tracer.Snapshot(), ScrConfig(1.2));
  EXPECT_TRUE(report.ok()) << report.ToString();
}

/// A minimal well-formed sel-check event; tests then break one field.
DecisionEvent SelHit() {
  DecisionEvent e;
  e.seq = 7;
  e.instance_id = 3;
  e.technique = NameId::Intern("SCR2");
  e.outcome = DecisionOutcome::kSelCheckHit;
  e.matched_entry = 0;
  e.g = 1.2;
  e.l = 1.1;
  e.subopt = 1.05;
  e.lambda = 2.0;
  return e;
}

TEST_F(GuaranteeAuditTest, FlagsSelCheckInequalityViolation) {
  DecisionEvent e = SelHit();
  e.g = 3.0;  // 3.0 * 1.1 = 3.3 > 2.0 / 1.05
  AuditReport report = AuditTrace({e}, ScrConfig(2.0));
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].seq, 7);
  EXPECT_NE(report.violations[0].detail.find("G*L"), std::string::npos)
      << report.violations[0].detail;
}

TEST_F(GuaranteeAuditTest, FlagsCostCheckInequalityViolation) {
  DecisionEvent e = SelHit();
  e.outcome = DecisionOutcome::kCostCheckHit;
  e.g = -1.0;
  e.r = 2.5;  // 2.5 * 1.1 > 2.0 / 1.05
  AuditReport report = AuditTrace({e}, ScrConfig(2.0));
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_NE(report.violations[0].detail.find("R*L"), std::string::npos)
      << report.violations[0].detail;
}

TEST_F(GuaranteeAuditTest, FlagsPcmInferenceViolation) {
  // A cost-check event without L and S is a PCM-style inference: r <= lambda.
  DecisionEvent e;
  e.seq = 1;
  e.technique = NameId::Intern("PCM");
  e.outcome = DecisionOutcome::kCostCheckHit;
  e.matched_entry = 0;
  e.r = 2.5;
  e.lambda = 2.0;
  AuditConfig config;
  config.lambda = 2.0;
  AuditReport report = AuditTrace({e}, config);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_NE(report.violations[0].detail.find("PCM inference"),
            std::string::npos)
      << report.violations[0].detail;
}

TEST_F(GuaranteeAuditTest, FlagsRedundancyThresholdViolation) {
  DecisionEvent e;
  e.seq = 2;
  e.technique = NameId::Intern("SCR2");
  e.outcome = DecisionOutcome::kRedundantDiscard;
  e.matched_entry = 0;
  e.r = 1.9;  // Smin must be <= lambda_r = sqrt(2) ~ 1.414
  e.lambda = std::sqrt(2.0);
  AuditReport report = AuditTrace({e}, ScrConfig(2.0));
  ASSERT_EQ(report.violations.size(), 1u);
}

TEST_F(GuaranteeAuditTest, FlagsLambdaMismatchAgainstConfig) {
  DecisionEvent e = SelHit();
  e.lambda = 3.0;  // run claimed lambda=2.0
  AuditReport report = AuditTrace({e}, ScrConfig(2.0));
  ASSERT_FALSE(report.ok());
}

TEST_F(GuaranteeAuditTest, FlagsDynamicLambdaOutsideRange) {
  DecisionEvent e = SelHit();
  e.lambda = 5.0;
  AuditConfig config;
  config.dynamic_lambda = true;
  config.lambda_min = 1.1;
  config.lambda_max = 4.0;
  AuditReport report = AuditTrace({e}, config);
  ASSERT_FALSE(report.ok());
}

TEST_F(GuaranteeAuditTest, FlagsSubUnitLambda) {
  DecisionEvent e = SelHit();
  e.lambda = 0.9;
  AuditConfig config;  // unconfigured: recorded lambda still must be >= 1
  AuditReport report = AuditTrace({e}, config);
  ASSERT_FALSE(report.ok());
}

TEST_F(GuaranteeAuditTest, FlagsMissingAuditFields) {
  DecisionEvent e = SelHit();
  e.subopt = -1.0;  // sel-check hit without S is unverifiable
  AuditReport report = AuditTrace({e}, ScrConfig(2.0));
  ASSERT_FALSE(report.ok());
}

TEST_F(GuaranteeAuditTest, ToleranceAbsorbsSerdeNoise) {
  DecisionEvent e = SelHit();
  // Exactly on the bound, perturbed by double rounding: g*l == lambda/s.
  e.g = (2.0 / 1.05) / 1.1;
  AuditReport report = AuditTrace({e}, ScrConfig(2.0));
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(GuaranteeAuditTest, FlagsCacheDanglingOrdinalAndBadSubopt) {
  ScrOptions opts;
  opts.lambda = 2.0;
  Scr scr(opts);
  (void)RunScr(&scr, 100);
  std::vector<PlanPtr> plans = scr.SnapshotPlans();
  std::vector<Scr::SnapshotEntry> entries = scr.SnapshotInstances();
  ASSERT_FALSE(entries.empty());

  std::vector<Scr::SnapshotEntry> bad = entries;
  bad[0].plan_ordinal = static_cast<int>(plans.size()) + 5;  // dangling
  Scr::SnapshotEntry s = entries[0];
  s.subopt = 3.0;  // > lambda_r
  bad.push_back(s);
  Scr::SnapshotEntry c = entries[0];
  c.opt_cost = -1.0;  // non-positive optimal cost
  bad.push_back(c);

  AuditReport report = AuditCacheSnapshot(plans, bad, ScrConfig(2.0));
  EXPECT_GE(report.violations.size(), 3u) << report.ToString();
  // Cache findings carry the entry ordinal, not a trace seq.
  EXPECT_EQ(report.violations[0].seq, -1);
  EXPECT_GE(report.violations[0].entry, 0);
}

TEST_F(GuaranteeAuditTest, ReportMergesAndCapsOutput) {
  AuditReport a;
  a.events_checked = 2;
  for (int i = 0; i < 10; ++i) {
    a.violations.push_back({i, -1, "", "v" + std::to_string(i)});
  }
  AuditReport b;
  b.entries_checked = 3;
  b.violations.push_back({-1, 0, "", "cache"});
  a.Merge(b);
  EXPECT_EQ(a.events_checked, 2);
  EXPECT_EQ(a.entries_checked, 3);
  EXPECT_EQ(a.violations.size(), 11u);
  std::string capped = a.ToString(/*max_lines=*/3);
  EXPECT_NE(capped.find("v0"), std::string::npos);
  EXPECT_EQ(capped.find("v5"), std::string::npos) << capped;
}

TEST_F(GuaranteeAuditTest, TraceFileRoundTripAuditsClean) {
  ScrOptions opts;
  opts.lambda = 2.0;
  Scr scr(opts);
  std::vector<DecisionEvent> events = RunScr(&scr, 200);

  std::string path =
      ::testing::TempDir() + "/guarantee_audit_trace.jsonl";
  {
    RingTracer tracer(1 << 14);
    tracer.AddSink(std::make_shared<JsonlFileSink>(path));
    for (const DecisionEvent& e : events) tracer.Record(e);
    ASSERT_TRUE(tracer.Flush().ok());
  }

  Result<AuditReport> r = AuditTraceFile(path, ScrConfig(2.0));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie().ok()) << r.ValueOrDie().ToString();
  std::remove(path.c_str());
}

TEST_F(GuaranteeAuditTest, TraceFileWithNonFiniteFieldIsRejected) {
  std::string path = ::testing::TempDir() + "/guarantee_audit_nan.jsonl";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("{\"seq\": 0, \"instance\": 1, \"technique\": \"SCR2\", "
        "\"outcome\": \"cost-check-hit\", \"matched\": 0, \"r\": nan, "
        "\"lambda\": 2.0}\n",
        f);
  fclose(f);
  Result<AuditReport> r = AuditTraceFile(path, ScrConfig(2.0));
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

TEST_F(GuaranteeAuditTest, MissingTraceFileIsAnError) {
  Result<AuditReport> r =
      AuditTraceFile("/nonexistent/trace.jsonl", ScrConfig(2.0));
  EXPECT_FALSE(r.ok());
}

TEST_F(GuaranteeAuditTest, PerTemplateRollupSeparatesTemplates) {
  auto sel_hit = [](int64_t seq, const std::string& key, double g) {
    DecisionEvent e;
    e.seq = seq;
    e.instance_id = static_cast<int32_t>(seq);
    e.outcome = DecisionOutcome::kSelCheckHit;
    e.template_key = NameId::Intern(key);
    e.g = g;
    e.l = 1.1;
    e.subopt = 1.0;
    e.lambda = 2.0;
    return e;
  };
  std::vector<DecisionEvent> events;
  events.push_back(sel_hit(0, "t1", 1.2));   // holds: 1.32 <= 2
  events.push_back(sel_hit(1, "t1", 1.5));   // holds: 1.65 <= 2
  events.push_back(sel_hit(2, "t2", 10.0));  // violates: 11 > 2

  AuditReport report = AuditTrace(events, AuditConfig{});
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.by_template.size(), 2u);
  EXPECT_EQ(report.by_template["t1"].events, 2);
  EXPECT_EQ(report.by_template["t1"].violations, 0);
  EXPECT_EQ(report.by_template["t2"].events, 1);
  EXPECT_EQ(report.by_template["t2"].violations, 1);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].template_key, "t2");
  // Both the violation line and the rollup carry the template.
  std::string text = report.ToString();
  EXPECT_NE(text.find("[t2]"), std::string::npos) << text;
  std::string summary = report.PerTemplateString();
  EXPECT_NE(summary.find("template t1: 2 events, 0 violations"),
            std::string::npos)
      << summary;
  EXPECT_NE(summary.find("template t2: 1 events, 1 violation"),
            std::string::npos)
      << summary;
}

TEST_F(GuaranteeAuditTest, PerTemplateStringEmptyForUnscopedTraces) {
  DecisionEvent e;
  e.outcome = DecisionOutcome::kOptimized;
  e.lambda = 2.0;
  AuditReport report = AuditTrace({e}, AuditConfig{});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.PerTemplateString(), "");
}

TEST_F(GuaranteeAuditTest, PerTemplateLambdaExcludesRedundancyDecisions) {
  // A redundancy decision records lambda_r, not the serving bound; the
  // rollup must not count it as a second lambda on the template.
  DecisionEvent opt;
  opt.seq = 0;
  opt.outcome = DecisionOutcome::kOptimized;
  opt.template_key = NameId::Intern("t1");
  opt.lambda = 2.0;
  DecisionEvent red;
  red.seq = 1;
  red.outcome = DecisionOutcome::kRedundantDiscard;
  red.template_key = NameId::Intern("t1");
  red.r = 1.2;
  red.lambda = 1.4142135623730951;  // sqrt(2)
  AuditReport report = AuditTrace({opt, red}, AuditConfig{});
  EXPECT_TRUE(report.ok()) << report.ToString();
  ASSERT_EQ(report.by_template.count("t1"), 1u);
  ASSERT_EQ(report.by_template["t1"].lambdas.size(), 1u);
  EXPECT_DOUBLE_EQ(report.by_template["t1"].lambdas[0], 2.0);
}

TEST_F(GuaranteeAuditTest, MergeFoldsTemplateRollups) {
  AuditReport a;
  a.by_template["t1"].events = 2;
  a.by_template["t1"].lambdas = {2.0};
  AuditReport b;
  b.by_template["t1"].events = 3;
  b.by_template["t1"].violations = 1;
  b.by_template["t1"].lambdas = {2.0, 1.5};
  b.by_template["t2"].events = 1;
  a.Merge(b);
  EXPECT_EQ(a.by_template.size(), 2u);
  EXPECT_EQ(a.by_template["t1"].events, 5);
  EXPECT_EQ(a.by_template["t1"].violations, 1);
  EXPECT_EQ(a.by_template["t1"].lambdas.size(), 2u);  // 2.0 deduped
  EXPECT_EQ(a.by_template["t2"].events, 1);
}

}  // namespace
}  // namespace scrpqo
