#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/metrics_registry.h"
#include "obs/ring_tracer.h"
#include "obs/scoped_timer.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "pqo/async_scr.h"
#include "pqo/pcm.h"
#include "pqo/scr.h"
#include "query/query_instance.h"
#include "tests/test_util.h"
#include "workload/runner.h"

namespace scrpqo {
namespace {

DecisionEvent MakeEvent(int instance_id, DecisionOutcome outcome,
                        int64_t seq = -1) {
  DecisionEvent e;
  e.seq = seq;
  e.instance_id = instance_id;
  e.technique = NameId::Intern("SCR2");
  e.outcome = outcome;
  return e;
}

// TracerTest: the capture pipeline's window and export behaviour. The
// retained window (order, wrap, capacity clamp) is InMemorySink, which
// backs RingTracer::Snapshot; file export and concurrent recording go
// through the RingTracer itself.

TEST(TracerTest, RecordsInOrderBelowCapacity) {
  InMemorySink window(8);
  std::vector<DecisionEvent> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back(MakeEvent(i, DecisionOutcome::kOptimized, i));
  }
  window.Consume(batch);
  auto events = window.Snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(events[static_cast<size_t>(i)].seq, i);
    EXPECT_EQ(events[static_cast<size_t>(i)].instance_id, i);
  }
  // The same through the tracer, which stamps seq itself.
  RingTracer tracer(8);
  for (int i = 0; i < 5; ++i) {
    tracer.Record(MakeEvent(i, DecisionOutcome::kOptimized));
  }
  events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(events[static_cast<size_t>(i)].seq, i);
  }
  EXPECT_EQ(tracer.total_recorded(), 5);
}

TEST(TracerTest, RingWrapsKeepingNewestInOrder) {
  InMemorySink window(4);
  for (int i = 0; i < 10; ++i) {
    // One event per batch: the wrap must work across batches too.
    window.Consume({MakeEvent(i, DecisionOutcome::kSelCheckHit, i)});
  }
  auto events = window.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Live window is the newest 4 events (seq 6..9), oldest first.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<size_t>(i)].seq, 6 + i);
    EXPECT_EQ(events[static_cast<size_t>(i)].instance_id, 6 + i);
  }
}

TEST(TracerTest, WrapBoundaryExactCapacity) {
  InMemorySink window(4);
  std::vector<DecisionEvent> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(MakeEvent(i, DecisionOutcome::kOptimized, i));
  }
  window.Consume(batch);
  auto events = window.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 0);
  EXPECT_EQ(events.back().seq, 3);
  // One more pushes out exactly the oldest.
  window.Consume({MakeEvent(4, DecisionOutcome::kOptimized, 4)});
  events = window.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 1);
  EXPECT_EQ(events.back().seq, 4);
}

TEST(TracerTest, ZeroCapacityIsClampedToOne) {
  InMemorySink window(0);
  EXPECT_EQ(window.capacity(), 1u);
  window.Consume({MakeEvent(1, DecisionOutcome::kOptimized, 0),
                  MakeEvent(2, DecisionOutcome::kOptimized, 1)});
  auto events = window.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].instance_id, 2);
  // A tracer asked for a zero window keeps the newest event.
  RingTracer::Options opts;
  opts.window_capacity = 0;
  RingTracer tracer(opts);
  tracer.Record(MakeEvent(1, DecisionOutcome::kOptimized));
  tracer.Record(MakeEvent(2, DecisionOutcome::kOptimized));
  events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].instance_id, 2);
}

TEST(TracerTest, ConcurrentRecordsAllLand) {
  RingTracer tracer(1 << 16);
  constexpr int kPerThread = 5000;
  auto writer = [&tracer](int base) {
    for (int i = 0; i < kPerThread; ++i) {
      tracer.Record(MakeEvent(base + i, DecisionOutcome::kCostCheckHit));
    }
  };
  std::thread a(writer, 0);
  std::thread b(writer, kPerThread);
  a.join();
  b.join();
  auto events = tracer.Snapshot();
  EXPECT_EQ(tracer.dropped(), 0);
  EXPECT_EQ(tracer.total_recorded(), 2 * kPerThread);
  ASSERT_EQ(events.size(), static_cast<size_t>(2 * kPerThread));
  // seq must be a permutation-free 0..N-1 in order, and every event must
  // land exactly once.
  std::vector<int> seen(2 * kPerThread, 0);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, static_cast<int64_t>(i));
    ++seen[static_cast<size_t>(events[i].instance_id)];
  }
  for (int n : seen) EXPECT_EQ(n, 1);
}

TEST(DecisionEventJsonlTest, RoundTripsAllFields) {
  DecisionEvent e;
  e.seq = 42;
  e.instance_id = 7;
  e.technique = NameId::Intern("SCR2(k=10)\"quoted\\name");
  e.outcome = DecisionOutcome::kCostCheckHit;
  e.matched_entry = 3;
  e.g = 1.5;
  e.l = 2.25;
  e.r = 1.0000001;
  e.subopt = 1.25;
  e.lambda = 2.0;
  e.candidates_scanned = 8;
  e.recost_calls = 5;
  e.wall_ns = 12345000;

  std::string line = DecisionEventToJsonl(e);
  auto parsed = DecisionEventFromJsonl(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const DecisionEvent& p = parsed.ValueOrDie();
  EXPECT_EQ(p.seq, e.seq);
  EXPECT_EQ(p.instance_id, e.instance_id);
  EXPECT_EQ(p.technique, e.technique);
  EXPECT_EQ(p.outcome, e.outcome);
  EXPECT_EQ(p.matched_entry, e.matched_entry);
  EXPECT_DOUBLE_EQ(p.g, e.g);
  EXPECT_DOUBLE_EQ(p.l, e.l);
  EXPECT_DOUBLE_EQ(p.r, e.r);
  EXPECT_DOUBLE_EQ(p.subopt, e.subopt);
  EXPECT_DOUBLE_EQ(p.lambda, e.lambda);
  EXPECT_EQ(p.candidates_scanned, e.candidates_scanned);
  EXPECT_EQ(p.recost_calls, e.recost_calls);
  EXPECT_EQ(p.wall_ns, e.wall_ns);
}

TEST(DecisionEventJsonlTest, TemplateFieldRoundTripsWhenPresent) {
  DecisionEvent e;
  e.outcome = DecisionOutcome::kSelCheckHit;
  e.template_key = NameId::Intern("rd2_t3_d2 \"quoted\"");
  std::string line = DecisionEventToJsonl(e);
  EXPECT_NE(line.find("\"template\":"), std::string::npos);
  auto parsed = DecisionEventFromJsonl(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.ValueOrDie().template_key, e.template_key);

  // Single-template traces omit the field entirely (and parse back empty),
  // keeping them byte-identical to pre-multi-template traces.
  DecisionEvent plain;
  plain.outcome = DecisionOutcome::kOptimized;
  std::string plain_line = DecisionEventToJsonl(plain);
  EXPECT_EQ(plain_line.find("\"template\":"), std::string::npos);
  auto plain_parsed = DecisionEventFromJsonl(plain_line);
  ASSERT_TRUE(plain_parsed.ok());
  EXPECT_TRUE(plain_parsed.ValueOrDie().template_key.empty());
}

TEST(DecisionEventJsonlTest, RoundTripsDefaults) {
  DecisionEvent e;
  e.outcome = DecisionOutcome::kEvicted;
  std::string line = DecisionEventToJsonl(e);
  auto parsed = DecisionEventFromJsonl(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.ValueOrDie().outcome, DecisionOutcome::kEvicted);
  EXPECT_EQ(parsed.ValueOrDie().matched_entry, -1);
  EXPECT_DOUBLE_EQ(parsed.ValueOrDie().g, -1.0);
}

TEST(DecisionEventJsonlTest, RejectsGarbage) {
  EXPECT_FALSE(DecisionEventFromJsonl("not json at all").ok());
  EXPECT_FALSE(DecisionEventFromJsonl("{\"seq\":1}").ok());
  EXPECT_FALSE(
      DecisionEventFromJsonl(
          "{\"seq\":1,\"instance\":2,\"outcome\":\"bogus\"}")
          .ok());
}

TEST(DecisionEventJsonlTest, RejectsNonFiniteCostFields) {
  // Same policy as EnvDouble: a trace with NaN/inf factors could make
  // guarantee arithmetic silently pass, so parsing must fail instead.
  const char* base = "{\"seq\": 1, \"instance\": 2, \"technique\": \"t\", "
                     "\"outcome\": \"cost-check-hit\", \"matched\": 0";
  for (const char* bad :
       {"\"r\": nan", "\"r\": inf", "\"r\": -inf", "\"r\": 1e999",
        "\"g\": nan", "\"l\": inf", "\"s\": nan", "\"lambda\": inf",
        "\"wall_us\": nan"}) {
    std::string line = std::string(base) + ", " + bad + "}";
    EXPECT_FALSE(DecisionEventFromJsonl(line).ok()) << line;
  }
  EXPECT_FALSE(DecisionEventFromJsonl(
                   "{\"seq\": inf, \"instance\": 2, \"technique\": \"t\", "
                   "\"outcome\": \"optimized\"}")
                   .ok());
  // Control: the same shape with finite values parses.
  std::string good = std::string(base) + ", \"r\": 1.5}";
  EXPECT_TRUE(DecisionEventFromJsonl(good).ok());
}

TEST(DecisionEventJsonlTest, OutcomeNamesRoundTrip) {
  for (DecisionOutcome o :
       {DecisionOutcome::kSelCheckHit, DecisionOutcome::kCostCheckHit,
        DecisionOutcome::kOptimized, DecisionOutcome::kRedundantDiscard,
        DecisionOutcome::kEvicted, DecisionOutcome::kAuditAlert,
        DecisionOutcome::kRingDropped}) {
    DecisionOutcome back;
    ASSERT_TRUE(ParseDecisionOutcome(DecisionOutcomeName(o), &back));
    EXPECT_EQ(back, o);
  }
  DecisionOutcome ignored;
  EXPECT_FALSE(ParseDecisionOutcome("unknown", &ignored));
}

TEST(TracerTest, JsonlFileRoundTrip) {
  std::string path = ::testing::TempDir() + "/obs_trace_roundtrip.jsonl";
  {
    RingTracer tracer(16);
    tracer.AddSink(std::make_shared<JsonlFileSink>(path));
    for (int i = 0; i < 6; ++i) {
      DecisionEvent e = MakeEvent(i, i % 2 == 0
                                         ? DecisionOutcome::kSelCheckHit
                                         : DecisionOutcome::kOptimized);
      e.wall_ns = 10000 * i;
      tracer.Record(e);
    }
    ASSERT_TRUE(tracer.Flush().ok());
  }
  auto loaded = ReadJsonlTraceFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto& events = loaded.ValueOrDie();
  ASSERT_EQ(events.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(events[static_cast<size_t>(i)].seq, i);
    EXPECT_EQ(events[static_cast<size_t>(i)].instance_id, i);
    EXPECT_EQ(events[static_cast<size_t>(i)].technique.str(), "SCR2");
    EXPECT_EQ(events[static_cast<size_t>(i)].wall_ns, 10000 * i);
  }
  std::remove(path.c_str());
}

TEST(LogHistogramTest, EmptyIsAllZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Percentile(0.0), 0.0);
  EXPECT_EQ(h.Percentile(50.0), 0.0);
  EXPECT_EQ(h.Percentile(100.0), 0.0);
  EXPECT_EQ(h.max_value(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(LogHistogramTest, SingleValueEveryPercentileIsThatValue) {
  LogHistogram h;
  h.Record(1000.0);
  EXPECT_EQ(h.count(), 1);
  for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    // The bucket midpoint is clamped to the tracked max, so a singleton is
    // reported exactly.
    EXPECT_DOUBLE_EQ(h.Percentile(p), 1000.0) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(h.mean(), 1000.0);
  EXPECT_DOUBLE_EQ(h.max_value(), 1000.0);
}

TEST(LogHistogramTest, PercentilesWithinBucketResolution) {
  LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000);
  // Log-bucketed: ~9% relative resolution.
  EXPECT_NEAR(h.Percentile(50.0), 500.0, 500.0 * 0.10);
  EXPECT_NEAR(h.Percentile(90.0), 900.0, 900.0 * 0.10);
  EXPECT_NEAR(h.Percentile(99.0), 990.0, 990.0 * 0.10);
  EXPECT_DOUBLE_EQ(h.max_value(), 1000.0);
  EXPECT_NEAR(h.mean(), 500.5, 1e-6);
}

TEST(LogHistogramTest, PercentileOrderingAndExtremes) {
  LogHistogram h;
  h.Record(1.0);
  h.Record(100.0);
  h.Record(10000.0);
  EXPECT_LE(h.Percentile(0.0), h.Percentile(50.0));
  EXPECT_LE(h.Percentile(50.0), h.Percentile(100.0));
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), 10000.0);  // clamped to true max
}

TEST(LogHistogramTest, SubUnitAndNegativeValuesLandInBucketZero) {
  LogHistogram h;
  h.Record(0.0);
  h.Record(0.3);
  h.Record(-5.0);  // clamped to 0
  EXPECT_EQ(h.count(), 3);
  EXPECT_LT(h.Percentile(50.0), 1.0);
}

TEST(LogHistogramTest, HugeValuesHitOverflowBucketButReportTrueMax) {
  LogHistogram h;
  h.Record(1e300);
  h.Record(1e301);
  EXPECT_EQ(h.count(), 2);
  EXPECT_DOUBLE_EQ(h.Percentile(100.0), 1e301);
  EXPECT_DOUBLE_EQ(h.max_value(), 1e301);
}

TEST(LogHistogramTest, ConcurrentRecordsCountExactly) {
  MetricsRegistry registry;
  LogHistogram* h = registry.histogram("lat");
  constexpr int kPerThread = 50000;
  auto writer = [h] {
    for (int i = 1; i <= kPerThread; ++i) {
      h->Record(static_cast<double>(i % 1000) + 1.0);
    }
  };
  std::thread a(writer);
  std::thread b(writer);
  a.join();
  b.join();
  EXPECT_EQ(h->count(), 2 * kPerThread);
}

TEST(MetricsRegistryTest, ConcurrentCounterIncrements) {
  MetricsRegistry registry;
  constexpr int kPerThread = 100000;
  auto writer = [&registry] {
    // Deliberately re-resolve by name: lookup must be thread-safe too.
    Counter* c = registry.counter("hits");
    for (int i = 0; i < kPerThread; ++i) c->Increment();
  };
  std::thread a(writer);
  std::thread b(writer);
  a.join();
  b.join();
  EXPECT_EQ(registry.counter("hits")->value(), 2 * kPerThread);
}

TEST(MetricsRegistryTest, SnapshotAndCounterLookup) {
  MetricsRegistry registry;
  registry.counter("a")->Increment(3);
  registry.counter("b")->Increment(5);
  registry.histogram("lat")->Record(100.0);
  RegistrySnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.CounterValue("a"), 3);
  EXPECT_EQ(snap.CounterValue("b"), 5);
  EXPECT_EQ(snap.CounterValue("missing", -7), -7);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "lat");
  EXPECT_EQ(snap.histograms[0].count, 1);
  EXPECT_DOUBLE_EQ(snap.histograms[0].max, 100.0);
  const HistogramSnapshot* h = snap.FindHistogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->max, 100.0);
  EXPECT_EQ(snap.FindHistogram("missing"), nullptr);
}

TEST(MetricsRegistryTest, StablePointersAcrossLookups) {
  MetricsRegistry registry;
  Counter* c1 = registry.counter("x");
  registry.counter("y");
  registry.histogram("z");
  EXPECT_EQ(registry.counter("x"), c1);
}

TEST(MetricsRegistryTest, WriteJsonContainsEntries) {
  MetricsRegistry registry;
  registry.counter("decision.optimized")->Increment(9);
  registry.histogram("get_plan_micros")->Record(50.0);
  std::ostringstream os;
  registry.WriteJson(os);
  std::string json = os.str();
  EXPECT_NE(json.find("\"decision.optimized\":9"), std::string::npos);
  EXPECT_NE(json.find("\"get_plan_micros\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(ScopedTimerTest, RecordsOnceIntoHistogram) {
  MetricsRegistry registry;
  LogHistogram* h = registry.histogram("t");
  {
    ScopedTimer timer(h);
  }
  EXPECT_EQ(h->count(), 1);
  {
    ScopedTimer timer(h);
    timer.Stop();
    timer.Stop();  // idempotent
  }
  EXPECT_EQ(h->count(), 2);
}

TEST(ScopedTimerTest, NullHistogramIsNoop) {
  ScopedTimer timer(nullptr);
  timer.Stop();  // must not crash
}

// ---------------------------------------------------------------------------
// End-to-end: run SCR / AsyncScr over a real workload with obs attached.

class ObsIntegrationTest : public ::testing::Test {
 protected:
  ObsIntegrationTest()
      : db_(testing::MakeSmallDatabase(5000, 200)),
        tmpl_(testing::MakeJoinTemplate()),
        optimizer_(&db_) {
    Pcg32 rng(99);
    for (int i = 0; i < 60; ++i) {
      WorkloadInstance wi;
      wi.id = i;
      wi.instance = InstanceForSelectivities(
          db_, *tmpl_, {rng.UniformDouble(0.05, 0.95),
                        rng.UniformDouble(0.05, 0.95)});
      wi.svector = ComputeSelectivityVector(db_, wi.instance);
      instances_.push_back(std::move(wi));
      permutation_.push_back(i);
    }
    oracle_ = Oracle::Build(optimizer_, instances_);
  }

  SequenceMetrics Run(PqoTechnique* technique, RingTracer* tracer,
                      MetricsRegistry* metrics) {
    RunSequenceOptions opts;
    opts.lambda_for_violations = 2.0;
    opts.ordering_name = "random";
    opts.tracer = tracer;
    opts.metrics = metrics;
    return RunSequence(optimizer_, instances_, permutation_, oracle_,
                       technique, opts);
  }

  Database db_;
  std::shared_ptr<QueryTemplate> tmpl_;
  Optimizer optimizer_;
  std::vector<WorkloadInstance> instances_;
  std::vector<int> permutation_;
  Oracle oracle_;
};

TEST_F(ObsIntegrationTest, ScrEmitsOneDecisionPerInstance) {
  RingTracer tracer(1 << 12);
  MetricsRegistry registry;
  Scr scr(ScrOptions{});
  SequenceMetrics m = Run(&scr, &tracer, &registry);

  auto events = tracer.Snapshot();
  int64_t decisions = 0;
  int64_t optimizer_events = 0;
  for (const DecisionEvent& e : events) {
    EXPECT_GE(e.instance_id, 0);
    EXPECT_EQ(e.technique.str(), scr.name());
    if (IsDecisionOutcome(e.outcome)) {
      ++decisions;
      if (e.outcome == DecisionOutcome::kOptimized ||
          e.outcome == DecisionOutcome::kRedundantDiscard) {
        ++optimizer_events;
      }
    }
  }
  EXPECT_EQ(decisions, m.m);
  EXPECT_EQ(optimizer_events, m.num_opt);

  // Counters agree with the trace and the classic metrics.
  RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("decision.sel_check_hits") +
                snap.CounterValue("decision.cost_check_hits") +
                snap.CounterValue("decision.optimized") +
                snap.CounterValue("decision.redundant_discards"),
            m.m);
  EXPECT_EQ(snap.CounterValue("engine.optimize_calls"), m.num_opt);
  EXPECT_EQ(snap.CounterValue("engine.recost_calls"), m.num_recost_calls);
  // SequenceMetrics carries the same snapshot, pointer-free.
  EXPECT_EQ(m.obs.CounterValue("engine.optimize_calls"), m.num_opt);
  bool found_hist = false;
  for (const HistogramSnapshot& h : m.obs.histograms) {
    if (h.name == "get_plan_micros") {
      found_hist = true;
      EXPECT_EQ(h.count, m.m);
      EXPECT_GE(h.p99, h.p50);
    }
  }
  EXPECT_TRUE(found_hist);
}

TEST_F(ObsIntegrationTest, ScrCheckHitEventsCarryGlr) {
  RingTracer tracer(1 << 12);
  Scr scr(ScrOptions{});
  Run(&scr, &tracer, nullptr);
  int sel_hits = 0;
  for (const DecisionEvent& e : tracer.Snapshot()) {
    if (e.outcome == DecisionOutcome::kSelCheckHit) {
      ++sel_hits;
      EXPECT_GE(e.g, 1.0);
      EXPECT_GE(e.l, 1.0);
      // G*L within the loosest possible bound for a fresh entry.
      EXPECT_LE(e.g * e.l, 2.0 + 1e-9);
    }
    if (e.outcome == DecisionOutcome::kCostCheckHit) {
      EXPECT_GT(e.r, 0.0);
      EXPECT_GE(e.recost_calls, 1);
      EXPECT_GE(e.candidates_scanned, e.recost_calls);
    }
  }
  EXPECT_GT(sel_hits, 0);
}

TEST_F(ObsIntegrationTest, ScrEvictionEventsUnderPlanBudget) {
  RingTracer tracer(1 << 12);
  MetricsRegistry registry;
  Scr scr(ScrOptions{.lambda = 1.05, .lambda_r = 1.0, .plan_budget = 1});
  SequenceMetrics m = Run(&scr, &tracer, &registry);
  int64_t evictions = 0;
  int64_t decisions = 0;
  for (const DecisionEvent& e : tracer.Snapshot()) {
    if (e.outcome == DecisionOutcome::kEvicted) {
      ++evictions;
      EXPECT_GE(e.matched_entry, 0);
    } else {
      ++decisions;
    }
  }
  EXPECT_EQ(decisions, m.m);  // cache events never displace decisions
  EXPECT_GT(evictions, 0);
  EXPECT_EQ(registry.Snapshot().CounterValue("cache.evictions"), evictions);
}

TEST_F(ObsIntegrationTest, AsyncScrTraceCompleteAfterRun) {
  RingTracer tracer(1 << 12);
  MetricsRegistry registry;
  {
    AsyncScr async(ScrOptions{});
    SequenceMetrics m = Run(&async, &tracer, &registry);
    // RunSequence flushes the worker, so every deferred manageCache event
    // has landed by the time it returns.
    int64_t decisions = 0;
    for (const DecisionEvent& e : tracer.Snapshot()) {
      if (IsDecisionOutcome(e.outcome)) ++decisions;
    }
    EXPECT_EQ(decisions, m.m);
    EXPECT_GT(m.max_recost_per_get_plan, 0);
  }
}

TEST_F(ObsIntegrationTest, PcmReportsRecostAndEvents) {
  RingTracer tracer(1 << 12);
  MetricsRegistry registry;
  Pcm pcm(PcmOptions{.lambda = 2.0, .recost_redundancy_lambda_r = 1.4});
  SequenceMetrics m = Run(&pcm, &tracer, &registry);
  int64_t decisions = 0;
  for (const DecisionEvent& e : tracer.Snapshot()) {
    EXPECT_EQ(e.technique.str(), pcm.name());
    if (IsDecisionOutcome(e.outcome)) ++decisions;
  }
  EXPECT_EQ(decisions, m.m);
  // The +R variant recosts inside getPlan; the bounded-recost metric must
  // see it (satellite: PCM used to always report 0).
  EXPECT_GT(m.max_recost_per_get_plan, 0);
  EXPECT_EQ(registry.Snapshot().CounterValue("decision.optimized") +
                registry.Snapshot().CounterValue(
                    "decision.redundant_discards"),
            m.num_opt);
}

TEST_F(ObsIntegrationTest, DisabledObsLeavesChoiceStatsPopulated) {
  Scr scr(ScrOptions{});
  SequenceMetrics m = Run(&scr, nullptr, nullptr);
  EXPECT_TRUE(m.obs.counters.empty());
  EXPECT_TRUE(m.obs.histograms.empty());
  EXPECT_GT(m.num_opt, 0);
}

}  // namespace
}  // namespace scrpqo
