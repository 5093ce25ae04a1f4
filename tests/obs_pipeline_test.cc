// Tests for the always-on observability pipeline: SPSC event rings, the
// RingTracer exporter (loss accounting, sink fan-out), getPlan stage
// spans, Prometheus rendering, the embedded admin server, and the
// streaming lambda-compliance monitor.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/admin_server.h"
#include "obs/event_ring.h"
#include "obs/metrics_registry.h"
#include "obs/prometheus.h"
#include "obs/ring_tracer.h"
#include "obs/sink.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "verify/online_auditor.h"

namespace scrpqo {
namespace {

DecisionEvent Ev(int instance_id,
                 DecisionOutcome outcome = DecisionOutcome::kOptimized) {
  DecisionEvent e;
  e.instance_id = instance_id;
  e.outcome = outcome;
  e.technique = NameId::Intern("T");
  return e;
}

// ---------------------------------------------------------------- rings

TEST(SpscEventRingTest, PushDrainPreservesOrder) {
  SpscEventRing ring(16);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.TryPush(Ev(i)));
  std::vector<DecisionEvent> out;
  ring.DrainInto(&out);
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i].instance_id, i);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0);
}

TEST(SpscEventRingTest, DropsNotOverwritesWhenFull) {
  SpscEventRing ring(8);
  int accepted = 0;
  for (int i = 0; i < 20; ++i) {
    if (ring.TryPush(Ev(i))) ++accepted;
  }
  EXPECT_EQ(accepted, 8);
  EXPECT_EQ(ring.dropped(), 12);
  std::vector<DecisionEvent> out;
  ring.DrainInto(&out);
  ASSERT_EQ(out.size(), 8u);
  // The retained events are the OLDEST (drop-new policy): a burst cannot
  // rewrite history the exporter has not yet drained.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i].instance_id, i);
}

TEST(SpscEventRingTest, CapacityRoundsUpToPowerOfTwo) {
  SpscEventRing ring(5);  // rounds to 8
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.TryPush(Ev(i)));
  EXPECT_FALSE(ring.TryPush(Ev(8)));
}

TEST(SpscEventRingTest, DrainWhileProducing) {
  // One producer, one drainer, interleaved: every pushed event comes out
  // exactly once, in order.
  SpscEventRing ring(1 << 10);
  constexpr int kEvents = 20000;
  std::vector<DecisionEvent> out;
  std::thread producer([&ring] {
    for (int i = 0; i < kEvents; ++i) {
      while (!ring.TryPush(Ev(i))) std::this_thread::yield();
    }
  });
  while (out.size() < kEvents) {
    ring.DrainInto(&out);
  }
  producer.join();
  ASSERT_EQ(out.size(), static_cast<size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) EXPECT_EQ(out[i].instance_id, i);
  // (rejected TryPush attempts during full windows count as drops by
  // design; completeness above is the property under test)
}

// ----------------------------------------------------------- RingTracer

TEST(RingTracerTest, ConcurrentProducersLoseNothingBelowCapacity) {
  RingTracer::Options opts;
  opts.ring_capacity = 1 << 12;
  opts.window_capacity = 1 << 15;
  opts.drain_interval_micros = 100;
  RingTracer tracer(opts);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        tracer.Record(Ev(t * kPerThread + i));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_TRUE(tracer.Flush().ok());
  EXPECT_EQ(tracer.dropped(), 0);
  EXPECT_EQ(tracer.total_recorded(), kThreads * kPerThread);
  std::vector<DecisionEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads * kPerThread));
  std::set<int64_t> seqs;
  std::set<int32_t> instances;
  for (const DecisionEvent& e : events) {
    seqs.insert(e.seq);
    instances.insert(e.instance_id);
  }
  // Sequence numbers are dense and unique; every emitted instance id is
  // present exactly once.
  EXPECT_EQ(seqs.size(), events.size());
  EXPECT_EQ(*seqs.begin(), 0);
  EXPECT_EQ(*seqs.rbegin(), kThreads * kPerThread - 1);
  EXPECT_EQ(instances.size(), events.size());
}

TEST(RingTracerTest, SinkRegistrationRacesExporterAndFlush) {
  // Exporter-side state (sinks_, next_seq_, scratch buffers) is guarded by
  // export_mu_: late AddSink and explicit Flush race the background
  // exporter loop while producers keep recording. TSan certifies the
  // guard; functionally, a sink added mid-stream sees a suffix of the
  // stream with strictly increasing sequence numbers.
  RingTracer::Options opts;
  opts.ring_capacity = 1 << 12;
  opts.window_capacity = 1 << 14;
  opts.drain_interval_micros = 50;  // keep the exporter loop hot
  RingTracer tracer(opts);

  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  std::atomic<int> produced{0};
  for (int t = 0; t < 3; ++t) {
    producers.emplace_back([&tracer, &stop, &produced, t] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        tracer.Record(Ev(t * 1000000 + i++));
        produced.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread flusher([&tracer, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(tracer.Flush().ok());
      std::this_thread::yield();
    }
  });

  // Register sinks while the exporter loop and flusher are both draining.
  std::vector<std::shared_ptr<InMemorySink>> late_sinks;
  for (int s = 0; s < 4; ++s) {
    while (produced.load(std::memory_order_relaxed) < (s + 1) * 200) {
      std::this_thread::yield();
    }
    auto sink = std::make_shared<InMemorySink>(1 << 14);
    tracer.AddSink(sink);
    late_sinks.push_back(std::move(sink));
  }

  stop.store(true);
  for (std::thread& th : producers) th.join();
  flusher.join();
  ASSERT_TRUE(tracer.Flush().ok());

  for (const auto& sink : late_sinks) {
    std::vector<DecisionEvent> events = sink->Snapshot();
    ASSERT_FALSE(events.empty());
    for (size_t i = 1; i < events.size(); ++i) {
      EXPECT_GT(events[i].seq, events[i - 1].seq);
    }
  }
}

TEST(RingTracerTest, AccountsDropsAboveCapacityInBand) {
  RingTracer::Options opts;
  opts.ring_capacity = 8;
  opts.window_capacity = 64;
  // Effectively disable the periodic exporter so the overflow is
  // deterministic; the explicit Flush below does the only drain.
  opts.drain_interval_micros = 60'000'000;
  RingTracer tracer(opts);
  constexpr int kAttempted = 100;
  for (int i = 0; i < kAttempted; ++i) tracer.Record(Ev(i));
  ASSERT_TRUE(tracer.Flush().ok());
  EXPECT_EQ(tracer.dropped(), kAttempted - 8);
  std::vector<DecisionEvent> events = tracer.Snapshot();
  int64_t dropped_in_band = 0;
  int64_t survivors = 0;
  for (const DecisionEvent& e : events) {
    if (e.outcome == DecisionOutcome::kRingDropped) {
      dropped_in_band += e.dropped;
    } else {
      ++survivors;
    }
  }
  // Survivors + in-band drop records account for every Record attempt.
  EXPECT_EQ(dropped_in_band, kAttempted - 8);
  EXPECT_EQ(survivors, 8);
  EXPECT_EQ(survivors + dropped_in_band, kAttempted);
}

TEST(RingTracerTest, AddedSinkReceivesTheStream) {
  RingTracer tracer;
  auto sink = std::make_shared<InMemorySink>(64);
  tracer.AddSink(sink);
  for (int i = 0; i < 10; ++i) tracer.Record(Ev(i));
  ASSERT_TRUE(tracer.Flush().ok());
  EXPECT_EQ(sink->Snapshot().size(), 10u);
}

TEST(RingTracerTest, JsonlFileSinkStreamsWireFormat) {
  std::string path = ::testing::TempDir() + "/ring_stream.jsonl";
  {
    RingTracer tracer;
    tracer.AddSink(std::make_shared<JsonlFileSink>(path));
    for (int i = 0; i < 7; ++i) tracer.Record(Ev(i));
    ASSERT_TRUE(tracer.Flush().ok());
  }
  auto loaded = ReadJsonlTraceFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie().size(), 7u);
}

// ----------------------------------------------------------------- spans

TEST(GetPlanSpanTest, TimersAccumulateIntoAmbientBreakdown) {
  GetPlanSpan span(/*enabled=*/true);
  ASSERT_NE(SpanContext::Current(), nullptr);
  {
    StageTimer t(Stage::kSelCheck, nullptr);
    t.Stop();
    t.Stop();  // idempotent
  }
  { StageTimer t(Stage::kSelCheck, nullptr); }  // second run accumulates
  EXPECT_GE(span.breakdown().get(Stage::kSelCheck), 0);
  EXPECT_EQ(span.breakdown().get(Stage::kOptimize), -1);
  EXPECT_TRUE(span.breakdown().any());
}

TEST(GetPlanSpanTest, DisabledSpanLeavesNoAmbientContext) {
  GetPlanSpan span(/*enabled=*/false);
  EXPECT_EQ(SpanContext::Current(), nullptr);
  StageTimer t(Stage::kRecost, nullptr);  // unarmed: no-op
  t.Stop();
  EXPECT_FALSE(span.breakdown().any());
}

TEST(GetPlanSpanTest, NestedSpanIsNoopOuterOwnsBreakdown) {
  GetPlanSpan outer(/*enabled=*/true);
  StageBreakdown* ambient = SpanContext::Current();
  {
    GetPlanSpan inner(/*enabled=*/true);
    EXPECT_EQ(SpanContext::Current(), ambient);
    StageTimer t(Stage::kManageCache, nullptr);
  }
  // Inner span's destruction must not tear down the outer context.
  EXPECT_EQ(SpanContext::Current(), ambient);
  EXPECT_GE(outer.breakdown().get(Stage::kManageCache), 0);
}

TEST(GetPlanSpanTest, SeedMergesForwardedStages) {
  StageBreakdown forwarded;
  forwarded.Add(Stage::kOptimize, 120);
  forwarded.Add(Stage::kSelCheck, 7);
  GetPlanSpan span(/*enabled=*/true);
  span.Seed(forwarded);
  EXPECT_EQ(span.breakdown().get(Stage::kOptimize), 120);
  EXPECT_EQ(span.breakdown().get(Stage::kSelCheck), 7);
  span.Seed(forwarded);  // seeding accumulates like timers do
  EXPECT_EQ(span.breakdown().get(Stage::kOptimize), 240);
}

TEST(DecisionEventStagesTest, StagesAndDroppedRoundTripThroughJsonl) {
  DecisionEvent e = Ev(3, DecisionOutcome::kRingDropped);
  e.dropped = 42;
  // Stages are held in ns and travel as whole microseconds.
  e.stages.Add(Stage::kShardWait, 5000);
  e.stages.Add(Stage::kRecost, 17000);
  std::string line = DecisionEventToJsonl(e);
  EXPECT_NE(line.find("\"dropped\":42"), std::string::npos);
  EXPECT_NE(line.find("\"stages\":{"), std::string::npos);
  auto parsed = DecisionEventFromJsonl(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const DecisionEvent& p = parsed.ValueOrDie();
  EXPECT_EQ(p.dropped, 42);
  EXPECT_EQ(p.stages.get(Stage::kShardWait), 5000);
  EXPECT_EQ(p.stages.get(Stage::kRecost), 17000);
  EXPECT_EQ(p.stages.get(Stage::kOptimize), -1);
}

TEST(DecisionEventStagesTest, BatchRecostStageIsNamedAndRoundTrips) {
  // The batched-sweep stage (EngineContext::RecostMany) must be a
  // first-class taxonomy member: stable wire name, serde round-trip, and
  // distinct from the scalar recost slot (trace_summarize attributes the
  // two separately).
  EXPECT_STREQ(StageName(Stage::kBatchRecost), "batch_recost");
  DecisionEvent e = Ev(4, DecisionOutcome::kCostCheckHit);
  e.stages.Add(Stage::kBatchRecost, 23000);
  e.stages.Add(Stage::kRecost, 11000);
  std::string line = DecisionEventToJsonl(e);
  EXPECT_NE(line.find("\"batch_recost\":23"), std::string::npos);
  auto parsed = DecisionEventFromJsonl(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.ValueOrDie().stages.get(Stage::kBatchRecost), 23000);
  EXPECT_EQ(parsed.ValueOrDie().stages.get(Stage::kRecost), 11000);
}

TEST(DecisionEventStagesTest, LegacyWireFormatUnchangedWithoutStages) {
  DecisionEvent e = Ev(1);
  std::string line = DecisionEventToJsonl(e);
  // Span-free emitters produce the pre-pipeline wire format: no optional
  // keys leak into the line.
  EXPECT_EQ(line.find("\"stages\""), std::string::npos);
  EXPECT_EQ(line.find("\"dropped\""), std::string::npos);
}

// ------------------------------------------------------------ prometheus

TEST(PrometheusTest, RendersCountersGaugesAndSummaries) {
  MetricsRegistry registry;
  registry.counter("decision.optimized")->Increment(9);
  registry.gauge("verify.online.worst_margin")->Set(0.25);
  registry.histogram("scr.get_plan_micros")->Record(100.0);
  std::string text = RenderPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE decision_optimized counter"),
            std::string::npos);
  EXPECT_NE(text.find("decision_optimized 9"), std::string::npos);
  EXPECT_NE(text.find("# TYPE verify_online_worst_margin gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE scr_get_plan_micros summary"),
            std::string::npos);
  EXPECT_NE(text.find("scr_get_plan_micros{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("scr_get_plan_micros_count 1"), std::string::npos);
}

TEST(PrometheusTest, SanitizesMetricNames) {
  EXPECT_EQ(PrometheusMetricName("scr.get_plan-micros"),
            "scr_get_plan_micros");
  EXPECT_EQ(PrometheusMetricName("9lives"), "_9lives");
  EXPECT_EQ(PrometheusMetricName("ok_name:sub"), "ok_name:sub");
}

// ---------------------------------------------------------- admin server

TEST(AdminServerTest, HandleRoutesEndpoints) {
  MetricsRegistry registry;
  registry.counter("decision.optimized")->Increment(2);
  AdminServer::Options opts;
  opts.metrics = &registry;
  opts.statusz = [] { return std::string("{\"templates\":[]}\n"); };
  AdminServer server(std::move(opts));

  std::string content_type;
  int status = 0;
  std::string body = server.Handle("/metrics", &content_type, &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(body.find("decision_optimized 2"), std::string::npos);

  body = server.Handle("/healthz", &content_type, &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");

  body = server.Handle("/statusz", &content_type, &status);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(content_type, "application/json; charset=utf-8");
  EXPECT_EQ(body, "{\"templates\":[]}\n");

  body = server.Handle("/nope", &content_type, &status);
  EXPECT_EQ(status, 404);
}

TEST(AdminServerTest, StatuszWithoutProviderServesEmptyObject) {
  AdminServer server(AdminServer::Options{});
  std::string content_type;
  int status = 0;
  EXPECT_EQ(server.Handle("/statusz", &content_type, &status), "{}\n");
  EXPECT_EQ(status, 200);
}

TEST(AdminServerTest, ServesOverRealSocket) {
  MetricsRegistry registry;
  registry.counter("c")->Increment(1);
  AdminServer::Options opts;
  opts.port = 0;  // ephemeral
  opts.metrics = &registry;
  AdminServer server(std::move(opts));
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char request[] = "GET /healthz HTTP/1.1\r\nHost: l\r\n\r\n";
  ASSERT_GT(::send(fd, request, sizeof(request) - 1, 0), 0);
  std::string response;
  char buf[512];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(response.find("ok"), std::string::npos);

  server.Stop();
  server.Stop();  // idempotent
}

// -------------------------------------------------------- online auditor

DecisionEvent SelCheckHit(int64_t seq, double g, double l, double s,
                          double lambda, const std::string& tpl = "") {
  DecisionEvent e = Ev(static_cast<int>(seq), DecisionOutcome::kSelCheckHit);
  e.seq = seq;
  e.template_key = NameId::Intern(tpl);
  e.g = g;
  e.l = l;
  e.subopt = s;
  e.lambda = lambda;
  return e;
}

TEST(OnlineAuditorTest, CleanStreamReportsMarginNoViolations) {
  MetricsRegistry registry;
  OnlineAuditorOptions opts;
  opts.config.lambda = 2.0;
  opts.metrics = &registry;
  OnlineAuditor auditor(opts);
  // G*L = 1.21 <= lambda/S = 2/1.1: holds with margin.
  auditor.Consume({SelCheckHit(0, 1.1, 1.1, 1.1, 2.0)});
  EXPECT_EQ(auditor.checked(), 1);
  EXPECT_EQ(auditor.violations(), 0);
  EXPECT_GT(auditor.worst_margin(), 0.0);
  RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("verify.online.checked"), 1);
  EXPECT_EQ(snap.CounterValue("verify.online.violations"), 0);
  EXPECT_GT(snap.GaugeValue("verify.online.worst_margin", -1.0), 0.0);
}

TEST(OnlineAuditorTest, DetectsInjectedViolationAndEmitsAlert) {
  // End-to-end through the ring pipeline: a violating decision streams
  // through the exporter, the monitor flags it at runtime, bumps the
  // violation metric, and emits a kAuditAlert trace event.
  RingTracer::Options topts;
  topts.drain_interval_micros = 100;
  RingTracer tracer(topts);
  MetricsRegistry registry;
  OnlineAuditorOptions opts;
  opts.config.lambda = 2.0;
  opts.alert_tracer = &tracer;
  opts.metrics = &registry;
  auto auditor = std::make_shared<OnlineAuditor>(opts);
  tracer.AddSink(auditor);

  // Injected bug: G*L = 4 > lambda/S = 2/1.2 — the sel check should
  // never have reused this plan.
  tracer.Record(SelCheckHit(0, 2.0, 2.0, 1.2, 2.0, "tpl_bad"));
  tracer.Record(SelCheckHit(0, 1.1, 1.1, 1.1, 2.0, "tpl_ok"));
  ASSERT_TRUE(tracer.Flush().ok());

  EXPECT_EQ(auditor->checked(), 2);
  EXPECT_EQ(auditor->violations(), 1);
  EXPECT_LT(auditor->worst_margin(), 0.0);
  EXPECT_EQ(registry.Snapshot().CounterValue("verify.online.violations"), 1);

  auto per_template = auditor->PerTemplate();
  EXPECT_EQ(per_template["tpl_bad"].violations, 1);
  EXPECT_EQ(per_template["tpl_ok"].violations, 0);

  // The alert was recorded back through the tracer; drain it.
  ASSERT_TRUE(tracer.Flush().ok());
  int alerts = 0;
  for (const DecisionEvent& e : tracer.Snapshot()) {
    if (e.outcome == DecisionOutcome::kAuditAlert) {
      ++alerts;
      EXPECT_EQ(e.template_key.str(), "tpl_bad");
      EXPECT_EQ(e.technique.str(), "online-auditor");
    }
  }
  EXPECT_EQ(alerts, 1);

  // Feedback safety: consuming its own alert must not re-alert.
  ASSERT_TRUE(tracer.Flush().ok());
  EXPECT_EQ(auditor->violations(), 1);
  EXPECT_EQ(auditor->checked(), 2);
}

TEST(OnlineAuditorTest, MetaEventsAreNeverAudited) {
  OnlineAuditorOptions opts;
  opts.config.lambda = 2.0;
  OnlineAuditor auditor(opts);
  DecisionEvent drop = Ev(0, DecisionOutcome::kRingDropped);
  drop.dropped = 5;
  DecisionEvent evict = Ev(1, DecisionOutcome::kEvicted);
  auditor.Consume({drop, evict});
  EXPECT_EQ(auditor.checked(), 0);
  EXPECT_EQ(auditor.violations(), 0);
}

}  // namespace
}  // namespace scrpqo
