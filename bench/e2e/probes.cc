// The traced run's per-layer attribution. Every number comes from timing
// a public call from outside the program, after the timed phase:
//
//  - a replica Scr per template, fed the optimizer hook's results through
//    RegisterOptimization in hook order (manageCache cost, sweep recosts,
//    and a cache that must equal the real one on the hit workloads);
//  - the stream's tail replayed against PqoManager::OnInstance (routed),
//    with observability as in the run and flipped, and against the
//    replicas' Scr::TryReuse (unrouted);
//  - EngineContext::RecostMany over the replicas' live plans,
//    RingTracer::Record of real events, and the auditor sink's timing.
#include <algorithm>
#include <cstdlib>
#include <string>
#include <unordered_map>

#include "harness.h"

namespace e2e {

using namespace scrpqo;

namespace {

constexpr int kReplayPasses = 7;
/// In-run and replayed decision times must agree this closely on the
/// workloads whose replica is exact, or the attribution is not trusted.
constexpr double kMaxReplayGap = 0.15;
/// Rounds of kReplayPasses keep running while the gap exceeds its bound,
/// until this much replay time has passed: a difference in the program
/// persists, while bursts of host interference on a shared VM have
/// covered a whole round of a few seconds, and outlasted three.
constexpr int64_t kReplayBudgetNs = int64_t{60} * 1000000000;
/// Events recorded between drains when timing RingTracer::Record: well
/// under the default ring's capacity, so no push is dropped.
constexpr size_t kRecordBatch = 1024;

double PerDecision(double total, int64_t n) {
  return n > 0 ? total / static_cast<double>(n) : 0.0;
}

/// Mean ns per decision of `serve` over `window`, each call timed the way
/// the client loop times it into `times` (reused across passes).
template <typename Serve>
double PassMeanNs(std::span<const uint32_t> window, Serve&& serve,
                  std::vector<uint32_t>* times) {
  times->clear();
  int64_t total = 0;
  for (uint32_t d : window) {
    const int64_t t0 = NowNs();
    serve(d);
    const int64_t dt = NowNs() - t0;
    total += dt;
    times->push_back(ClampNs(dt));
  }
  return PerDecision(static_cast<double>(total),
                     static_cast<int64_t>(window.size()));
}

/// Per-template plan counts of the real cache, from the /statusz document
/// ({"templates":[{..."plans":N...},...],"totals":{...}}).
std::vector<double> PlansPerTemplate(const std::string& statusz) {
  std::vector<double> plans;
  const size_t end = statusz.find("\"totals\"");
  const std::string tag = "\"plans\":";
  for (size_t pos = statusz.find(tag); pos < end;
       pos = statusz.find(tag, pos + tag.size())) {
    plans.push_back(std::strtod(statusz.c_str() + pos + tag.size(), nullptr));
  }
  return plans;
}

void SetProgramObs(Run& run, ProductionObs* obs) {
  run.manager->SetObs(obs != nullptr ? obs->hooks() : ObsHooks{});
  run.fleet.engine->SetObs(obs != nullptr ? &obs->registry : nullptr);
}

/// Serving-path optimizer calls and the miss path around them, from the
/// decision spans (root) and the oracle hook's spans (child).
void OptimizerProbes(const Run& run, const TimedPhase& timed,
                     Report* report) {
  const size_t warm = run.warm_span_ns.size();
  auto span_of = [&](int64_t seq) {
    const size_t s = static_cast<size_t>(seq);
    return static_cast<double>(s < warm ? run.warm_span_ns[s]
                                        : timed.latency_ns[s - warm]);
  };
  std::vector<double> optimize_ns;
  double optimize_total = 0.0;
  double miss_self_total = 0.0;
  int64_t misses = 0;
  for (const OptimizeCall& c : run.calls) {
    optimize_ns.push_back(static_cast<double>(c.ns));
    optimize_total += static_cast<double>(c.ns);
    if (c.warmup) continue;
    miss_self_total += SelfTime(span_of(c.seq), static_cast<double>(c.ns));
    ++misses;
  }
  double decision_total = 0.0;
  for (uint32_t ns : run.warm_span_ns) decision_total += ns;
  for (uint32_t ns : timed.latency_ns) decision_total += ns;

  report->Metric("optimizer.optimize_ns_p50",
                 ExactPercentile(&optimize_ns, 0.50), "ns");
  report->Metric("optimizer.optimize_ns_p99",
                 ExactPercentile(&optimize_ns, 0.99), "ns");
  report->Metric("optimizer.share",
                 decision_total > 0.0 ? optimize_total / decision_total : 0.0,
                 "ratio");
  report->Metric("pqo_manager.miss_overhead_ns",
                 PerDecision(miss_self_total, misses), "ns");
}

/// One replica Scr per template with the template's lambda, fed every
/// cached (non-warm-up) optimizer result in hook order.
std::vector<std::unique_ptr<Scr>> BuildReplicas(Run& run,
                                                EngineContext* engine,
                                                Report* report) {
  const WorkloadSpec& spec = run.spec;
  std::vector<std::unique_ptr<Scr>> replicas;
  for (const std::string& key : run.fleet.keys) {
    ScrOptions options;
    options.lambda = run.manager->LambdaFor(key);
    // Under a global budget, a per-template share approximates the
    // cache sizes the cross-template evictor keeps.
    if (spec.manager.global_plan_budget > 0) {
      options.plan_budget = static_cast<int>(std::max<int64_t>(
          1, spec.manager.global_plan_budget / kTemplates));
    }
    replicas.push_back(std::make_unique<Scr>(options));
  }
  int64_t registered = 0;
  int64_t register_ns = 0;
  const int64_t sweep0 = engine->num_recost_calls();
  for (const OptimizeCall& c : run.calls) {
    if (c.warmup) continue;
    Scr& replica = *replicas[static_cast<size_t>(DecisionTemplate(c.decision))];
    const int64_t t0 = NowNs();
    replica.RegisterOptimization(run.fleet.instance(c.decision), c.result,
                                 engine);
    register_ns += NowNs() - t0;
    ++registered;
  }
  report->Metric("scr.manage_cache_ns",
                 PerDecision(static_cast<double>(register_ns), registered),
                 "ns");
  report->Metric(
      "recost.sweep_calls_per_miss",
      PerDecision(static_cast<double>(engine->num_recost_calls() - sweep0),
                  registered),
      "count");

  int64_t replica_plans = 0;
  double instances_total = 0.0;
  double instances_max = 0.0;
  for (const auto& r : replicas) {
    replica_plans += r->NumPlansCached();
    const double stored = static_cast<double>(r->NumInstancesStored());
    instances_total += stored;
    instances_max = std::max(instances_max, stored);
  }
  report->Metric("scr.instances_per_template",
                 instances_total / static_cast<double>(replicas.size()),
                 "count");
  report->Metric("scr.instances_per_template_max", instances_max, "count");
  const int64_t real_plans = run.manager->TotalPlansCached();
  report->Info("replica_plans", std::to_string(replica_plans));
  report->Info("cached_plans", std::to_string(real_plans));
  if (spec.replica_exact()) {
    report->Check(replica_plans == real_plans,
                  "replica holds " + std::to_string(replica_plans) +
                      " plans, the manager " + std::to_string(real_plans));
  }
  return replicas;
}

/// ns per plan of EngineContext::RecostMany over all of a template's live
/// replica plans, once per replayed decision. The plans are rebuilt from
/// the hooked results: the same trees, compiled to the same programs.
double RecostNsPerPlan(const Run& run,
                       const std::vector<std::unique_ptr<Scr>>& replicas,
                       std::span<const uint32_t> window,
                       EngineContext* engine) {
  std::unordered_map<const PhysicalPlanNode*, const OptimizationResult*>
      result_of;
  for (const OptimizeCall& c : run.calls) {
    result_of[c.result->plan.get()] = c.result.get();
  }
  std::vector<std::vector<CachedPlan>> live(replicas.size());
  std::vector<std::vector<const CachedPlan*>> live_ptrs(replicas.size());
  size_t most = 1;
  for (size_t t = 0; t < replicas.size(); ++t) {
    for (const PlanPtr& p : replicas[t]->SnapshotPlans()) {
      live[t].push_back(MakeCachedPlan(*result_of.at(p.get())));
    }
    for (const CachedPlan& cp : live[t]) live_ptrs[t].push_back(&cp);
    most = std::max(most, live_ptrs[t].size());
  }
  std::vector<double> costs(most);
  std::vector<double> ns_per_plan;
  const CpuPin pin;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    int64_t plans_recosted = 0;
    const int64_t t0 = NowNs();
    for (uint32_t d : window) {
      plans_recosted += static_cast<int64_t>(engine->RecostMany(
          live_ptrs[static_cast<size_t>(DecisionTemplate(d))],
          run.fleet.instance(d).svector, costs));
    }
    ns_per_plan.push_back(PerDecision(static_cast<double>(NowNs() - t0),
                                      plans_recosted));
  }
  return Median(ns_per_plan);
}

/// RingTracer::Record of `events` into a production-default tracer,
/// drained between batches; mean ns per Record, median of the passes.
double RecordNs(const std::vector<DecisionEvent>& events) {
  if (events.empty()) return 0.0;
  RingTracer tracer;
  tracer.Record(DecisionEvent{});  // registers this thread's ring
  (void)tracer.Flush();
  std::vector<double> means;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    std::vector<DecisionEvent> batch = events;
    int64_t total = 0;
    for (size_t i = 0; i < batch.size(); i += kRecordBatch) {
      const size_t end = std::min(batch.size(), i + kRecordBatch);
      const int64_t t0 = NowNs();
      for (size_t j = i; j < end; ++j) tracer.Record(std::move(batch[j]));
      total += NowNs() - t0;
      (void)tracer.Flush();
    }
    means.push_back(PerDecision(static_cast<double>(total),
                                static_cast<int64_t>(batch.size())));
  }
  return Median(means);
}

}  // namespace

void RunProbes(Run& run, const TimedPhase& timed, Report* report) {
  const WorkloadSpec& spec = run.spec;
  Fleet& fleet = run.fleet;
  const int64_t n = static_cast<int64_t>(timed.latency_ns.size());
  run.manager->FlushAll();

  // ---- in-run counts from PlanChoice and the engine ----
  report->Metric("scr.sel_hit_frac",
                 PerDecision(static_cast<double>(timed.sel_hits), n),
                 "ratio");
  report->Metric("scr.cost_hit_frac",
                 PerDecision(static_cast<double>(timed.cost_hits), n),
                 "ratio");
  report->Metric("scr.candidates_per_decision",
                 PerDecision(static_cast<double>(timed.candidates), n),
                 "count");
  report->Metric("scr.recosts_per_decision",
                 PerDecision(static_cast<double>(timed.recosts), n),
                 "count");
  report->Metric("recost.calls_per_decision",
                 PerDecision(static_cast<double>(timed.recost_calls), n),
                 "count");
  report->Metric("pqo_manager.evictions_per_1k",
                 PerDecision(1000.0 * static_cast<double>(timed.evictions), n),
                 "count");
  std::vector<double> plans = PlansPerTemplate(run.manager->StatuszJson());
  report->Metric("scr.plans_per_template_p95",
                 ExactPercentile(&plans, 0.95), "count");
  OptimizerProbes(run, timed, report);

  EngineContext replica_engine(&fleet.db->db, fleet.optimizer.get());
  const std::vector<std::unique_ptr<Scr>> replicas =
      BuildReplicas(run, &replica_engine, report);

  // ---- replays over the stream's tail ----
  const size_t r = std::min<size_t>(static_cast<size_t>(spec.replay_decisions),
                                    fleet.stream.size());
  const std::span<const uint32_t> window(
      fleet.stream.data() + fleet.stream.size() - r, r);
  ProductionObs* in_run_obs = run.obs.get();
  std::unique_ptr<ProductionObs> replay_obs;
  if (in_run_obs == nullptr) replay_obs = std::make_unique<ProductionObs>();
  int64_t replay_errors = 0;
  auto routed = [&](uint32_t d) {
    const PlanChoice c = run.Serve(d);
    if (c.plan == nullptr || c.degraded) ++replay_errors;
  };
  auto unrouted = [&](uint32_t d) {
    PlanChoice c;
    (void)replicas[static_cast<size_t>(DecisionTemplate(d))]->TryReuse(
        fleet.instance(d), &replica_engine, &c);
  };
  // Each pass times the window three ways back to back — routed as served
  // in the run, routed with observability flipped, and the replicas'
  // TryReuse — so each difference is taken within one pass.
  // The replay is compared with the run by their quiet-decile p50s: the
  // tail is a sample of the same stream, and a burst of interference
  // during a short slice of either must not read as a different program.
  const double in_run_p50 = QuietDecile(WindowStatsOf(timed).p50, true);
  std::vector<double> as_run_p50;
  std::vector<double> try_reuse_ns;
  std::vector<double> route_ns;
  std::vector<double> obs_ns;
  double replay_p50 = 0.0;
  double gap = 0.0;
  {
    const CpuPin pin;
    std::vector<uint32_t> times;
    times.reserve(window.size());
    const int64_t replay_start = NowNs();
    do {
      for (int pass = 0; pass < kReplayPasses; ++pass) {
        const double as_run = PassMeanNs(window, routed, &times);
        as_run_p50.push_back(ExactPercentile(&times, 0.50));
        SetProgramObs(run, replay_obs.get());
        const double flipped = PassMeanNs(window, routed, &times);
        SetProgramObs(run, in_run_obs);
        const double reuse = PassMeanNs(window, unrouted, &times);
        const double with_obs = in_run_obs != nullptr ? as_run : flipped;
        const double without_obs = in_run_obs != nullptr ? flipped : as_run;
        try_reuse_ns.push_back(reuse);
        route_ns.push_back(without_obs - reuse);
        obs_ns.push_back(with_obs - without_obs);
      }
      replay_p50 = QuietDecile(as_run_p50, true);
      gap = ReplayGap(replay_p50, in_run_p50);
    } while (spec.replica_exact() && gap > kMaxReplayGap &&
             NowNs() - replay_start <= kReplayBudgetNs);
  }
  report->Info("replay_passes", std::to_string(as_run_p50.size()));
  report->Info("replay_p50_ns", std::to_string(replay_p50));
  report->Info("in_run_p50_ns", std::to_string(in_run_p50));
  report->Metric("scr.try_reuse_ns", Median(try_reuse_ns), "ns");
  report->Metric("pqo_manager.route_ns", Median(route_ns), "ns");
  report->Metric("bench.replay_gap", gap, "ratio");
  report->Check(replay_errors == 0, "replayed decisions returned no plan");
  if (spec.replica_exact()) {
    report->Check(gap <= kMaxReplayGap,
                  "routed replay p50 is " + std::to_string(gap * 100.0) +
                      "% off the in-run p50");
  }
  report->Metric("recost.ns_per_plan",
                 RecostNsPerPlan(run, replicas, window, &replica_engine),
                 "ns");

  // ---- observability: every decision served with it attached ----
  ProductionObs& obs = in_run_obs != nullptr ? *in_run_obs : *replay_obs;
  const int64_t replayed =
      static_cast<int64_t>(as_run_p50.size() * window.size());
  const int64_t decisions_with_obs =
      in_run_obs != nullptr
          ? static_cast<int64_t>(run.warm_span_ns.size()) + n + replayed
          : replayed;
  run.manager->FlushAll();
  report->Check(obs.tracer.Flush().ok(), "trace flush failed");
  const int64_t dropped = obs.tracer.dropped();
  const int64_t events = obs.tracer.total_recorded() + dropped;
  report->Metric("obs.decision_overhead_ns", Median(obs_ns), "ns");
  report->Metric("obs.events_per_decision",
                 PerDecision(static_cast<double>(events), decisions_with_obs),
                 "count");
  report->Metric("obs.drop_frac",
                 PerDecision(static_cast<double>(dropped), events), "ratio");
  report->Metric("obs.record_ns", RecordNs(obs.tracer.Snapshot()), "ns");
  report->Metric("verify.audit_ns_per_event",
                 PerDecision(static_cast<double>(obs.audit->consume_ns()),
                             obs.audit->events()),
                 "ns");
  if (replay_obs != nullptr) {
    const int64_t violations = obs.audit->auditor().violations();
    report->Check(violations == 0,
                  "online auditor found " + std::to_string(violations) +
                      " guarantee violations on the replay");
  }

  // ---- off the critical path, and the run's own validity ----
  report->Metric(
      "background.cpu_ns_per_decision",
      PerDecision(static_cast<double>(timed.process_cpu_ns -
                                      timed.client_cpu_ns),
                  n),
      "ns");
  report->Metric("bench.client_cpu_util",
                 static_cast<double>(timed.client_cpu_ns) * 1e-9 /
                     timed.wall_s,
                 "ratio");
  constexpr int kClockReads = 1 << 20;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kClockReads; ++i) (void)NowNs();
  report->Metric("bench.clock_overhead_ns",
                 PerDecision(static_cast<double>(NowNs() - t0), kClockReads),
                 "ns");
}

}  // namespace e2e
