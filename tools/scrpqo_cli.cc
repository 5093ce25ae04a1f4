// scrpqo_cli — run any PQO technique over a SQL-defined parameterized query
// against one of the built-in databases and report the paper's metrics.
//
// Usage:
//   scrpqo_cli [--db tpch|tpcds|rd1|rd2] [--technique NAME] [--lambda X]
//              [--m N] [--ordering random|dec-cost|round-robin|inside-out|
//              outside-in] [--budget K] [--seed S] [--sql "SELECT ..."]
//              [--explain] [--trace]
//
// Techniques: scr (default), async-scr, pcm, ellipse, density, ranges,
// opt-once, opt-always. Without --sql a built-in 2-d template is used.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/fault_injection.h"
#include "obs/admin_server.h"
#include "obs/emit.h"
#include "obs/metrics_registry.h"
#include "obs/ring_tracer.h"
#include "obs/trace.h"
#include "verify/guarantee_audit.h"
#include "verify/online_auditor.h"
#include "pqo/async_scr.h"
#include "pqo/cache_persistence.h"
#include "pqo/density.h"
#include "pqo/ellipse.h"
#include "pqo/opt_always.h"
#include "pqo/opt_once.h"
#include "pqo/pcm.h"
#include "pqo/ranges.h"
#include "pqo/scr.h"
#include "sql/parser.h"
#include "workload/instance_gen.h"
#include "workload/runner.h"
#include "workload/schemas.h"
#include "workload/templates.h"
#include "workload/named_templates.h"
#include "workload/trace.h"

using namespace scrpqo;

namespace {

struct CliOptions {
  std::string db = "tpch";
  std::string technique = "scr";
  double lambda = 2.0;
  int m = 500;
  std::string ordering = "random";
  int budget = 0;
  uint64_t seed = 20170514;
  std::string sql;
  std::string template_name;  // named template (see --list-templates)
  bool list_templates = false;
  bool explain = false;
  bool trace = false;
  std::string save_trace;    // write the generated instance set as CSV
  std::string replay_trace;  // load instances from CSV instead of sampling
  std::string save_cache;    // persist the SCR plan cache after the run
  std::string load_cache;    // restore an SCR plan cache before the run
  std::string trace_events;  // write per-decision JSONL events here
  std::string metrics_json;  // write the metrics-registry snapshot here
  bool audit = false;  // re-derive every traced decision after the run
  /// Streaming lambda-compliance monitor on the exporter stream.
  bool online_audit = false;
  /// Fault-injection schedule (FaultRegistry::ConfigureFromString syntax);
  /// merged on top of the SCRPQO_FAULTS environment schedule.
  std::string faults;
  /// Fault seed override (empty = SCRPQO_FAULT_SEED / 0).
  std::string fault_seed;
  /// Embedded admin HTTP server port (0 = ephemeral); -1 disables.
  int admin_port = -1;
  /// Keep the admin server up this long after the run so an operator or
  /// the CI smoke step can scrape /metrics and /statusz.
  int admin_linger_ms = 0;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: scrpqo_cli [--db tpch|tpcds|rd1|rd2] [--technique scr|"
      "async-scr|pcm|ellipse|density|ranges|opt-once|opt-always]\n"
      "                  [--lambda X] [--m N] [--ordering random|dec-cost|"
      "round-robin|inside-out|outside-in]\n"
      "                  [--budget K] [--seed S] [--sql \"SELECT ...\"]\n"
      "                  [--template NAME] [--list-templates]\n"
      "                  [--save-trace F] [--replay-trace F]\n"
      "                  [--save-cache F] [--load-cache F]\n"
      "                  [--trace-events F] [--metrics-json F]\n"
      "                  [--online-audit]\n"
      "                  [--faults SPEC] [--fault-seed S]\n"
      "                  [--admin-port P] [--admin-linger-ms MS]\n"
      "                  [--explain] [--trace] [--audit]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, CliOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--db") {
      const char* v = next();
      if (!v) return false;
      opts->db = v;
    } else if (arg == "--technique") {
      const char* v = next();
      if (!v) return false;
      opts->technique = v;
    } else if (arg == "--lambda") {
      const char* v = next();
      if (!v) return false;
      opts->lambda = std::atof(v);
    } else if (arg == "--m") {
      const char* v = next();
      if (!v) return false;
      opts->m = std::atoi(v);
    } else if (arg == "--ordering") {
      const char* v = next();
      if (!v) return false;
      opts->ordering = v;
    } else if (arg == "--budget") {
      const char* v = next();
      if (!v) return false;
      opts->budget = std::atoi(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return false;
      opts->seed = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--sql") {
      const char* v = next();
      if (!v) return false;
      opts->sql = v;
    } else if (arg == "--template") {
      const char* v = next();
      if (!v) return false;
      opts->template_name = v;
    } else if (arg == "--list-templates") {
      opts->list_templates = true;
    } else if (arg == "--explain") {
      opts->explain = true;
    } else if (arg == "--trace") {
      opts->trace = true;
    } else if (arg == "--save-trace") {
      const char* v = next();
      if (!v) return false;
      opts->save_trace = v;
    } else if (arg == "--replay-trace") {
      const char* v = next();
      if (!v) return false;
      opts->replay_trace = v;
    } else if (arg == "--save-cache") {
      const char* v = next();
      if (!v) return false;
      opts->save_cache = v;
    } else if (arg == "--load-cache") {
      const char* v = next();
      if (!v) return false;
      opts->load_cache = v;
    } else if (arg == "--trace-events") {
      const char* v = next();
      if (!v) return false;
      opts->trace_events = v;
    } else if (arg == "--metrics-json") {
      const char* v = next();
      if (!v) return false;
      opts->metrics_json = v;
    } else if (arg == "--audit") {
      opts->audit = true;
    } else if (arg == "--online-audit") {
      opts->online_audit = true;
    } else if (arg == "--faults") {
      const char* v = next();
      if (!v) return false;
      opts->faults = v;
    } else if (arg == "--fault-seed") {
      const char* v = next();
      if (!v) return false;
      opts->fault_seed = v;
    } else if (arg == "--admin-port") {
      const char* v = next();
      if (!v) return false;
      opts->admin_port = std::atoi(v);
    } else if (arg == "--admin-linger-ms") {
      const char* v = next();
      if (!v) return false;
      opts->admin_linger_ms = std::atoi(v);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

std::unique_ptr<PqoTechnique> MakeTechnique(const CliOptions& opts) {
  ScrOptions scr_opts;
  scr_opts.lambda = opts.lambda;
  scr_opts.plan_budget = opts.budget;
  if (opts.technique == "scr") return std::make_unique<Scr>(scr_opts);
  if (opts.technique == "async-scr") {
    return std::make_unique<AsyncScr>(scr_opts);
  }
  if (opts.technique == "pcm") {
    return std::make_unique<Pcm>(PcmOptions{.lambda = opts.lambda});
  }
  if (opts.technique == "ellipse") {
    return std::make_unique<Ellipse>(EllipseOptions{});
  }
  if (opts.technique == "density") {
    return std::make_unique<Density>(DensityOptions{});
  }
  if (opts.technique == "ranges") {
    return std::make_unique<Ranges>(RangesOptions{});
  }
  if (opts.technique == "opt-once") return std::make_unique<OptOnce>();
  if (opts.technique == "opt-always") return std::make_unique<OptAlways>();
  return nullptr;
}

OrderingKind OrderingFromName(const std::string& name) {
  for (OrderingKind kind : AllOrderings()) {
    if (OrderingName(kind) == name) return kind;
  }
  return OrderingKind::kRandom;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  if (!ParseArgs(argc, argv, &opts)) return Usage();

  if (opts.list_templates) {
    std::printf("named templates (use with --template NAME):\n");
    for (const auto& nt : ListNamedTemplates()) {
      std::printf("  %-16s [%s] %s\n", nt.name.c_str(),
                  nt.database.c_str(), nt.description.c_str());
    }
    return 0;
  }

  // Fault schedule: environment first (chaos CI arms through SCRPQO_FAULTS
  // so the binary under test needs no special flags), then explicit flags
  // layered on top.
  FaultRegistry& faultreg = FaultRegistry::Global();
  {
    Status st = faultreg.ConfigureFromEnv();
    if (st.ok() && !opts.fault_seed.empty()) {
      faultreg.SetSeed(static_cast<uint64_t>(std::atoll(
          opts.fault_seed.c_str())));
    }
    if (st.ok() && !opts.faults.empty()) {
      st = faultreg.ConfigureFromString(opts.faults);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "fault config error: %s\n",
                   st.ToString().c_str());
      return 2;
    }
  }
  if (faultreg.enabled()) {
    std::printf("fault injection armed:");
    for (const std::string& p : faultreg.ArmedPoints()) {
      std::printf(" %s", p.c_str());
    }
    std::printf("\n");
  }

  SchemaScale scale;
  scale.seed = opts.seed;

  // Named templates know their database; otherwise build the requested one.
  std::vector<BenchmarkDb> all_dbs;  // kept alive for named templates
  BenchmarkDb db;
  BoundTemplate bt;
  if (!opts.template_name.empty()) {
    all_dbs = BuildAllDatabases(scale);
    bt = BuildNamedTemplate(all_dbs, opts.template_name);
  } else {
    if (opts.db == "tpch") {
      db = BuildTpchSkewed(scale);
    } else if (opts.db == "tpcds") {
      db = BuildDsLike(scale);
    } else if (opts.db == "rd1") {
      db = BuildRd1(scale);
    } else if (opts.db == "rd2") {
      db = BuildRd2(scale);
    } else {
      std::fprintf(stderr, "unknown database: %s\n", opts.db.c_str());
      return Usage();
    }
    bt.db = &db;
    if (opts.sql.empty()) {
      if (opts.db == "tpch") {
        bt = BuildExample2dTemplate(db);
      } else if (opts.db == "rd2") {
        bt = BuildRd2TemplateWithDimensions(db, 4);
      } else {
        std::fprintf(stderr,
                     "--sql or --template is required for db %s\n",
                     opts.db.c_str());
        return 2;
      }
    } else {
      auto parsed = ParseQueryTemplate(db.db.catalog(), opts.sql, "cli");
      if (!parsed.ok()) {
        std::fprintf(stderr, "SQL error: %s\n",
                     parsed.status().ToString().c_str());
        return 1;
      }
      bt.tmpl = parsed.ValueOrDie();
    }
  }
  std::printf("%s\n", bt.tmpl->ToString().c_str());

  Optimizer optimizer(&bt.db->db);
  std::vector<WorkloadInstance> instances;
  if (!opts.replay_trace.empty()) {
    auto loaded = LoadTrace(bt, opts.replay_trace);
    if (!loaded.ok()) {
      std::fprintf(stderr, "trace error: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    instances = loaded.MoveValueOrDie();
    std::printf("replaying %zu instances from %s\n", instances.size(),
                opts.replay_trace.c_str());
  } else {
    InstanceGenOptions gen;
    gen.m = opts.m;
    gen.seed = opts.seed + 1;
    instances = GenerateInstances(bt, gen);
  }
  if (!opts.save_trace.empty()) {
    Status st = SaveTrace(instances, opts.save_trace);
    if (!st.ok()) {
      std::fprintf(stderr, "trace error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("saved %zu instances to %s\n", instances.size(),
                opts.save_trace.c_str());
  }
  Oracle oracle = Oracle::Build(optimizer, instances);
  auto perm = MakeOrdering(OrderingFromName(opts.ordering),
                           oracle.OrderingInfo(), opts.seed + 2);

  if (opts.explain) {
    std::printf("\noptimal plan for the first instance:\n%s\n",
                oracle.result(perm[0])->plan->ToString().c_str());
  }

  auto technique = MakeTechnique(opts);
  if (technique == nullptr) {
    std::fprintf(stderr, "unknown technique: %s\n", opts.technique.c_str());
    return Usage();
  }

  // Cache persistence is an SCR feature (the cache format is SCR's).
  Scr* scr_ptr =
      opts.technique == "scr" ? static_cast<Scr*>(technique.get()) : nullptr;
  if (!opts.load_cache.empty()) {
    if (scr_ptr == nullptr) {
      std::fprintf(stderr, "--load-cache requires --technique scr\n");
      return 2;
    }
    // Lenient restore: a truncated or bit-flipped snapshot yields its
    // valid prefix (a smaller warm cache) instead of an empty one, and a
    // snapshot of another template yields none — a cold start is the
    // worst case, never a crash or a plan that does not fit the query.
    SnapshotRestoreReport restore;
    Status st = LoadScrCacheFromFileLenient(opts.load_cache, *bt.tmpl,
                                            scr_ptr, &restore);
    if (!st.ok()) {
      std::fprintf(stderr, "cache error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("restored plan cache: %lld plans, %lld instance entries\n",
                static_cast<long long>(scr_ptr->NumPlansCached()),
                static_cast<long long>(scr_ptr->NumInstancesStored()));
    if (restore.records_dropped > 0) {
      std::printf("  valid prefix ends at a corrupt or foreign record: "
                  "dropped %d record%s (%s)\n",
                  restore.records_dropped,
                  restore.records_dropped == 1 ? "" : "s",
                  restore.first_error.c_str());
    }
  }

  if (opts.trace) {
    // Per-instance trace with decision + SO.
    EngineContext engine(&bt.db->db, &optimizer);
    engine.SetOracle([&oracle](const WorkloadInstance& wi) {
      return oracle.result(wi.id);
    });
    for (size_t i = 0; i < perm.size() && i < 50; ++i) {
      const WorkloadInstance& wi =
          instances[static_cast<size_t>(perm[i])];
      PlanChoice c = technique->OnInstance(wi, &engine);
      double so = engine.RecostUncharged(*c.plan, wi.svector) /
                  oracle.opt_cost(wi.id);
      std::printf("  #%-4zu %-10s SO=%.3f\n", i + 1,
                  c.optimized ? "OPTIMIZE" : "reuse", std::max(so, 1.0));
    }
    if (perm.size() > 50) std::printf("  ... (trace capped at 50)\n");
    return 0;
  }

  RunSequenceOptions ropts;
  ropts.lambda_for_violations = opts.lambda;
  ropts.ordering_name = opts.ordering;
  std::unique_ptr<RingTracer> tracer;
  std::unique_ptr<MetricsRegistry> registry;
  const bool want_tracer =
      !opts.trace_events.empty() || opts.audit || opts.online_audit;
  if (want_tracer) {
    // Size the rings and the retained window generously so a full run
    // (decisions + cache events) is never dropped or wrapped; the audit
    // must see every decision.
    tracer = std::make_unique<RingTracer>(
        static_cast<size_t>(std::max(1024, 4 * opts.m)));
    if (!opts.trace_events.empty()) {
      auto sink = std::make_shared<JsonlFileSink>(opts.trace_events);
      if (!sink->ok()) {
        std::fprintf(stderr, "trace-events error: cannot open trace file: "
                             "%s\n", opts.trace_events.c_str());
        return 1;
      }
      tracer->AddSink(std::move(sink));
    }
    ropts.tracer = tracer.get();
  }
  if (!opts.metrics_json.empty() || opts.admin_port >= 0 ||
      opts.online_audit) {
    registry = std::make_unique<MetricsRegistry>();
    ropts.metrics = registry.get();
  }

  // Every fired fault leaves a kFaultInjected meta event (point name in
  // the technique field) and bumps faults.fired, so chaos runs are
  // auditable from the JSONL/metrics alone.
  if (faultreg.enabled() && (tracer != nullptr || registry != nullptr)) {
    RingTracer* fault_tracer = tracer.get();
    Counter* fault_counter =
        registry != nullptr ? registry->counter("faults.fired") : nullptr;
    faultreg.SetOnFire([fault_tracer, fault_counter](std::string_view point,
                                                     double /*param*/) {
      if (fault_counter != nullptr) fault_counter->Increment();
      DecisionEvent e;
      e.outcome = DecisionOutcome::kFaultInjected;
      e.technique = NameId::Intern(point);
      EmitDecisionEvent(fault_tracer, e);
    });
  }

  const bool is_scr_family =
      opts.technique == "scr" || opts.technique == "async-scr";

  std::shared_ptr<OnlineAuditor> online_auditor;
  if (opts.online_audit) {
    OnlineAuditorOptions aopts;
    aopts.config.lambda = opts.lambda;
    if (is_scr_family) {
      aopts.config.lambda_r = std::sqrt(opts.lambda);  // ScrOptions default
    }
    aopts.alert_tracer = tracer.get();
    aopts.metrics = registry.get();
    online_auditor = std::make_shared<OnlineAuditor>(aopts);
    tracer->AddSink(online_auditor);
  }

  std::unique_ptr<AdminServer> admin;
  if (opts.admin_port >= 0) {
    AdminServer::Options aopts;
    aopts.port = opts.admin_port;
    aopts.metrics = registry.get();
    RingTracer* statusz_tracer = tracer.get();
    std::string statusz_technique = opts.technique;
    double statusz_lambda = opts.lambda;
    aopts.statusz = [statusz_tracer, statusz_technique, statusz_lambda]() {
      std::string out = "{\"technique\":\"" + statusz_technique +
                        "\",\"lambda\":" + std::to_string(statusz_lambda) +
                        ",\"trace_ring_drops\":";
      out += std::to_string(statusz_tracer != nullptr
                                ? statusz_tracer->dropped()
                                : 0);
      out += "}\n";
      return out;
    };
    admin = std::make_unique<AdminServer>(std::move(aopts));
    Status st = admin->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "admin server error: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("admin server listening on 127.0.0.1:%d\n", admin->port());
    std::fflush(stdout);
  }

  SequenceMetrics m = RunSequence(optimizer, instances, perm, oracle,
                                  technique.get(), ropts);
  // Drain the rings and flush the sinks before reading the trace back
  // (writes, audits, status) — the exporter runs on its own clock.
  if (tracer != nullptr) {
    Status st = tracer->Flush();
    if (!st.ok()) {
      std::fprintf(stderr, "trace flush error: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::printf("\n%s over %lld instances (%s ordering):\n",
              technique->name().c_str(), static_cast<long long>(m.m),
              opts.ordering.c_str());
  std::printf("  optimizer calls   : %lld (%.1f%%)\n",
              static_cast<long long>(m.num_opt), m.NumOptPercent());
  std::printf("  Recost calls      : %lld\n",
              static_cast<long long>(m.num_recost_calls));
  std::printf("  plans cached      : %lld\n",
              static_cast<long long>(m.num_plans));
  std::printf("  MSO               : %.3f\n", m.mso);
  std::printf("  TotalCostRatio    : %.3f\n", m.total_cost_ratio);
  std::printf("  bound violations  : %lld\n",
              static_cast<long long>(m.bound_violations));

  if (tracer != nullptr && !opts.trace_events.empty()) {
    // The file sink streamed every exported event; Flush above made it
    // durable.
    std::printf("wrote %lld decision events to %s\n",
                static_cast<long long>(tracer->total_recorded()),
                opts.trace_events.c_str());
  }
  if (registry != nullptr && !opts.metrics_json.empty()) {
    Status st = registry->WriteJsonFile(opts.metrics_json);
    if (!st.ok()) {
      std::fprintf(stderr, "metrics-json error: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("wrote metrics snapshot to %s\n", opts.metrics_json.c_str());
  }

  if (!opts.save_cache.empty()) {
    if (scr_ptr == nullptr) {
      std::fprintf(stderr, "--save-cache requires --technique scr\n");
      return 2;
    }
    Status st = SaveScrCacheToFile(*scr_ptr, opts.save_cache);
    if (!st.ok()) {
      std::fprintf(stderr, "cache error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("saved plan cache to %s\n", opts.save_cache.c_str());
  }

  if (opts.audit) {
    // Re-derive every traced decision (and, for SCR, the final cache
    // state) from the recorded arithmetic. A violation here means the
    // run broke the paper's lambda guarantee — exit nonzero.
    AuditConfig config;
    config.lambda = opts.lambda;
    if (is_scr_family) {
      config.lambda_r = std::sqrt(opts.lambda);  // ScrOptions default
    }
    AuditReport report = AuditTrace(tracer->Snapshot(), config);
    if (scr_ptr != nullptr) {
      report.Merge(AuditCacheSnapshot(scr_ptr->SnapshotPlans(),
                                      scr_ptr->SnapshotInstances(),
                                      config));
    }
    std::printf("\n%s\n", report.ToString().c_str());
    if (!report.ok()) return 1;
  }

  int rc = 0;
  if (online_auditor != nullptr) {
    std::printf(
        "\nonline audit: %lld decisions checked, %lld violations",
        static_cast<long long>(online_auditor->checked()),
        static_cast<long long>(online_auditor->violations()));
    double margin = online_auditor->worst_margin();
    if (std::isfinite(margin)) {
      std::printf(", worst margin %.6f", margin);
    }
    std::printf("\n");
    if (online_auditor->violations() > 0) rc = 1;
  }

  if (faultreg.enabled()) {
    std::printf("\nfault injection: %lld total fires\n",
                static_cast<long long>(faultreg.TotalFires()));
    for (const std::string& p : faultreg.ArmedPoints()) {
      FaultPointStats s = faultreg.StatsFor(p);
      std::printf("  %-24s evaluations=%lld fires=%lld\n", p.c_str(),
                  static_cast<long long>(s.evaluations),
                  static_cast<long long>(s.fires));
    }
    // The hook captures the tracer/registry, which die with main.
    faultreg.SetOnFire(nullptr);
  }

  if (admin != nullptr && opts.admin_linger_ms > 0) {
    // Leave the operator surface up after the run (CI smoke / manual
    // curls); the run's metrics and status stay scrapeable meanwhile.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(opts.admin_linger_ms));
  }
  return rc;
}
