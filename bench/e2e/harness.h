// End-to-end routed-getPlan benchmark: shared declarations.
//
// One closed-loop client thread drives PqoManager::OnInstance over a fleet
// of RD2 templates, the way an engine's compile path calls getPlan
// synchronously per session. The fleet's instance sets are fixed; the
// seed derives the (template, instance) stream and --seconds the decision
// count, both before timing starts. The program under test only ever
// sees the generated WorkloadInstances.
#pragma once

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/ring_tracer.h"
#include "pqo/pqo_manager.h"
#include "verify/online_auditor.h"
#include "workload/schemas.h"
#include "workload/templates.h"

namespace e2e {

/// Templates in every workload's fleet.
inline constexpr int kTemplates = 16;

/// One serving workload: fleet shape, manager configuration and stream.
struct WorkloadSpec {
  std::string name;
  /// Template dimensionalities, cycled over the fleet.
  std::vector<int> dims;
  /// Distinct instances per template the stream draws from uniformly;
  /// 0 means every decision gets a fresh, never-repeated instance.
  int pool_per_template = 0;
  /// Instances per template served untimed (round-robin over templates)
  /// before the timed phase, so caches are filled when timing starts.
  int warm_per_template = 0;
  scrpqo::PqoManagerOptions manager;
  /// Attach a RingTracer, a MetricsRegistry and an OnlineAuditor sink to
  /// the manager and the engine for the whole run.
  bool production_obs = false;
  /// Decisions per second of --seconds: fixes the timed decision count
  /// before timing, so a run does the same work on every commit.
  double nominal_dps = 0.0;
  /// Start every window of the timed phase from a freshly warmed cache
  /// (a new manager serving the warm pass again, untimed), so the windows
  /// repeat one episode. For a stream that never reaches a steady state.
  bool fresh_cache_per_window = false;
  /// Decisions (the stream's tail) replayed by the traced run's probes.
  int replay_decisions = 65536;

  /// Whether a per-template replica can match the real cache exactly,
  /// which makes the replay-gap and fidelity checks apply: not under a
  /// global budget, whose cross-template evictions it cannot reproduce.
  bool replica_exact() const { return manager.global_plan_budget == 0; }
};

/// The four workloads, by name; null for an unknown one.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// ---- stream ----

/// One decision of the stream: a template index and an instance index into
/// that template's instance vector, packed into 32 bits.
inline uint32_t PackDecision(int tmpl, int inst) {
  return (static_cast<uint32_t>(tmpl) << 24) | static_cast<uint32_t>(inst);
}
inline int DecisionTemplate(uint32_t d) { return static_cast<int>(d >> 24); }
inline int DecisionInstance(uint32_t d) {
  return static_cast<int>(d & 0xFFFFFFu);
}

/// splitmix64 finalizer: derives independent sub-seeds from the run seed.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// The timed stream: `n` decisions, each a uniform template draw. With a
/// pool, the instance is a uniform draw from it; without one, it is the
/// template's next unused instance, numbered from `first_fresh` up.
std::vector<uint32_t> MakeStream(uint64_t seed, int templates, int pool,
                                 int first_fresh, int64_t n);

/// FNV-1a over the packed stream: equal seeds must give equal hashes.
uint64_t StreamHash(std::span<const uint32_t> stream);

/// The warm pass: instances 0..per_template-1 of every template,
/// round-robin over templates.
std::vector<uint32_t> MakeWarmOrder(int templates, int per_template);

// ---- statistics ----

/// Exact nearest-rank percentile (p in (0, 1]) of `values`; reorders it.
uint32_t ExactPercentile(std::vector<uint32_t>* values, double p);
double ExactPercentile(std::vector<double>* values, double p);

/// Stride of the 1-in-K quality sample: the smallest K with at most
/// `target` indices i of [0, n) satisfying i % K == 0.
int64_t SampleStride(int64_t n, int64_t target);

/// A layer's self time: its span minus the part its children cover
/// (children are nested in the span, so never more than all of it).
double SelfTime(double span_ns, double children_ns);

/// Decisions [first, second) of window `w` when `n` decisions are cut into
/// `windows` consecutive slices of equal size (up to one decision).
std::pair<int64_t, int64_t> WindowRange(int64_t n, size_t windows, size_t w);

/// Relative distance of a replayed mean from the in-run mean of the same
/// decisions.
double ReplayGap(double replay_ns, double in_run_ns);

double Median(std::vector<double> values);

/// The window value at the best decile: index n/10 from the good end of
/// `values` sorted by goodness. Interference from outside the process
/// only ever adds time, and on a shared host it comes in bursts that can
/// cover most of a run, so the quiet windows measure the program; the
/// single best one could be a lucky outlier.
double QuietDecile(std::vector<double> values, bool lower_is_better);

/// steady_clock in nanoseconds.
int64_t NowNs();
/// A measured duration as stored per decision (saturating at ~4.3 s).
inline uint32_t ClampNs(int64_t ns) {
  return static_cast<uint32_t>(
      std::clamp<int64_t>(ns, 0, std::numeric_limits<uint32_t>::max()));
}
/// CPU time of the calling thread / of the whole process, nanoseconds.
int64_t ThreadCpuNs();
int64_t ProcessCpuNs();

// ---- fleet ----

/// Owns everything the timed phase needs: the database, the optimizer and
/// engine, one RD2 shape per dimensionality, per-template instances and
/// the seeded stream.
struct Fleet {
  Fleet(const WorkloadSpec& spec, uint64_t seed, int64_t decisions);
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  const scrpqo::WorkloadInstance& instance(uint32_t d) const {
    return instances[static_cast<size_t>(DecisionTemplate(d))]
                    [static_cast<size_t>(DecisionInstance(d))];
  }

  std::unique_ptr<scrpqo::BenchmarkDb> db;
  std::unique_ptr<scrpqo::Optimizer> optimizer;
  std::unique_ptr<scrpqo::EngineContext> engine;
  std::vector<scrpqo::BoundTemplate> shapes;
  std::vector<std::string> keys;
  std::vector<std::vector<scrpqo::WorkloadInstance>> instances;
  std::vector<uint32_t> warm_order;
  std::vector<uint32_t> stream;
};

// ---- observability attached to the program ----

/// A TraceSink that times each OnlineAuditor::Consume batch.
class TimedAuditSink : public scrpqo::TraceSink {
 public:
  explicit TimedAuditSink(scrpqo::OnlineAuditorOptions options)
      : auditor_(std::move(options)) {}
  void Consume(const std::vector<scrpqo::DecisionEvent>& batch) override;
  const scrpqo::OnlineAuditor& auditor() const { return auditor_; }
  int64_t consume_ns() const {
    return consume_ns_.load(std::memory_order_relaxed);
  }
  int64_t events() const { return events_.load(std::memory_order_relaxed); }

 private:
  scrpqo::OnlineAuditor auditor_;
  std::atomic<int64_t> consume_ns_{0};
  std::atomic<int64_t> events_{0};
};

/// Production observability: a default RingTracer, a MetricsRegistry and
/// an OnlineAuditor behind a timing sink. The registry is declared first:
/// the tracer's destructor drains into the auditor, which updates it.
struct ProductionObs {
  ProductionObs();
  scrpqo::MetricsRegistry registry;
  scrpqo::RingTracer tracer;
  std::shared_ptr<TimedAuditSink> audit;
  scrpqo::ObsHooks hooks() { return {&tracer, &registry}; }
};

/// Pins the calling thread to the CPU it is on for this object's lifetime,
/// then restores its affinity. Threads the program already started (the
/// AsyncScr workers, the trace exporter) keep theirs, so they run beside
/// the client instead of migrating it; a no-op where affinity is refused.
class CpuPin {
 public:
  CpuPin();
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// ---- result ----

/// Named metrics with units, correctness checks, and the result file.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed check when `ok` is false.
  void Check(bool ok, const std::string& what);
  void Info(const std::string& name, const std::string& value);
  bool correct() const { return failures_.empty(); }

  /// Prints every metric by name and unit, then each failed check.
  void Print() const;
  bool WriteJson(const std::string& path, int64_t attempted,
                 int64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
};

// ---- one run ----

/// An optimizer call seen through the traced run's EngineContext oracle
/// (the child span of the decision it served).
struct OptimizeCall {
  uint32_t decision = 0;  // packed (template, instance)
  int64_t seq = 0;        // index over warm pass + timed phase
  /// Section 6.2 Optimize-Always warm-up: served, never cached.
  bool warmup = false;
  int64_t ns = 0;
  std::shared_ptr<const scrpqo::OptimizationResult> result;
};

/// The timed phase is cut into this many equal slices of the stream
/// ("windows"); each gets its own exact latency percentiles and
/// throughput, and the run reports their QuietDecile.
inline constexpr size_t kWindows = 20;

/// What the client loop measured over the timed phase.
struct TimedPhase {
  /// Root span of every routed decision, preallocated before timing.
  std::vector<uint32_t> latency_ns;
  /// Wall time of each window.
  std::vector<double> window_s;
  /// Decisions that returned no plan or were degraded.
  int64_t errors = 0;
  /// Sums over the windows (re-warming between windows is excluded).
  double wall_s = 0.0;
  int64_t client_cpu_ns = 0;
  int64_t process_cpu_ns = 0;
  int64_t optimizer_calls = 0;
  int64_t recost_calls = 0;
  int64_t evictions = 0;
  /// Plans served at indices 0, K, 2K, ... for the quality sample.
  int64_t sample_stride = 1;
  std::vector<std::shared_ptr<const scrpqo::CachedPlan>> samples;
  /// PlanChoice tallies (traced runs).
  int64_t sel_hits = 0;
  int64_t cost_hits = 0;
  int64_t recosts = 0;
  int64_t candidates = 0;
};

/// Per-window exact p50 and p99 (ns) and throughput (decisions/s).
struct WindowStats {
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> dps;
};
WindowStats WindowStatsOf(const TimedPhase& ph);

/// One workload instance set up and served: the fleet, the manager and,
/// in traced runs, the optimizer hook's records.
class Run {
 public:
  Run(const WorkloadSpec& spec, uint64_t seed, int64_t decisions,
      bool traced);
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  /// One routed decision.
  scrpqo::PlanChoice Serve(uint32_t decision);
  /// Serves the warm pass untimed. Under AsyncScr every optimized
  /// decision is flushed before the next one, so the warmed cache is the
  /// same on every run of a seed.
  void Warm();
  /// The closed-loop timed phase over the stream.
  TimedPhase Timed(int64_t sample_target);

  const WorkloadSpec& spec;
  const bool traced;
  Fleet fleet;
  std::unique_ptr<ProductionObs> obs;
  /// Declared after the fleet and obs so it is destroyed before them: it
  /// holds pointers into both.
  std::unique_ptr<scrpqo::PqoManager> manager;

  // Traced runs only.
  std::vector<OptimizeCall> calls;
  std::vector<uint32_t> warm_span_ns;

 private:
  void ServeWarmPass(bool record_spans);
  /// Replaces the manager with a fresh one and serves the warm pass again,
  /// leaving no trace in the run's records (hook calls, sequence numbers).
  void Rewarm();

  int64_t next_seq_ = 0;
  int64_t current_seq_ = 0;
  uint32_t current_ = 0;
  bool current_warmup_ = false;
  std::vector<int> served_;
};

/// The traced run's per-layer probes: replica caches, replays and obs
/// timings, all through public calls, after the timed phase.
void RunProbes(Run& run, const TimedPhase& timed, Report* report);

/// `bench_e2e --self-test`: checks the harness's own arithmetic and the
/// stream generator. Returns the process exit code.
int RunSelfTest();

}  // namespace e2e
