// Workload table, seeded inputs and the observability the program is
// given. Nothing here is timed except as part of set-up.
#include "common/rng.h"
#include "harness.h"
#include "workload/instance_gen.h"

namespace e2e {

using namespace scrpqo;

namespace {

/// Instances generated per GenerateInstances call (one region-balanced,
/// shuffled batch); pools are exactly one chunk.
constexpr int kInstanceChunk = 1024;

std::vector<WorkloadSpec> MakeWorkloads() {
  // Same fleet and stream shape, λ = 2 (no Section 6.2 warm-up): cheap
  // decisions where routing (shard lookup, template lock, AsyncScr shared
  // lock) is a large share of each one.
  WorkloadSpec hit_loose;
  hit_loose.name = "hit_loose";
  hit_loose.dims = {2, 3, 4};
  hit_loose.pool_per_template = 1024;
  hit_loose.warm_per_template = 1024;
  hit_loose.manager.use_async = true;
  hit_loose.manager.warmup_instances = 0;
  hit_loose.manager.num_shards = 4;
  hit_loose.nominal_dps = 1.0e6;

  // Section 6.2 warm-up picks λ = 1.1 for every RD2 template: long
  // instance lists, most hits need the cost check, the selectivity scan
  // dominates each decision.
  WorkloadSpec hit_tight = hit_loose;
  hit_tight.name = "hit_tight";
  hit_tight.manager.warmup_instances = 4;
  hit_tight.nominal_dps = 1.2e5;

  // The write path: fresh instances only, a global plan budget far below
  // what the fleet caches unbudgeted, synchronous Scr backing so every
  // count repeats exactly for a seed. Every optimized instance adds an
  // instance-list entry that only an eviction of its plan removes, so
  // decisions slow down for as long as the stream runs; each window
  // therefore restarts from the same warmed cache.
  WorkloadSpec churn;
  churn.name = "churn";
  churn.dims = {3, 4, 5};
  churn.pool_per_template = 0;
  churn.warm_per_template = 256;
  churn.manager.use_async = false;
  churn.manager.num_shards = 4;
  churn.manager.global_plan_budget = 32;
  churn.fresh_cache_per_window = true;
  churn.nominal_dps = 4.0e4;
  churn.replay_decisions = 4096;

  // hit_loose with production observability attached end to end.
  WorkloadSpec traced = hit_loose;
  traced.name = "traced";
  traced.production_obs = true;
  traced.nominal_dps = 4.5e5;

  return {hit_loose, hit_tight, churn, traced};
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = MakeWorkloads();
  return kWorkloads;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : Workloads()) names.push_back(w.name);
  return names;
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<uint32_t> MakeStream(uint64_t seed, int templates, int pool,
                                 int first_fresh, int64_t n) {
  Pcg32 rng(MixSeed(seed, 0xE2E));
  std::vector<int> next_fresh(static_cast<size_t>(templates), first_fresh);
  std::vector<uint32_t> stream;
  stream.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    int t = static_cast<int>(rng.UniformInt(0, templates - 1));
    int k = pool > 0 ? static_cast<int>(rng.UniformInt(0, pool - 1))
                     : next_fresh[static_cast<size_t>(t)]++;
    stream.push_back(PackDecision(t, k));
  }
  return stream;
}

uint64_t StreamHash(std::span<const uint32_t> stream) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint32_t d : stream) {
    for (int b = 0; b < 4; ++b) {
      h ^= (d >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::vector<uint32_t> MakeWarmOrder(int templates, int per_template) {
  std::vector<uint32_t> order;
  order.reserve(static_cast<size_t>(templates) *
                static_cast<size_t>(per_template));
  for (int k = 0; k < per_template; ++k) {
    for (int t = 0; t < templates; ++t) order.push_back(PackDecision(t, k));
  }
  return order;
}

Fleet::Fleet(const WorkloadSpec& spec, uint64_t seed, int64_t decisions) {
  db = std::make_unique<BenchmarkDb>(BuildRd2(SchemaScale()));
  optimizer = std::make_unique<Optimizer>(&db->db);
  engine = std::make_unique<EngineContext>(&db->db, optimizer.get());
  for (int d : spec.dims) {
    shapes.push_back(BuildRd2TemplateWithDimensions(*db, d));
  }

  warm_order = MakeWarmOrder(kTemplates, spec.warm_per_template);
  stream = MakeStream(seed, kTemplates, spec.pool_per_template,
                      spec.warm_per_template, decisions);

  // Instances each template needs: its pool, or its warm instances plus
  // one fresh instance per stream draw.
  std::vector<int> needed(static_cast<size_t>(kTemplates),
                          spec.pool_per_template > 0
                              ? spec.pool_per_template
                              : spec.warm_per_template);
  if (spec.pool_per_template == 0) {
    for (uint32_t d : stream) {
      ++needed[static_cast<size_t>(DecisionTemplate(d))];
    }
  }
  for (int t = 0; t < kTemplates; ++t) {
    const size_t shape = static_cast<size_t>(t) % shapes.size();
    keys.push_back("rd2_t" + std::to_string(t) + "_d" +
                   std::to_string(spec.dims[shape]));
    // Instance k of template t is the same for every seed and stream
    // length: fixed-size chunks with their own generator seeds. The seed
    // picks the traffic over this fixed instance set, so a metric's
    // spread across seeds is the stream's, not a different fleet's.
    std::vector<WorkloadInstance>& mine = instances.emplace_back();
    for (uint64_t chunk = 0;
         static_cast<int>(mine.size()) < needed[static_cast<size_t>(t)];
         ++chunk) {
      InstanceGenOptions gen;
      gen.m = kInstanceChunk;
      gen.seed = MixSeed(static_cast<uint64_t>(t), chunk);
      for (WorkloadInstance& wi : GenerateInstances(shapes[shape], gen)) {
        wi.id = static_cast<int>(mine.size());
        mine.push_back(std::move(wi));
      }
    }
  }
}

void TimedAuditSink::Consume(const std::vector<DecisionEvent>& batch) {
  int64_t t0 = NowNs();
  auditor_.Consume(batch);
  consume_ns_.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  events_.fetch_add(static_cast<int64_t>(batch.size()),
                    std::memory_order_relaxed);
}

ProductionObs::ProductionObs() {
  OnlineAuditorOptions options;
  options.alert_tracer = &tracer;
  options.metrics = &registry;
  audit = std::make_shared<TimedAuditSink>(options);
  tracer.AddSink(audit);
}

}  // namespace e2e
