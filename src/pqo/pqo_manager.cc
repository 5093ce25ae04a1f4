#include "pqo/pqo_manager.h"

#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <thread>
#include <utility>

#include "obs/emit.h"
#include "obs/scoped_timer.h"

namespace scrpqo {

PqoManager::PqoManager(PqoManagerOptions options)
    : options_(options),
      warmup_fallback_name_(
          NameId::Intern("PqoManager(warmup-fallback:default_lambda)")),
      warmup_failed_name_(
          NameId::Intern("PqoManager(warmup-optimize-failed)")) {
  int n = options_.num_shards;
  if (n <= 0) {
    n = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

PqoManager::Shard& PqoManager::ShardFor(const std::string& key) const {
  size_t h = std::hash<std::string>{}(key);
  return *shards_[h % shards_.size()];
}

void PqoManager::SetObs(const ObsHooks& hooks) {
  {
    MutexLock obs_lock(obs_mu_);
    obs_ = hooks;
    span_enabled_.store(hooks.tracer != nullptr, std::memory_order_relaxed);
    if (hooks.metrics != nullptr) {
      templates_created_.store(
          hooks.metrics->counter("pqo_manager.templates"),
          std::memory_order_relaxed);
      invalidations_.store(
          hooks.metrics->counter("pqo_manager.invalidations"),
          std::memory_order_relaxed);
      global_evictions_counter_.store(
          hooks.metrics->counter("pqo_manager.global_evictions"),
          std::memory_order_relaxed);
      warmup_fallbacks_counter_.store(
          hooks.metrics->counter("pqo_manager.warmup_fallbacks"),
          std::memory_order_relaxed);
      degraded_counter_.store(
          hooks.metrics->counter("pqo.degraded_decisions"),
          std::memory_order_relaxed);
    } else {
      templates_created_.store(nullptr, std::memory_order_relaxed);
      invalidations_.store(nullptr, std::memory_order_relaxed);
      global_evictions_counter_.store(nullptr, std::memory_order_relaxed);
      warmup_fallbacks_counter_.store(nullptr, std::memory_order_relaxed);
      degraded_counter_.store(nullptr, std::memory_order_relaxed);
    }
  }
  // Forward to existing caches. obs_mu_ is NOT held here: AllCaches takes
  // state mutexes, while FinishWarmupLocked acquires obs_mu_ under a state
  // mutex — holding both sides here would invert that order. A template
  // that leaves warm-up after its pointer was read copies obs_ from above.
  for (const CacheRef& ref : AllCaches()) ref.cache->SetObs(hooks);
}

PqoManager::StatePtr PqoManager::GetOrCreate(const std::string& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.templates.find(key);
  if (it != shard.templates.end()) return it->second;
  // The key is baked into the state before publication, so lock-free
  // readers (StatuszJson) never observe a half-written identity.
  auto st = std::make_shared<TemplateState>(key);
  shard.templates.emplace(key, st);
  if (Counter* c = templates_created_.load(std::memory_order_relaxed)) {
    c->Increment();
  }
  return st;
}

std::vector<PqoManager::StatePtr> PqoManager::AllStates() const {
  std::vector<StatePtr> out;
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    for (const auto& [key, st] : shard.templates) out.push_back(st);
  }
  return out;
}

std::vector<PqoManager::CacheRef> PqoManager::AllCaches() const {
  std::vector<CacheRef> out;
  for (StatePtr& st : AllStates()) {
    AsyncScr* cache = nullptr;
    {
      MutexLock lock(st->mu);
      cache = st->cache.get();
    }
    if (cache != nullptr) out.push_back(CacheRef{std::move(st), cache});
  }
  return out;
}

void PqoManager::FinishWarmupLocked(TemplateState* st) {
  // Section 6.2's guidance: templates whose optimization overhead is
  // significant relative to execution get a tight bound (plan quality is
  // cheap to protect); templates where optimization dwarfs execution get
  // the loose bound (avoid optimizer calls at modest quality risk). We
  // proxy "execution cost" with the optimizer-estimated cost of the warmed
  // instances: cheap templates => optimization dominates => loose lambda.
  //
  // Threshold: one optimizer call is worth roughly a plan of cost ~100 in
  // our engine's units (see bench_table3's measured per-call time).
  constexpr double kOptimizerWorth = 100.0;
  const bool warmed = options_.warmup_instances > 0;
  double lambda = options_.default_lambda;
  if (warmed) {
    if (st->warmup_seen <= 0 || !std::isfinite(st->warmup_cost_sum)) {
      // Zero observed instances (every optimize failed, or the template
      // was resurrected mid-warm-up): there is no average to read, so the
      // lambda decision falls back to default_lambda. Traced so operators
      // can see which templates never produced a cost sample.
      warmup_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      if (Counter* c =
              warmup_fallbacks_counter_.load(std::memory_order_relaxed)) {
        c->Increment();
      }
      RingTracer* tracer = nullptr;
      {
        MutexLock obs_lock(obs_mu_);
        tracer = obs_.tracer;
      }
      DecisionEvent ev;
      ev.outcome = DecisionOutcome::kOptimized;
      ev.technique = warmup_fallback_name_;
      ev.template_key = st->key_name;
      EmitDecisionEvent(tracer, ev);
    } else {
      double avg_cost =
          st->warmup_cost_sum / static_cast<double>(st->warmup_seen);
      lambda = avg_cost >= kOptimizerWorth ? options_.lambda_tight
                                           : options_.lambda_loose;
    }
  }
  st->lambda = std::max(1.0, lambda);

  ScrOptions opts;
  opts.lambda = st->lambda;
  opts.plan_budget = options_.plan_budget;
  ObsHooks hooks;
  {
    MutexLock obs_lock(obs_mu_);
    hooks = obs_;
  }
  // The cache is configured before it is published: nothing else can
  // reach it yet, so the cache_mu_ acquisitions below never wait.
  auto cache = std::make_unique<AsyncScr>(opts, options_.use_async);
  cache->SetScopeLabel(st->key);
  cache->SetObs(hooks);
  st->cache = std::move(cache);
}

PlanChoice PqoManager::OnInstance(const std::string& template_key,
                                  const WorkloadInstance& wi,
                                  EngineContext* engine) {
  // Outermost span for the routed decision: everything downstream (the
  // cache's checks, engine calls) accumulates into one breakdown that the
  // emitting technique copies onto its event.
  GetPlanSpan span(span_enabled_.load(std::memory_order_relaxed));
  StatePtr st = GetOrCreate(template_key);
  TemplateState* state = st.get();
  AsyncScr* cache = nullptr;
  {
    MutexLock st_lock(state->mu);
    if (state->cache == nullptr && options_.warmup_instances <= 0) {
      FinishWarmupLocked(state);
    }
    cache = state->cache.get();
    if (cache == nullptr) {
      // Warm-up phase: Optimize-Always while measuring costs. Completion
      // counts attempts, not successes, so a template whose optimizer
      // calls fail still leaves warm-up (with the default-lambda
      // fallback) instead of being stuck here forever.
      ++state->warmup_attempts;
      ++state->warmup_inflight;
    }
  }
  // The cache handles its own locking, and `st` keeps it alive, so
  // concurrent decisions on this template proceed without the template
  // mutex; the optimizer never runs under it.
  if (cache == nullptr) return WarmUp(state, wi, engine);
  PlanChoice choice = cache->OnInstance(wi, engine);
  if (choice.optimized && (options_.global_plan_budget > 0 ||
                           options_.global_memory_bytes > 0)) {
    uint64_t pin = choice.plan != nullptr ? choice.plan->signature : 0;
    EnforceGlobalBudget(state, pin, wi.id);
  }
  return choice;
}

PlanChoice PqoManager::WarmUp(TemplateState* state,
                              const WorkloadInstance& wi,
                              EngineContext* engine) {
  // Warm-up is Optimize-Always with no cache to fall back on, so a failed
  // optimizer call (fault or deadline overrun) is retried before the
  // sample is given up. Both run outside every lock.
  auto result = engine->Optimize(wi);
  if (result == nullptr) result = engine->RetryOptimize(wi);
  PlanChoice choice;
  choice.optimized = true;
  MutexLock st_lock(state->mu);
  --state->warmup_inflight;
  if (result != nullptr && std::isfinite(result->cost)) {
    ++state->warmup_seen;
    state->warmup_cost_sum += result->cost;
    choice.plan = std::make_shared<CachedPlan>(MakeCachedPlan(*result));
  } else {
    // Every retry failed: this instance cannot be served (plan stays
    // null) and the decision is explicitly degraded — traced so chaos
    // audits can separate it from guaranteed decisions.
    choice.degraded = true;
    choice.optimized = false;
    RingTracer* tracer = nullptr;
    {
      MutexLock obs_lock(obs_mu_);
      tracer = obs_.tracer;
    }
    if (Counter* c = degraded_counter_.load(std::memory_order_relaxed)) {
      c->Increment();
    }
    if (tracer != nullptr) {
      DecisionEvent ev;
      ev.outcome = DecisionOutcome::kDegraded;
      ev.instance_id = wi.id;
      ev.technique = warmup_failed_name_;
      ev.template_key = state->key_name;
      EmitDecisionEvent(tracer, ev);
    }
  }
  // Leave warm-up only once the attempt target is reached AND every
  // in-flight optimize has reported its cost sample back, so the lambda
  // decision sees the full warm-up window. A concurrent arrival in that
  // gap takes one extra Optimize-Always pass, which keeps the bound at
  // exactly 1 — never a stale cached plan.
  if (state->cache == nullptr &&
      state->warmup_attempts >= options_.warmup_instances &&
      state->warmup_inflight == 0) {
    FinishWarmupLocked(state);
  }
  // Warm-up plans are not cached, so the global budget is unaffected.
  return choice;
}

void PqoManager::EnforceGlobalBudget(TemplateState* current,
                                     uint64_t pinned_signature,
                                     int instance_id) {
  if (options_.global_plan_budget <= 0 && options_.global_memory_bytes <= 0) {
    return;
  }
  // One sweep at a time: concurrent optimizing threads would otherwise
  // race the same totals into over-eviction. Lock order: evict_mu_ first,
  // then shard locks / template mutexes inside the helpers — never the
  // reverse (see DESIGN.md "Capability map & lock order").
  MutexLock sweep(evict_mu_);
  for (;;) {
    const std::vector<CacheRef> caches = AllCaches();
    int64_t total_plans = 0;
    int64_t total_bytes = 0;
    for (const CacheRef& ref : caches) {
      total_plans += ref.cache->NumPlansCached();
      if (options_.global_memory_bytes > 0) {
        total_bytes += ref.cache->EstimatedMemoryBytes();
      }
    }
    bool over =
        (options_.global_plan_budget > 0 &&
         total_plans > options_.global_plan_budget) ||
        (options_.global_memory_bytes > 0 &&
         total_bytes > options_.global_memory_bytes);
    if (!over) return;

    // Globally least-used plan across every template, honoring the pin on
    // the in-flight instance's just-chosen plan.
    const CacheRef* victim = nullptr;
    int64_t victim_usage = std::numeric_limits<int64_t>::max();
    for (const CacheRef& ref : caches) {
      uint64_t pin = ref.state.get() == current ? pinned_signature : 0;
      int64_t usage = ref.cache->MinLivePlanUsage(pin);
      if (usage >= 0 && usage < victim_usage) {
        victim_usage = usage;
        victim = &ref;
      }
    }
    if (victim == nullptr) return;  // only the pinned plan is left
    uint64_t pin = victim->state.get() == current ? pinned_signature : 0;
    if (!victim->cache->EvictLfuPlan(instance_id, pin)) return;
    global_evictions_.fetch_add(1, std::memory_order_relaxed);
    if (Counter* c =
            global_evictions_counter_.load(std::memory_order_relaxed)) {
      c->Increment();
    }
  }
}

int64_t PqoManager::NumTemplates() const {
  int64_t total = 0;
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    MutexLock lock(shard.mu);
    total += static_cast<int64_t>(shard.templates.size());
  }
  return total;
}

int64_t PqoManager::TotalPlansCached() const {
  int64_t total = 0;
  for (const CacheRef& ref : AllCaches()) total += ref.cache->NumPlansCached();
  return total;
}

int64_t PqoManager::TotalMemoryBytes() const {
  int64_t total = 0;
  for (const CacheRef& ref : AllCaches()) {
    total += ref.cache->EstimatedMemoryBytes();
  }
  return total;
}

void PqoManager::InvalidateTemplate(const std::string& template_key) {
  StatePtr doomed;
  {
    Shard& shard = ShardFor(template_key);
    MutexLock lock(shard.mu);
    auto it = shard.templates.find(template_key);
    if (it == shard.templates.end()) return;
    doomed = std::move(it->second);
    shard.templates.erase(it);
  }
  if (Counter* c = invalidations_.load(std::memory_order_relaxed)) {
    c->Increment();
  }
  // `doomed` is destroyed here, outside the shard lock; in-flight
  // OnInstance calls holding their own reference finish on the detached
  // cache first (AsyncScr's destructor then joins its worker).
}

double PqoManager::LambdaFor(const std::string& template_key) const {
  StatePtr st;
  {
    Shard& shard = ShardFor(template_key);
    MutexLock lock(shard.mu);
    auto it = shard.templates.find(template_key);
    if (it == shard.templates.end()) return 0.0;
    st = it->second;
  }
  TemplateState* state = st.get();
  MutexLock st_lock(state->mu);
  // Warm-up serves every instance its freshly optimized plan, so the bound
  // in force is exactly 1 (Optimize-Always semantics) — never 0, which
  // downstream code could misread as a vacuously violated bound.
  return state->cache != nullptr ? state->lambda : 1.0;
}

namespace {
void AppendJsonEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}
}  // namespace

std::string PqoManager::StatuszJson() const {
  std::string out = "{\"templates\":[";
  int64_t total_plans = 0;
  int64_t total_bytes = 0;
  int64_t templates = 0;
  bool first = true;
  for (const StatePtr& st : AllStates()) {
    TemplateState* state = st.get();
    double lambda = 1.0;
    AsyncScr* cache = nullptr;
    {
      MutexLock st_lock(state->mu);
      cache = state->cache.get();
      if (cache != nullptr) lambda = state->lambda;
    }
    const bool warming = cache == nullptr;
    int64_t plans = warming ? 0 : cache->NumPlansCached();
    int64_t bytes = warming ? 0 : cache->EstimatedMemoryBytes();
    total_plans += plans;
    total_bytes += bytes;
    ++templates;
    if (!first) out += ",";
    first = false;
    out += "{\"key\":\"";
    // `key` is const and set before publication, so this read needs no
    // lock (see TemplateState::key).
    AppendJsonEscaped(state->key, &out);
    out += "\",\"lambda\":";
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", lambda);
    out += buf;
    out += ",\"warming_up\":";
    out += warming ? "true" : "false";
    out += ",\"plans\":";
    out += std::to_string(plans);
    out += ",\"memory_bytes\":";
    out += std::to_string(bytes);
    out += "}";
  }
  int64_t ring_drops = 0;
  {
    MutexLock obs_lock(obs_mu_);
    if (obs_.tracer != nullptr) ring_drops = obs_.tracer->dropped();
  }
  out += "],\"totals\":{\"templates\":";
  out += std::to_string(templates);
  out += ",\"plans\":";
  out += std::to_string(total_plans);
  out += ",\"memory_bytes\":";
  out += std::to_string(total_bytes);
  out += ",\"global_plan_budget\":";
  out += std::to_string(options_.global_plan_budget);
  out += ",\"global_memory_bytes\":";
  out += std::to_string(options_.global_memory_bytes);
  out += ",\"global_evictions\":";
  out += std::to_string(global_evictions());
  out += ",\"warmup_fallbacks\":";
  out += std::to_string(warmup_fallbacks());
  out += ",\"trace_ring_drops\":";
  out += std::to_string(ring_drops);
  out += "}}\n";
  return out;
}

void PqoManager::FlushAll() {
  for (const CacheRef& ref : AllCaches()) ref.cache->Flush();
  // Deferred manageCache work may have pushed past the budget; settle it.
  EnforceGlobalBudget(nullptr, 0, -1);
}

}  // namespace scrpqo
