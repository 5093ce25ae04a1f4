// EngineContext: the database-engine surface visible to online PQO
// techniques — exactly the three calls the paper assumes (Section 4.2):
// sVector computation (done by the harness before dispatch), the
// traditional optimizer call, and the Recost API. The context meters both
// engine calls so optimization overheads can be reported per technique.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <thread>
#include <utility>

#include "common/effects.h"
#include "common/fault_injection.h"
#include "obs/metrics_registry.h"
#include "obs/span.h"
#include "optimizer/optimizer.h"
#include "optimizer/recost.h"
#include "query/query_instance.h"

namespace scrpqo {

/// \brief A workload element: an instance with its id within the sequence's
/// underlying instance set and its precomputed sVector.
struct WorkloadInstance {
  int id = -1;
  QueryInstance instance;
  SVector svector;
};

/// \brief Oracle interface: lets the evaluation harness memoize optimizer
/// results across techniques and orderings (the result for a given instance
/// id is identical no matter who asks). Techniques are still charged the
/// optimizer call. Null entries are not allowed.
using OptimizeOracle =
    std::function<std::shared_ptr<const OptimizationResult>(
        const WorkloadInstance&)>;

class EngineContext {
 public:
  EngineContext(const Database* db, const Optimizer* optimizer)
      : db_(db),
        optimizer_(optimizer),
        recost_service_(&optimizer->cost_model()) {}

  const Database& db() const { return *db_; }
  const Optimizer& optimizer() const { return *optimizer_; }

  /// Traditional optimizer call (charged to the calling technique).
  /// Thread-safe when the installed oracle (if any) is.
  ///
  /// Returns null when the optimizer is unavailable: a fault-injected
  /// failure (faults::kOptimizeFail) or a configured deadline overrun.
  /// Callers must degrade gracefully — Scr/AsyncScr fall back to the best
  /// cached plan traced as kDegraded; PqoManager retries with bounded
  /// backoff during warm-up.
  std::shared_ptr<const OptimizationResult> Optimize(
      const WorkloadInstance& wi) {
    // StageTimer instead of ScopedTimer: besides the histogram, engine
    // time lands in the ambient getPlan span (obs/span.h) so decision
    // events attribute it to the "optimize" stage.
    StageTimer timer(Stage::kOptimize, optimize_micros_);
    num_optimizer_calls_.fetch_add(1, std::memory_order_relaxed);
    if (optimize_calls_ != nullptr) optimize_calls_->Increment();
    const int64_t deadline_us = optimize_deadline_micros_;
    std::chrono::steady_clock::time_point started;
    if (deadline_us > 0) started = std::chrono::steady_clock::now();
    if (FaultRegistry::Global().enabled()) [[unlikely]] {
      double param = 0.0;
      if (FaultShouldFire(faults::kOptimizeLatency, &param)) {
        // Models a slow optimizer; with a deadline configured this
        // becomes a deadline overrun below. Default 10ms.
        int64_t sleep_us =
            param > 0.0 ? static_cast<int64_t>(param) : 10000;
        std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
      }
      if (FaultShouldFire(faults::kOptimizeFail)) return nullptr;
    }
    std::shared_ptr<const OptimizationResult> result;
    if (oracle_) {
      result = oracle_(wi);
    } else {
      result = std::make_shared<OptimizationResult>(
          optimizer_->OptimizeWithSVector(wi.instance, wi.svector));
    }
    if (deadline_us > 0) {
      int64_t elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - started)
                            .count();
      if (elapsed > deadline_us) {
        deadline_overruns_.fetch_add(1, std::memory_order_relaxed);
        if (deadline_overrun_counter_ != nullptr) {
          deadline_overrun_counter_->Increment();
        }
        return nullptr;
      }
    }
    return result;
  }

  /// After a failed Optimize: retries it up to three times with bounded
  /// exponential backoff (100, 200 and 400 us before the attempts). Null
  /// when every retry failed. The backoff sleeps, so callers hold no lock
  /// across it (the analyzer's blocking-under-lock rule checks this).
  std::shared_ptr<const OptimizationResult> RetryOptimize(
      const WorkloadInstance& wi) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(int64_t{100} << attempt));
      if (auto result = Optimize(wi)) return result;
    }
    return nullptr;
  }

  /// Recost API call (charged).
  [[nodiscard]] SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING
  SCRPQO_FP_DETERMINISTIC SCRPQO_LOCK_BOUNDED()
  double Recost(const CachedPlan& plan, const SVector& sv) {
    StageTimer timer(Stage::kRecost, recost_micros_);
    if (recost_calls_ != nullptr) recost_calls_->Increment();
    double cost = recost_service_.Recost(plan, sv);
    if (FaultRegistry::Global().enabled()) [[unlikely]] {
      cost = ApplyRecostFaults(cost);
    }
    return cost;
  }

  /// Batched Recost (see RecostService::RecostMany): one call, one program
  /// scan per plan, visitor-controlled early exit. Each visited plan is
  /// charged as one Recost call; the whole batch records one latency
  /// sample ("engine.recost_batch_micros") and lands in the span's
  /// batch_recost stage.
  template <typename Visitor>
  SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING SCRPQO_FP_DETERMINISTIC
  SCRPQO_LOCK_BOUNDED()
  size_t RecostMany(std::span<const CachedPlan* const> plans,
                    const SVector& sv, std::span<double> out_costs,
                    Visitor&& visit) {
    StageTimer timer(Stage::kBatchRecost, recost_batch_micros_);
    size_t scanned;
    if (FaultRegistry::Global().enabled()) [[unlikely]] {
      scanned = recost_service_.RecostMany(
          plans, sv, out_costs, [&](size_t i, double c) {
            return visit(i, ApplyRecostFaults(c));
          });
    } else {
      scanned = recost_service_.RecostMany(plans, sv, out_costs,
                                           std::forward<Visitor>(visit));
    }
    if (recost_calls_ != nullptr) {
      recost_calls_->Increment(static_cast<int64_t>(scanned));
    }
    return scanned;
  }

  size_t RecostMany(std::span<const CachedPlan* const> plans,
                    const SVector& sv, std::span<double> out_costs) {
    return RecostMany(plans, sv, out_costs,
                      [](size_t, double) { return true; });
  }

  /// Uncharged recost used by evaluation machinery (computing SO of the
  /// chosen plan) — not part of any technique's overhead. Walks the plan
  /// tree (the CostModel oracle), not the compiled program.
  [[nodiscard]] double RecostUncharged(const CachedPlan& plan,
                                       const SVector& sv) const {
    return optimizer_->cost_model().RecostTree(*plan.plan, sv);
  }

  void SetOracle(OptimizeOracle oracle) { oracle_ = std::move(oracle); }

  /// Arms a wall-clock budget for Optimize: calls that exceed it return
  /// null (counted in "engine.optimize_deadline_overruns") and the caller
  /// takes its degraded path. 0 (default) disables the check. Set before
  /// serving traffic; not synchronized with in-flight calls.
  void SetOptimizeDeadlineMicros(int64_t micros) {
    optimize_deadline_micros_ = micros > 0 ? micros : 0;
  }

  int64_t optimize_deadline_overruns() const {
    return deadline_overruns_.load(std::memory_order_relaxed);
  }

  /// Attaches a metrics registry: both engine calls are then counted
  /// ("engine.optimize_calls" / "engine.recost_calls") and timed
  /// ("engine.optimize_micros" / "engine.recost_micros"). Null detaches.
  void SetObs(MetricsRegistry* metrics) {
    if (metrics == nullptr) {
      optimize_calls_ = recost_calls_ = nullptr;
      optimize_micros_ = recost_micros_ = recost_batch_micros_ = nullptr;
      deadline_overrun_counter_ = nullptr;
      return;
    }
    optimize_calls_ = metrics->counter("engine.optimize_calls");
    recost_calls_ = metrics->counter("engine.recost_calls");
    optimize_micros_ = metrics->histogram("engine.optimize_micros");
    recost_micros_ = metrics->histogram("engine.recost_micros");
    recost_batch_micros_ = metrics->histogram("engine.recost_batch_micros");
    deadline_overrun_counter_ =
        metrics->counter("engine.optimize_deadline_overruns");
  }

  int64_t num_optimizer_calls() const {
    return num_optimizer_calls_.load(std::memory_order_relaxed);
  }
  int64_t num_recost_calls() const { return recost_service_.num_calls(); }

  void ResetCounters() {
    num_optimizer_calls_.store(0, std::memory_order_relaxed);
    recost_service_.ResetCounters();
  }

 private:
  /// Applies armed recost fault points to one produced cost. Only reached
  /// when some fault is armed (the callers gate on the registry's relaxed
  /// enabled() load), so the disabled-path cost stays one load per batch.
  static double ApplyRecostFaults(double cost) {
    if (FaultShouldFire(faults::kRecostNonFinite)) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    double factor = 0.0;
    if (FaultShouldFire(faults::kRecostPerturb, &factor)) {
      return cost * (factor != 0.0 ? factor : 10.0);
    }
    return cost;
  }

  const Database* db_;
  const Optimizer* optimizer_;
  RecostService recost_service_;
  OptimizeOracle oracle_;
  /// Relaxed atomic: Optimize runs un-serialized on the concurrent getPlan
  /// miss path, so several threads may bump this at once.
  std::atomic<int64_t> num_optimizer_calls_{0};
  /// Optimize wall-clock budget; 0 disables (see SetOptimizeDeadlineMicros).
  int64_t optimize_deadline_micros_ = 0;
  std::atomic<int64_t> deadline_overruns_{0};
  // Cached registry handles (null = metrics disabled).
  Counter* optimize_calls_ = nullptr;
  Counter* recost_calls_ = nullptr;
  Counter* deadline_overrun_counter_ = nullptr;
  LogHistogram* optimize_micros_ = nullptr;
  LogHistogram* recost_micros_ = nullptr;
  LogHistogram* recost_batch_micros_ = nullptr;
};

}  // namespace scrpqo
