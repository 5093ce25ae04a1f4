// Deterministic, seed-driven fault injection for hardening tests.
//
// A FaultRegistry holds named fault points ("optimizer.fail",
// "snapshot.truncate", ...). Production code asks `FaultShouldFire(point)`
// at each instrumented site; tests and the chaos CI job arm points with a
// trigger (per-point probability, every-Nth invocation, or one-shot) either
// programmatically or through the SCRPQO_FAULTS environment variable.
//
// Determinism: every point owns a private Pcg32 seeded from the global
// fault seed hashed with the point name, plus an invocation counter, so a
// given (seed, schedule, call sequence) fires the exact same faults on
// every run and platform — chaos failures reproduce from the seed alone.
//
// Zero overhead when disabled: the fast path is one relaxed atomic load of
// `armed_points_` (0 for every production process that never arms a
// fault); no lock, no map lookup, no branch history pollution beyond a
// never-taken conditional. The perf-smoke gate relies on this.
//
// This lives in src/common and therefore cannot depend on src/obs; the
// "trace every fired fault" requirement is met by an on-fire callback that
// the embedding layer (scrpqo_cli, tests) wires to its tracer/metrics.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/effects.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace scrpqo {

/// Canonical fault-point names. Sites pass these constants so the set of
/// instrumented points is greppable from one place; the registry itself
/// accepts any name (tests may invent private points).
namespace faults {
/// EngineContext::Optimize returns null (optimizer failure).
inline constexpr const char kOptimizeFail[] = "optimizer.fail";
/// EngineContext::Optimize sleeps `param` microseconds before returning
/// (models a slow optimizer; triggers the deadline fallback when an
/// optimize deadline is configured).
inline constexpr const char kOptimizeLatency[] = "optimizer.latency";
/// Recost/RecostMany replace the result with NaN.
inline constexpr const char kRecostNonFinite[] = "recost.nonfinite";
/// Recost results are multiplied by `param` (default 10x) — models a
/// mis-costing engine without leaving the finite domain.
inline constexpr const char kRecostPerturb[] = "recost.perturb";
/// AsyncScr worker drops the manageCache task instead of applying it.
inline constexpr const char kAsyncTaskFail[] = "async_scr.task_fail";
/// Snapshot load sees the file truncated to `param` fraction (default
/// half) of its bytes.
inline constexpr const char kSnapshotTruncate[] = "snapshot.truncate";
/// Snapshot load sees one byte of the file bit-flipped.
inline constexpr const char kSnapshotBitFlip[] = "snapshot.bitflip";
/// Cold-path (manageCache) allocation fails: the fresh plan is served but
/// not cached.
inline constexpr const char kColdAllocFail[] = "scr.cold_alloc";
}  // namespace faults

/// How an armed fault point decides to fire.
enum class FaultTrigger : int {
  /// Fires on each invocation independently with probability `probability`.
  kProbability = 0,
  /// Fires on every `nth` invocation (1st, nth+1th, ... — i.e. invocation
  /// index % nth == 0).
  kEveryNth = 1,
  /// Fires exactly once, on the first invocation after arming.
  kOneShot = 2,
};

/// Arming descriptor for one fault point.
struct FaultSpec {
  FaultTrigger trigger = FaultTrigger::kProbability;
  /// For kProbability: chance in [0, 1] that an invocation fires.
  double probability = 1.0;
  /// For kEveryNth: period (>= 1).
  int64_t nth = 1;
  /// Free-form payload delivered to the firing site: latency micros for
  /// kOptimizeLatency, cost multiplier for kRecostPerturb, truncation
  /// fraction for kSnapshotTruncate. 0 means "site default".
  double param = 0.0;
};

/// Observed counters for one fault point.
struct FaultPointStats {
  int64_t evaluations = 0;  ///< times the site asked ShouldFire
  int64_t fires = 0;        ///< times it fired
};

/// Process-global registry of armed fault points. All methods are
/// thread-safe; ShouldFire on an un-armed registry is a single relaxed
/// atomic load.
class FaultRegistry {
 public:
  /// The process singleton every instrumented site consults.
  static FaultRegistry& Global();

  FaultRegistry() = default;
  FaultRegistry(const FaultRegistry&) = delete;
  FaultRegistry& operator=(const FaultRegistry&) = delete;

  /// Arms (or re-arms, resetting counters) a fault point.
  void Arm(std::string_view point, FaultSpec spec) EXCLUDES(mu_);

  /// Disarms one point; returns false if it was not armed.
  bool Disarm(std::string_view point) EXCLUDES(mu_);

  /// Disarms everything and clears the on-fire hook — the state a test
  /// must restore before returning (chaos fixtures do this in TearDown).
  void DisarmAll() EXCLUDES(mu_);

  /// Sets the global seed and deterministically re-seeds every armed
  /// point's generator. Defaults to 0.
  void SetSeed(uint64_t seed) EXCLUDES(mu_);

  /// Parses a schedule of the form
  ///   point=TRIGGER[@PARAM][;point=TRIGGER[@PARAM]]...
  /// where TRIGGER is `p<float>` (probability), `n<int>` (every Nth) or
  /// `once`, and PARAM is the FaultSpec::param payload. Example:
  ///   "optimizer.fail=p0.1;optimizer.latency=n5@20000;snapshot.bitflip=once"
  /// Rejects the whole string (arming nothing) on any malformed clause.
  Status ConfigureFromString(std::string_view config) EXCLUDES(mu_);

  /// Reads SCRPQO_FAULT_SEED (default 0) and SCRPQO_FAULTS; unset or empty
  /// SCRPQO_FAULTS arms nothing. Returns the ConfigureFromString status.
  Status ConfigureFromEnv() EXCLUDES(mu_);

  /// True when at least one point is armed. Relaxed load; the inline
  /// fast path for every instrumented site.
  bool enabled() const {
    return armed_points_.load(std::memory_order_relaxed) > 0;
  }

  /// Decides whether `point` fires this invocation. When it fires,
  /// `*param` (if non-null) receives the armed FaultSpec::param and the
  /// on-fire hook (if any) runs. Un-armed points never fire.
  bool ShouldFire(std::string_view point, double* param = nullptr)
      EXCLUDES(mu_);

  /// Counters for one point (zeros when never armed).
  FaultPointStats StatsFor(std::string_view point) const EXCLUDES(mu_);

  /// Total fires across all points since the last DisarmAll/SetSeed.
  int64_t TotalFires() const EXCLUDES(mu_);

  /// Names of currently armed points (sorted).
  std::vector<std::string> ArmedPoints() const EXCLUDES(mu_);

  /// Installs a hook invoked (outside the registry lock) after every
  /// fired fault — the embedding layer forwards it to tracing/metrics.
  /// Pass nullptr to clear.
  void SetOnFire(
      std::function<void(std::string_view point, double param)> hook)
      EXCLUDES(mu_);

 private:
  struct PointState {
    FaultSpec spec;
    Pcg32 rng;
    int64_t evaluations = 0;
    int64_t fires = 0;
    bool exhausted = false;  ///< kOneShot already fired
  };

  void ReseedLocked() REQUIRES(mu_);

  mutable Mutex mu_;
  /// Number of armed points, mirrored outside the lock for the fast path.
  std::atomic<int64_t> armed_points_{0};
  uint64_t seed_ GUARDED_BY(mu_) = 0;
  std::map<std::string, PointState, std::less<>> points_ GUARDED_BY(mu_);
  std::function<void(std::string_view, double)> on_fire_ GUARDED_BY(mu_);
};

/// Fast-path helper every instrumented site calls: one relaxed atomic load
/// when no fault is armed anywhere in the process.
inline bool FaultShouldFire(std::string_view point,
                            double* param = nullptr)
    SCRPQO_EFFECT_ALLOW(lock, "armed-faults slow path only: the registry mutex and point map are touched when a chaos test has armed a fault; the production fast path is one relaxed atomic load")
    SCRPQO_EFFECT_ALLOW(alloc, "same armed-only slow path: point-state map lookups never run with zero armed faults")
    SCRPQO_EFFECT_ALLOW(block, "the on-fire hook may log in chaos harnesses; unarmed serving never enters ShouldFire") {
  FaultRegistry& reg = FaultRegistry::Global();
  if (!reg.enabled()) [[likely]] {
    return false;
  }
  return reg.ShouldFire(point, param);
}

}  // namespace scrpqo
