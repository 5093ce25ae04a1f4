// Stage-span attribution for getPlan: a GetPlanSpan opens an ambient
// per-thread StageBreakdown for the in-flight decision, StageTimers add
// elapsed nanoseconds to one stage slot (and, when given one, microseconds
// to a LogHistogram), and the technique's EmitEvent copies the ambient
// breakdown onto the DecisionEvent it records. The disabled path
// (no span open, no histogram attached) costs one thread-local read and a
// null check — no clock read.
//
// Every obs timer reads the clock through ObsClock, which remembers the
// thread's latest stamp: a caller that needs "now" right after a timed
// stage reuses the stage's stop stamp instead of reading the clock again
// (Scr times a whole reuse attempt from its stage timers' stamps).
//
// Stage taxonomy (the phases a PqoManager-routed getPlan passes through):
//   shard_wait    unused since the shard-lock wait stopped being timed
//                 (kept so the wire format and stage indices stay stable)
//   svector       selectivity-vector computation (harness/engine side)
//   index_probe   unused since the instance table became a flat scan
//                 (kept for the same reason)
//   sel_check     instance-list selectivity-check scan
//   recost        scalar Recost calls (tree walks, one-off programs)
//   optimize      full optimizer call on a miss
//   manage_cache  Algorithm 2 bookkeeping (store-or-reuse, eviction)
//   batch_recost  batched recost sweeps (EngineContext::RecostMany)
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>

#include "obs/metrics_registry.h"

namespace scrpqo {

/// The steady clock behind every obs timer, in nanoseconds. Each read is
/// remembered (LastNs) and counted (Reads) per thread; the count lets
/// tests pin how many clock reads one traced decision costs.
class ObsClock {
 public:
  static int64_t NowNs() {
    const int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count();
    last_ns_ = ns;
    ++reads_;
    return ns;
  }

  /// This thread's most recent NowNs() value (0 before the first).
  static int64_t LastNs() { return last_ns_; }

  /// "Now" at the end of a stretch of code that may have closed with an
  /// armed timer's stop: `mark` is LastNs() from before the stretch. A
  /// stamp taken since is reused; otherwise the clock is read.
  static int64_t NowAfter(int64_t mark) {
    return last_ns_ != mark ? last_ns_ : NowNs();
  }

  /// Clock reads taken on this thread so far.
  static uint64_t Reads() { return reads_; }

 private:
  static inline thread_local int64_t last_ns_ = 0;
  static inline thread_local uint64_t reads_ = 0;
};

enum class Stage : int {
  kShardWait = 0,
  kSVector = 1,
  kIndexProbe = 2,
  kSelCheck = 3,
  kRecost = 4,
  kOptimize = 5,
  kManageCache = 6,
  kBatchRecost = 7,
};
inline constexpr int kNumStages = 8;

/// Stable wire name ("shard_wait", "svector", ...): the JSONL sub-key of
/// the event's "stages" object.
const char* StageName(Stage stage);

/// Per-decision stage latency breakdown in nanoseconds; -1 marks a stage
/// that never ran. 32-bit slots keep DecisionEvent within 128 bytes; a
/// stage saturates at kMaxNs (~2.1 s).
struct StageBreakdown {
  static constexpr int64_t kMaxNs = std::numeric_limits<int32_t>::max();

  int32_t ns[kNumStages] = {-1, -1, -1, -1, -1, -1, -1, -1};

  bool any() const {
    for (int32_t v : ns) {
      if (v >= 0) return true;
    }
    return false;
  }

  /// Accumulates (a stage may run more than once per decision, e.g. the
  /// recost sweep of a failed reuse attempt plus the redundancy check).
  void Add(Stage stage, int64_t elapsed_ns) {
    int32_t& slot = ns[static_cast<int>(stage)];
    int64_t sum = (slot < 0 ? 0 : slot) + (elapsed_ns < 0 ? 0 : elapsed_ns);
    slot = static_cast<int32_t>(sum < kMaxNs ? sum : kMaxNs);
  }

  int64_t get(Stage stage) const { return ns[static_cast<int>(stage)]; }
};

/// Ambient per-thread breakdown of the in-flight getPlan. Deliberately a
/// raw pointer into the opening GetPlanSpan's frame: spans never outlive
/// the call that opened them.
class SpanContext {
 public:
  static StageBreakdown* Current() { return current_; }

 private:
  friend class GetPlanSpan;
  // Defined inline with a constant initializer so every TU reads it
  // directly off the thread pointer (an out-of-line definition makes
  // other TUs call a TLS wrapper, whose null check GCC's UBSan emits in a
  // form the linker's TLS relaxation can break).
  static inline thread_local StageBreakdown* current_ = nullptr;
};

/// Opens an ambient StageBreakdown for the current thread. Nested opens
/// are no-ops (the outermost span owns the breakdown), so PqoManager can
/// open one around the whole routing path while Scr::TryReuse opens its
/// own when called standalone.
class GetPlanSpan {
 public:
  explicit GetPlanSpan(bool enabled) {
    if (!enabled || SpanContext::current_ != nullptr) return;
    active_ = true;
    SpanContext::current_ = &local_;
  }

  GetPlanSpan(const GetPlanSpan&) = delete;
  GetPlanSpan& operator=(const GetPlanSpan&) = delete;

  ~GetPlanSpan() {
    if (active_) SpanContext::current_ = nullptr;
  }

  /// The breakdown collected so far (valid only while this span is the
  /// active one). Used to forward a failed reuse attempt's stages to a
  /// deferred (worker-thread) manageCache event.
  const StageBreakdown& breakdown() const { return local_; }

  /// Pre-seeds stages measured elsewhere (e.g. the critical-path optimize
  /// time forwarded into AsyncScr's worker-side event).
  void Seed(const StageBreakdown& from) {
    if (!active_) return;
    for (int i = 0; i < kNumStages; ++i) {
      if (from.ns[i] >= 0) local_.Add(static_cast<Stage>(i), from.ns[i]);
    }
  }

 private:
  StageBreakdown local_;
  bool active_ = false;
};

/// RAII stage timer: on Stop (or destruction) adds the elapsed time to the
/// ambient breakdown slot and to `histogram`, in microseconds (either may
/// be absent). With neither attached, no clock is read.
class StageTimer {
 public:
  StageTimer(Stage stage, LogHistogram* histogram)
      : stage_(stage),
        histogram_(histogram),
        breakdown_(SpanContext::Current()) {
    if (armed()) start_ns_ = ObsClock::NowNs();
  }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  ~StageTimer() { Stop(); }

  /// The clock stamp taken at construction; -1 when not armed.
  int64_t start_ns() const { return start_ns_; }

  /// Records now instead of at scope exit; idempotent. Returns the stop
  /// stamp, or -1 when the timer was not armed (or already stopped).
  int64_t Stop() {
    if (!armed()) return -1;
    const int64_t now = ObsClock::NowNs();
    const int64_t elapsed = now - start_ns_;
    if (breakdown_ != nullptr) breakdown_->Add(stage_, elapsed);
    if (histogram_ != nullptr) {
      histogram_->Record(static_cast<double>(elapsed / 1000));
    }
    breakdown_ = nullptr;
    histogram_ = nullptr;
    return now;
  }

 private:
  bool armed() const {
    return breakdown_ != nullptr || histogram_ != nullptr;
  }

  Stage stage_;
  LogHistogram* histogram_;
  StageBreakdown* breakdown_;
  int64_t start_ns_ = -1;
};

}  // namespace scrpqo
