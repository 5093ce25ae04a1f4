// Decision-event tracing for the PQO engine: every getPlan/manageCache
// decision is recorded as a DecisionEvent and can be exported as JSONL
// (one event per line). Techniques emit events only when a RingTracer
// (obs/ring_tracer.h) is attached, so the disabled-path cost is a null
// pointer check.
//
// A DecisionEvent is a fixed-size, trivially-copyable record: names are
// NameIds into the process-wide name table (obs/name_table.h) and times
// are nanoseconds. The serving thread fills one in place and the tracer
// copies it once into a ring slot; only exporters and sinks resolve names
// and format JSON.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "obs/name_table.h"
#include "obs/span.h"

namespace scrpqo {

/// What the technique concluded for one event.
///
/// The first four plus `kDegraded` are per-instance *decisions* — every
/// instance produces exactly one of them (`kOptimized` and
/// `kRedundantDiscard` both imply an optimizer call; the latter means the
/// redundancy check then discarded the fresh plan in favor of a cached
/// one). `kDegraded` is the failure-handling decision: the optimizer was
/// unavailable (failure, deadline overrun, exhausted retries) and the
/// technique served the best plan it could WITHOUT the lambda guarantee —
/// audits must exclude it from the guaranteed set and report it
/// separately. The rest are meta events emitted on top of the
/// per-instance stream: `kEvicted` per evicted plan, `kAuditAlert` by the
/// online lambda-compliance monitor when a traced decision violates its
/// bound (verify/online_auditor.h), `kRingDropped` by the RingTracer
/// exporter to account for events lost to a full SPSC ring (the `dropped`
/// field carries the count), and `kFaultInjected` recorded once per fired
/// fault-injection point (common/fault_injection.h; the `technique` field
/// carries the point name) so chaos runs are auditable from the JSONL
/// alone.
enum class DecisionOutcome : int {
  kSelCheckHit = 0,
  kCostCheckHit = 1,
  kOptimized = 2,
  kRedundantDiscard = 3,
  kEvicted = 4,
  kAuditAlert = 5,
  kRingDropped = 6,
  kDegraded = 7,
  kFaultInjected = 8,
};

/// Stable wire name ("sel-check-hit", ...).
const char* DecisionOutcomeName(DecisionOutcome outcome);

/// Inverse of DecisionOutcomeName; false when `name` is unknown.
bool ParseDecisionOutcome(const std::string& name, DecisionOutcome* out);

/// True for the per-instance decision outcomes (everything but the meta
/// events kEvicted / kAuditAlert / kRingDropped / kFaultInjected).
bool IsDecisionOutcome(DecisionOutcome outcome);

/// One traced decision. Fields that do not apply to an outcome stay at
/// their defaults (-1 for ids and G/L/R, 0 for counts).
struct DecisionEvent {
  /// Monotonic event number, assigned by the RingTracer exporter at drain
  /// time (preserving per-thread emission order).
  int64_t seq = -1;
  /// Workload-instance id the event belongs to.
  int32_t instance_id = -1;
  /// Technique name (Scr::name() style).
  NameId technique;
  /// Template the deciding cache serves (PqoManager's template_key; empty
  /// for single-template runs). Lets one merged trace from a multi-template
  /// manager be audited per template (guarantee_audit --per-template).
  NameId template_key;
  DecisionOutcome outcome = DecisionOutcome::kOptimized;
  /// Cache-entry id that matched (for SCR check hits, the entry's position
  /// in the instance table at decision time: evictions compact the table,
  /// so later entries' positions shift down; for optimized/discard/evict/
  /// degraded events, the plan's storage-order id label); -1 when n/a.
  int32_t matched_entry = -1;
  /// Selectivity-check factors at the matched entry (-1 when n/a).
  double g = -1.0;
  double l = -1.0;
  /// Cost ratio observed by the cost / redundancy check (-1 when n/a).
  double r = -1.0;
  /// Sub-optimality S of the matched instance entry at decision time
  /// (-1 when n/a). With g/l/r and lambda this makes every check's
  /// arithmetic statically re-derivable (see verify/guarantee_audit.h).
  double subopt = -1.0;
  /// Effective bound the decision was checked against: lambda for
  /// selectivity/cost-check hits (the Appendix D per-entry value when
  /// dynamic lambda is enabled), lambda_r for redundancy decisions
  /// (-1 when n/a).
  double lambda = -1.0;
  /// Cost-check candidates considered by this getPlan.
  int32_t candidates_scanned = 0;
  /// Recost calls issued by this getPlan.
  int32_t recost_calls = 0;
  /// Wall-clock of the traced section, nanoseconds (whole microseconds on
  /// the wire).
  int64_t wall_ns = 0;
  /// Events lost to a full SPSC ring since the previous kRingDropped
  /// event; 0 (and absent on the wire) for every other outcome.
  int64_t dropped = 0;
  /// Per-stage latency attribution of the traced getPlan (obs/span.h).
  /// Serialized as an optional "stages" object only when any stage was
  /// timed, so traces from span-free emitters are byte-identical to the
  /// pre-span wire format.
  StageBreakdown stages;
};

// The serving thread's share of tracing is one copy of this record into a
// ring slot: no destructor to run, no allocation, two cache lines.
static_assert(std::is_trivially_copyable_v<DecisionEvent>);
static_assert(sizeof(DecisionEvent) <= 128);

/// Serializes one event as a single JSON line (no trailing newline).
std::string DecisionEventToJsonl(const DecisionEvent& event);

/// Parses a line produced by DecisionEventToJsonl (interning its names).
/// Numeric fields must be finite: NaN/inf cost factors are rejected (same
/// policy as EnvDouble), so a corrupted trace cannot silently pass a
/// guarantee audit; integer fields must fit their storage (fractions
/// truncate), so no cast is ever out of range.
Result<DecisionEvent> DecisionEventFromJsonl(const std::string& line);

/// Reads a JSONL trace file; fails on the first malformed line.
Result<std::vector<DecisionEvent>> ReadJsonlTraceFile(
    const std::string& path);

}  // namespace scrpqo
