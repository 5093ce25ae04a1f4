// Offline lambda-compliance auditor: statically re-derives every decision
// recorded in a JSONL decision trace (obs/trace.h) and every entry of a
// persisted plan cache (pqo/cache_persistence.h) from the recorded G, L,
// R, S and lambda values, and flags any decision whose arithmetic violates
// the paper's guarantee inequalities:
//
//   selectivity check   G * L <= lambda / S        (Section 5.3, Theorem 2)
//   cost check          R * L <= lambda / S        (Section 5.2, Theorem 1)
//   PCM inference       R     <= lambda            (Section 3)
//   redundancy check    Smin  <= lambda_r          (Section 6.3, Appendix E)
//   cache entry         1 <= S <= lambda_r, C > 0  (Section 6.1 invariants)
//
// With Appendix D's dynamic lambda the per-decision bound is data
// dependent, so techniques record the effective lambda in each event and
// the auditor checks it stays inside [lambda_min, lambda_max].
//
// The auditor is the trust anchor for SCR's value proposition: a clean
// audit proves the implementation honored the within-lambda-of-optimal
// contract for every decision in the trace, independent of the code that
// made those decisions. Exposed as tools/guarantee_audit and
// `scrpqo_cli --audit`.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"
#include "pqo/scr.h"

namespace scrpqo {

/// Bounds the auditor checks decisions against. Fields < 1 mean "not
/// configured": the per-event recorded lambda is then trusted (still
/// required to be >= 1), which audits mixed-technique traces.
struct AuditConfig {
  /// Configured sub-optimality bound; events from static-lambda runs must
  /// record exactly this value.
  double lambda = -1.0;
  /// Configured redundancy threshold; redundancy decisions must record
  /// exactly this value. (SCR's default is sqrt(lambda), Appendix E.)
  double lambda_r = -1.0;
  /// Appendix D: per-event lambda must lie in [lambda_min, lambda_max]
  /// instead of matching `lambda` exactly.
  bool dynamic_lambda = false;
  double lambda_min = 1.1;
  double lambda_max = 10.0;
  /// Relative slack when comparing re-derived arithmetic against recorded
  /// bounds. Serde round-trips doubles exactly (%.17g), so this only
  /// needs to absorb reassociation noise.
  double rel_tolerance = 1e-9;
};

/// One guarantee violation found by the audit.
struct AuditViolation {
  /// Trace sequence number of the offending event; -1 for cache findings.
  int64_t seq = -1;
  /// Cache instance-entry ordinal; -1 for trace findings.
  int64_t entry = -1;
  /// Template key recorded on the offending event (empty when the trace
  /// came from a single-template run).
  std::string template_key;
  /// The violated inequality with its recorded values filled in.
  std::string detail;
};

/// Per-template audit rollup for traces produced by a PqoManager (events
/// carry the "template" field; see obs/trace.h).
struct TemplateAuditSummary {
  int64_t events = 0;
  int64_t violations = 0;
  /// Distinct effective lambdas seen on this template's reuse/optimize
  /// decisions (redundancy events record lambda_r and are excluded), so an
  /// operator can confirm each template audited under one bound.
  std::vector<double> lambdas;
};

struct AuditReport {
  int64_t events_checked = 0;
  int64_t entries_checked = 0;
  int64_t plans_checked = 0;
  std::vector<AuditViolation> violations;
  /// Events / violations / lambdas rolled up by the template field of each
  /// event. Key "" collects events without one; empty map for cache audits.
  std::map<std::string, TemplateAuditSummary> by_template;

  bool ok() const { return violations.empty(); }

  /// Per-decision report: one line per violation (capped at `max_lines`),
  /// plus a summary line.
  std::string ToString(int max_lines = 50) const;

  /// One line per template: events checked, violations, lambdas in force.
  /// Empty string when no event carried a template key.
  std::string PerTemplateString() const;

  /// Folds `other` into this report (counts add, violations append,
  /// template rollups merge).
  void Merge(const AuditReport& other);
};

/// Audits one event: appends its violations (stamped with the event's seq
/// and template) to `violations` and returns the relative compliance
/// margin (rhs - lhs) / rhs of the guarantee inequality it claims — 0 at
/// the bound, < 0 violated, +inf when it claims none. The one function
/// that decides which inequality an event claims, from its outcome and
/// the fields it carries (SCR cost checks record L and S, PCM's record
/// neither); AuditTrace and the online auditor both apply it.
double AuditEvent(const DecisionEvent& event, const AuditConfig& config,
                  std::vector<AuditViolation>* violations);

/// Re-derives every decision in `events` with AuditEvent and rolls the
/// results up per template.
AuditReport AuditTrace(const std::vector<DecisionEvent>& events,
                       const AuditConfig& config);

/// Reads a JSONL trace file and audits it. Fails (Status) only when the
/// file itself is unreadable or malformed; guarantee violations are
/// reported through the returned AuditReport.
Result<AuditReport> AuditTraceFile(const std::string& path,
                                   const AuditConfig& config);

/// Audits a plan-cache snapshot: referential integrity (every instance
/// entry points at a live plan), positive finite optimal costs, and
/// 1 <= S <= lambda_r for every stored sub-optimality.
AuditReport AuditCacheSnapshot(const std::vector<PlanPtr>& plans,
                               const std::vector<Scr::SnapshotEntry>& entries,
                               const AuditConfig& config);

/// Reads a persisted cache file (cache_persistence.h format) and audits it.
Result<AuditReport> AuditCacheFile(const std::string& path,
                                   const AuditConfig& config);

}  // namespace scrpqo
