// Streaming lambda-compliance monitor: the online counterpart of the
// offline guarantee auditor (verify/guarantee_audit.h).
//
// OnlineAuditor is a TraceSink. Attach it to a RingTracer and every
// decision event the exporter drains is re-derived against the paper's
// guarantee inequalities as it streams past — the same rules the offline
// audit applies to a finished JSONL trace:
//
//   selectivity check   G * L <= lambda / S      (Theorem 2)
//   cost check          R * L <= lambda / S      (Theorem 1)
//   PCM inference       R     <= lambda          (Section 3)
//   redundancy check    Smin  <= lambda_r        (Appendix E)
//
// so an implementation bug that breaks the within-lambda-of-optimal
// contract is caught while the process is serving, not in a post-mortem.
//
// Which inequality an event claims, and its compliance margin, is decided
// by the offline AuditEvent itself: the two auditors share one rule.
//
// On a violation the auditor emits a kAuditAlert event back through the
// alert tracer (carrying the offending event's template, instance id and
// guarantee factors) and bumps "verify.online.violations". Meta events
// (kAuditAlert, kRingDropped) are never audited, so an auditor feeding
// the tracer it listens to cannot loop.
//
// Metrics (when a registry is attached):
//   verify.online.checked      events audited so far (counter)
//   verify.online.violations   guarantee violations found (counter)
//   verify.online.worst_margin smallest relative compliance margin seen
//                              (gauge; (rhs-lhs)/rhs per inequality, so
//                              0 = at the bound, < 0 = violated)
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/metrics_registry.h"
#include "obs/ring_tracer.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "verify/guarantee_audit.h"

namespace scrpqo {

struct OnlineAuditorOptions {
  /// Bounds the streaming audit checks against (same semantics as the
  /// offline auditor: fields < 1 mean "trust the per-event lambda").
  AuditConfig config;
  /// Where kAuditAlert events are emitted. May be the very tracer this
  /// sink is attached to (the alert then shows up in the next drain
  /// cycle); null disables alert emission.
  RingTracer* alert_tracer = nullptr;
  /// Publishes the verify.online.* metrics; null disables them.
  MetricsRegistry* metrics = nullptr;
};

class OnlineAuditor : public TraceSink {
 public:
  explicit OnlineAuditor(OnlineAuditorOptions options);

  /// Audits one exporter batch. Thread-safe (the exporter serializes
  /// batches, but tests may drive this directly from several threads).
  void Consume(const std::vector<DecisionEvent>& events) override
      EXCLUDES(mu_);

  /// Streaming rollup for one template ("" = events without a key).
  struct TemplateStats {
    int64_t checked = 0;
    int64_t violations = 0;
    /// Smallest (rhs - lhs) / rhs seen across this template's audited
    /// inequalities; +inf until one is evaluated.
    double worst_margin;
  };

  int64_t checked() const EXCLUDES(mu_);
  int64_t violations() const EXCLUDES(mu_);
  /// Process-wide worst margin (+inf until any inequality is evaluated).
  double worst_margin() const EXCLUDES(mu_);
  std::map<std::string, TemplateStats> PerTemplate() const EXCLUDES(mu_);

 private:
  void PublishLocked() REQUIRES(mu_);

  /// Immutable after construction (alert emission reads the tracer
  /// pointer lock-free outside mu_).
  const OnlineAuditorOptions options_;
  /// Technique stamp of the kAuditAlert events.
  const NameId alert_name_;

  mutable Mutex mu_;
  int64_t checked_ GUARDED_BY(mu_) = 0;
  int64_t violations_ GUARDED_BY(mu_) = 0;
  double worst_margin_ GUARDED_BY(mu_);
  /// Rollups keyed by template (names resolve on read).
  std::unordered_map<NameId, TemplateStats> per_template_ GUARDED_BY(mu_);
  /// Consume scratch (violations of the event being audited), reused so
  /// a clean batch allocates nothing.
  std::vector<AuditViolation> violations_scratch_ GUARDED_BY(mu_);

  // Cached metric handles (resolved once in the constructor — the
  // registry's string-keyed lookup never runs on the consume path).
  Counter* checked_counter_ = nullptr;
  Counter* violations_counter_ = nullptr;
  Gauge* worst_margin_gauge_ = nullptr;
};

}  // namespace scrpqo
