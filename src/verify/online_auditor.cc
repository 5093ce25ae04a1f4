#include "verify/online_auditor.h"

#include <limits>
#include <utility>

#include "obs/emit.h"

namespace scrpqo {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

OnlineAuditor::OnlineAuditor(OnlineAuditorOptions options)
    : options_(std::move(options)),
      alert_name_(NameId::Intern("online-auditor")),
      worst_margin_(kInf) {
  if (options_.metrics != nullptr) {
    checked_counter_ = options_.metrics->counter("verify.online.checked");
    violations_counter_ =
        options_.metrics->counter("verify.online.violations");
    worst_margin_gauge_ = options_.metrics->gauge("verify.online.worst_margin");
  }
}

void OnlineAuditor::Consume(const std::vector<DecisionEvent>& events) {
  int64_t checked = 0;
  int64_t violations = 0;
  std::vector<DecisionEvent> alerts;
  {
    MutexLock lock(mu_);
    for (const DecisionEvent& e : events) {
      // Only genuine getPlan decisions: meta events (alerts we emitted
      // ourselves, ring-drop records) must not be re-audited or the
      // auditor feeding its own tracer would alert on its alerts forever.
      if (!IsDecisionOutcome(e.outcome)) continue;
      ++checked;
      violations_scratch_.clear();
      // Same rule as the offline audit, one event at a time.
      const double m = AuditEvent(e, options_.config, &violations_scratch_);
      TemplateStats& ts =
          per_template_.try_emplace(e.template_key, TemplateStats{0, 0, kInf})
              .first->second;
      ++ts.checked;
      if (m < ts.worst_margin) ts.worst_margin = m;
      if (m < worst_margin_) worst_margin_ = m;
      if (violations_scratch_.empty()) continue;
      const int64_t n = static_cast<int64_t>(violations_scratch_.size());
      violations += n;
      ts.violations += n;
      if (options_.alert_tracer != nullptr) {
        // The alert carries the offending decision's identity and factors
        // so `trace_summarize` / the admin surface can show what broke
        // without joining back to the original event; one alert per
        // violated rule.
        DecisionEvent alert;
        alert.outcome = DecisionOutcome::kAuditAlert;
        alert.technique = alert_name_;
        alert.template_key = e.template_key;
        alert.instance_id = e.instance_id;
        alert.matched_entry = e.matched_entry;
        alert.g = e.g;
        alert.l = e.l;
        alert.r = e.r;
        alert.subopt = e.subopt;
        alert.lambda = e.lambda;
        alerts.insert(alerts.end(), violations_scratch_.size(), alert);
      }
    }
    checked_ += checked;
    violations_ += violations;
    PublishLocked();
  }
  if (checked_counter_ != nullptr && checked > 0) {
    checked_counter_->Increment(checked);
  }
  if (violations_counter_ != nullptr && violations > 0) {
    violations_counter_->Increment(violations);
  }
  // Emit outside mu_: Record may re-enter tracer machinery.
  for (const DecisionEvent& alert : alerts) {
    EmitDecisionEvent(options_.alert_tracer, alert);
  }
}

void OnlineAuditor::PublishLocked() {
  if (worst_margin_gauge_ != nullptr && worst_margin_ < kInf) {
    worst_margin_gauge_->Set(worst_margin_);
  }
}

int64_t OnlineAuditor::checked() const {
  MutexLock lock(mu_);
  return checked_;
}

int64_t OnlineAuditor::violations() const {
  MutexLock lock(mu_);
  return violations_;
}

double OnlineAuditor::worst_margin() const {
  MutexLock lock(mu_);
  return worst_margin_;
}

std::map<std::string, OnlineAuditor::TemplateStats>
OnlineAuditor::PerTemplate() const {
  MutexLock lock(mu_);
  std::map<std::string, TemplateStats> out;
  for (const auto& [name, stats] : per_template_) {
    out.emplace(name.str(), stats);
  }
  return out;
}

}  // namespace scrpqo
