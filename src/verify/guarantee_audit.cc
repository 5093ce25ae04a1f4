#include "verify/guarantee_audit.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "pqo/cache_persistence.h"

namespace scrpqo {

namespace {

std::string Fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Collects violations for one event or cache entry.
class Finder {
 public:
  Finder(const AuditConfig& config, std::vector<AuditViolation>* out,
         int64_t seq, int64_t entry, NameId template_key = NameId())
      : config_(config),
        out_(out),
        seq_(seq),
        entry_(entry),
        template_key_(template_key) {}

  void Flag(const std::string& detail) {
    AuditViolation v;
    v.seq = seq_;
    v.entry = entry_;
    v.template_key = template_key_.str();
    v.detail = detail;
    out_->push_back(std::move(v));
  }

  /// lhs <= rhs within the configured relative tolerance.
  bool Holds(double lhs, double rhs) const {
    return lhs <= rhs * (1.0 + config_.rel_tolerance) +
                      config_.rel_tolerance;
  }

  /// Checks the guarantee inequality lhs <= rhs the event claims: records
  /// its relative margin (rhs - lhs) / rhs and returns whether it holds.
  bool Claim(double lhs, double rhs) {
    margin_ = rhs > 0.0 && std::isfinite(rhs) ? (rhs - lhs) / rhs : kInf;
    return Holds(lhs, rhs);
  }

  double margin() const { return margin_; }

 private:
  const AuditConfig& config_;
  std::vector<AuditViolation>* out_;
  int64_t seq_;
  int64_t entry_;
  NameId template_key_;
  double margin_ = kInf;
};

bool Present(double field) { return field >= 0.0; }

/// Cross-checks the event's recorded effective lambda against the
/// configured bounds. Returns the recorded lambda (or -1 when absent).
void CheckLambdaField(const DecisionEvent& e, const AuditConfig& config,
                      Finder* f) {
  if (!Present(e.lambda)) {
    f->Flag("event lacks an effective-lambda record (outcome " +
            std::string(DecisionOutcomeName(e.outcome)) + ")");
    return;
  }
  if (e.lambda < 1.0) {
    f->Flag("effective lambda " + Fmt(e.lambda) + " < 1");
    return;
  }
  const bool redundancy = e.outcome == DecisionOutcome::kRedundantDiscard;
  if (redundancy) {
    if (config.lambda_r >= 1.0 &&
        std::abs(e.lambda - config.lambda_r) >
            config.rel_tolerance * config.lambda_r) {
      f->Flag("redundancy decision used lambda_r " + Fmt(e.lambda) +
              ", configured " + Fmt(config.lambda_r));
    }
    return;
  }
  if (config.dynamic_lambda) {
    if (e.lambda < config.lambda_min * (1.0 - config.rel_tolerance) ||
        e.lambda > config.lambda_max * (1.0 + config.rel_tolerance)) {
      f->Flag("dynamic lambda " + Fmt(e.lambda) + " outside [" +
              Fmt(config.lambda_min) + ", " + Fmt(config.lambda_max) + "]");
    }
  } else if (config.lambda >= 1.0 &&
             std::abs(e.lambda - config.lambda) >
                 config.rel_tolerance * config.lambda) {
    f->Flag("decision used lambda " + Fmt(e.lambda) + ", configured " +
            Fmt(config.lambda));
  }
}

}  // namespace

double AuditEvent(const DecisionEvent& e, const AuditConfig& config,
                  std::vector<AuditViolation>* violations) {
  Finder f(config, violations, e.seq, /*entry=*/-1, e.template_key);
  switch (e.outcome) {
    case DecisionOutcome::kSelCheckHit: {
      // Theorem 2: reusing entry qe's plan at qc is lambda-optimal when
      // G * L <= lambda / S.
      CheckLambdaField(e, config, &f);
      if (!Present(e.g) || !Present(e.l) || !Present(e.subopt)) {
        f.Flag("sel-check-hit lacks g/l/s factors (g=" + Fmt(e.g) +
               " l=" + Fmt(e.l) + " s=" + Fmt(e.subopt) + ")");
        break;
      }
      if (e.g < 1.0 || e.l < 1.0) {
        f.Flag("selectivity factors below 1 (g=" + Fmt(e.g) +
               " l=" + Fmt(e.l) + "); G and L are products of ratios > 1");
      }
      if (e.subopt < 1.0) {
        f.Flag("matched entry has sub-optimality S=" + Fmt(e.subopt) +
               " < 1");
      }
      if (Present(e.lambda) &&
          !f.Claim(e.g * e.l, e.lambda / e.subopt)) {
        f.Flag("sel check violated: G*L = " + Fmt(e.g) + " * " + Fmt(e.l) +
               " = " + Fmt(e.g * e.l) + " > lambda/S = " + Fmt(e.lambda) +
               "/" + Fmt(e.subopt) + " = " + Fmt(e.lambda / e.subopt));
      }
      break;
    }
    case DecisionOutcome::kCostCheckHit: {
      CheckLambdaField(e, config, &f);
      if (!Present(e.r)) {
        f.Flag("cost-check-hit lacks the recost ratio R");
        break;
      }
      if (!Present(e.lambda)) break;
      if (Present(e.l) && Present(e.subopt)) {
        // Theorem 1 (SCR): R * L <= lambda / S.
        if (e.subopt < 1.0) {
          f.Flag("matched entry has sub-optimality S=" + Fmt(e.subopt) +
                 " < 1");
        }
        if (!f.Claim(e.r * e.l, e.lambda / e.subopt)) {
          f.Flag("cost check violated: R*L = " + Fmt(e.r) + " * " +
                 Fmt(e.l) + " = " + Fmt(e.r * e.l) + " > lambda/S = " +
                 Fmt(e.lambda) + "/" + Fmt(e.subopt) + " = " +
                 Fmt(e.lambda / e.subopt));
        }
      } else if (!f.Claim(e.r, e.lambda)) {
        // PCM-style inference: the upper/lower cost ratio bounds SO.
        f.Flag("PCM inference violated: R = " + Fmt(e.r) +
               " > lambda = " + Fmt(e.lambda));
      }
      break;
    }
    case DecisionOutcome::kRedundantDiscard: {
      // Algorithm 2 / Appendix E: the new plan is discarded only when an
      // existing plan is within lambda_r of optimal, Smin <= lambda_r.
      CheckLambdaField(e, config, &f);
      if (!Present(e.r)) {
        f.Flag("redundant-discard lacks the stored sub-optimality Smin");
        break;
      }
      if (e.r < 1.0) {
        f.Flag("stored sub-optimality Smin=" + Fmt(e.r) + " < 1");
      }
      if (Present(e.lambda) && !f.Claim(e.r, e.lambda)) {
        f.Flag("redundancy check violated: Smin = " + Fmt(e.r) +
               " > lambda_r = " + Fmt(e.lambda));
      }
      break;
    }
    case DecisionOutcome::kDegraded:
      // Degraded servings claim no bound (lambda unset by contract), so
      // there is no inequality to re-derive — but a degraded event that
      // DOES claim a lambda is itself a contract violation worth flagging:
      // audits must never fold these decisions into the guaranteed set.
      if (Present(e.lambda)) {
        f.Flag("degraded decision claims a lambda bound (" + Fmt(e.lambda) +
               "); degraded servings are excluded from the guarantee");
      }
      break;
    case DecisionOutcome::kOptimized:
    case DecisionOutcome::kEvicted:
    case DecisionOutcome::kAuditAlert:
    case DecisionOutcome::kRingDropped:
    case DecisionOutcome::kFaultInjected:
      // No guarantee arithmetic: optimizing is always lambda-optimal,
      // eviction drops the instance entries with the plan (Section 6.3.1),
      // and audit-alert / ring-dropped / fault-injected are meta events
      // synthesized about the stream rather than decisions in it.
      break;
  }
  return f.margin();
}

std::string AuditReport::ToString(int max_lines) const {
  std::ostringstream os;
  int shown = 0;
  for (const AuditViolation& v : violations) {
    if (shown++ >= max_lines) {
      os << "  ... (" << (violations.size() - static_cast<size_t>(max_lines))
         << " more)\n";
      break;
    }
    os << "  ";
    if (v.seq >= 0) os << "event #" << v.seq << ": ";
    if (v.entry >= 0) os << "cache entry #" << v.entry << ": ";
    if (!v.template_key.empty()) os << "[" << v.template_key << "] ";
    os << v.detail << "\n";
  }
  os << "audit: " << events_checked << " events, " << entries_checked
     << " cache entries, " << plans_checked << " plans checked; "
     << violations.size() << " violation"
     << (violations.size() == 1 ? "" : "s");
  return os.str();
}

std::string AuditReport::PerTemplateString() const {
  // Single-template traces roll everything under "" — nothing to break out.
  if (by_template.empty() ||
      (by_template.size() == 1 && by_template.begin()->first.empty())) {
    return "";
  }
  std::ostringstream os;
  for (const auto& [key, s] : by_template) {
    os << "  template " << (key.empty() ? "(unscoped)" : key) << ": "
       << s.events << " events, " << s.violations << " violation"
       << (s.violations == 1 ? "" : "s") << ", lambda";
    if (s.lambdas.empty()) {
      os << " n/a";
    } else {
      for (size_t i = 0; i < s.lambdas.size(); ++i) {
        os << (i == 0 ? " " : ", ") << Fmt(s.lambdas[i]);
      }
    }
    os << "\n";
  }
  os << "per-template: " << by_template.size() << " templates";
  return os.str();
}

void AuditReport::Merge(const AuditReport& other) {
  events_checked += other.events_checked;
  entries_checked += other.entries_checked;
  plans_checked += other.plans_checked;
  violations.insert(violations.end(), other.violations.begin(),
                    other.violations.end());
  for (const auto& [key, s] : other.by_template) {
    TemplateAuditSummary& mine = by_template[key];
    mine.events += s.events;
    mine.violations += s.violations;
    for (double l : s.lambdas) {
      if (std::find(mine.lambdas.begin(), mine.lambdas.end(), l) ==
          mine.lambdas.end()) {
        mine.lambdas.push_back(l);
      }
    }
  }
}

AuditReport AuditTrace(const std::vector<DecisionEvent>& events,
                       const AuditConfig& config) {
  AuditReport report;
  for (const DecisionEvent& e : events) {
    ++report.events_checked;
    size_t before = report.violations.size();
    AuditEvent(e, config, &report.violations);
    TemplateAuditSummary& s = report.by_template[e.template_key.str()];
    ++s.events;
    s.violations += static_cast<int64_t>(report.violations.size() - before);
    // Rollup of the sub-optimality bound in force: redundancy decisions
    // record lambda_r and evictions record nothing, so only reuse/optimize
    // outcomes contribute (a healthy static-lambda template shows one).
    const bool bound_event = e.outcome == DecisionOutcome::kSelCheckHit ||
                             e.outcome == DecisionOutcome::kCostCheckHit ||
                             e.outcome == DecisionOutcome::kOptimized;
    if (bound_event && e.lambda >= 1.0 &&
        std::find(s.lambdas.begin(), s.lambdas.end(), e.lambda) ==
            s.lambdas.end()) {
      s.lambdas.push_back(e.lambda);
    }
  }
  return report;
}

Result<AuditReport> AuditTraceFile(const std::string& path,
                                   const AuditConfig& config) {
  Result<std::vector<DecisionEvent>> events = ReadJsonlTraceFile(path);
  if (!events.ok()) return events.status();
  return AuditTrace(events.ValueOrDie(), config);
}

AuditReport AuditCacheSnapshot(const std::vector<PlanPtr>& plans,
                               const std::vector<Scr::SnapshotEntry>& entries,
                               const AuditConfig& config) {
  AuditReport report;
  for (size_t i = 0; i < plans.size(); ++i) {
    ++report.plans_checked;
    if (plans[i] == nullptr) {
      Finder f(config, &report.violations, /*seq=*/-1,
               static_cast<int64_t>(i));
      f.Flag("null plan at ordinal " + std::to_string(i));
    }
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    const Scr::SnapshotEntry& e = entries[i];
    ++report.entries_checked;
    Finder f(config, &report.violations, /*seq=*/-1,
             static_cast<int64_t>(i));
    if (e.plan_ordinal < 0 ||
        e.plan_ordinal >= static_cast<int>(plans.size())) {
      f.Flag("dangling plan ordinal " + std::to_string(e.plan_ordinal) +
             " (cache holds " + std::to_string(plans.size()) + " plans)");
    }
    if (!std::isfinite(e.opt_cost) || e.opt_cost <= 0.0) {
      f.Flag("optimal cost C=" + Fmt(e.opt_cost) +
             " is not positive finite");
    }
    if (!std::isfinite(e.subopt) || e.subopt < 1.0) {
      f.Flag("stored sub-optimality S=" + Fmt(e.subopt) + " < 1");
    } else if (config.lambda_r >= 1.0 && !f.Holds(e.subopt, config.lambda_r)) {
      f.Flag("stored sub-optimality S=" + Fmt(e.subopt) +
             " exceeds lambda_r=" + Fmt(config.lambda_r) +
             "; the redundancy check cannot have admitted this entry");
    }
    if (e.usage < 0) {
      f.Flag("negative usage count " + std::to_string(e.usage));
    }
    for (size_t d = 0; d < e.v.size(); ++d) {
      if (!std::isfinite(e.v[d]) || e.v[d] <= 0.0 || e.v[d] > 1.0) {
        f.Flag("selectivity v[" + std::to_string(d) + "]=" + Fmt(e.v[d]) +
               " outside (0, 1]");
      }
    }
  }
  return report;
}

Result<AuditReport> AuditCacheFile(const std::string& path,
                                   const AuditConfig& config) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open cache file: " + path);
  }
  std::stringstream buf;
  buf << in.rdbuf();
  std::vector<PlanPtr> plans;
  std::vector<Scr::SnapshotEntry> entries;
  SCRPQO_RETURN_NOT_OK(ParseScrCacheSnapshot(buf.str(), &plans, &entries));
  return AuditCacheSnapshot(plans, entries, config);
}

}  // namespace scrpqo
