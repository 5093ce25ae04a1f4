// trace_summarize — offline analysis of a decision-event JSONL trace
// written by `scrpqo_cli --trace-events`.
//
// Usage:
//   trace_summarize [--stage-attribution] TRACE.jsonl
//
// Prints the per-outcome decision breakdown (decision outcomes sum to the
// number of instances traced), cache-maintenance event counts, capture
// losses (ring-buffer drops recorded in-band by the SPSC tracer),
// per-template event totals, getPlan latency percentiles, and cost-check
// effort stats. With --stage-attribution, also breaks getPlan wall time
// down by pipeline stage (shard-lock wait, index probe, sel check,
// recost, optimize, manageCache) from the per-event span records.
//
// Exits non-zero on a malformed trace: any line that is not a valid
// decision-event JSONL record fails the whole run (a truncated or
// corrupted trace must not silently summarize as a shorter one).
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "obs/span.h"
#include "obs/trace.h"

using namespace scrpqo;

namespace {

void PrintLatencyLine(const char* label, std::vector<double> micros) {
  if (micros.empty()) return;
  std::printf("  %-18s p50=%.1fus p90=%.1fus p99=%.1fus max=%.1fus\n",
              label, Percentile(micros, 50.0), Percentile(micros, 90.0),
              Percentile(micros, 99.0), Max(micros));
}

int Usage() {
  std::fprintf(stderr,
               "usage: trace_summarize [--stage-attribution] TRACE.jsonl\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool stage_attribution = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--stage-attribution") {
      stage_attribution = true;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      return Usage();
    }
  }
  if (path == nullptr) return Usage();
  auto loaded = ReadJsonlTraceFile(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::vector<DecisionEvent> events = loaded.MoveValueOrDie();
  if (events.empty()) {
    std::printf("empty trace\n");
    return 0;
  }

  std::map<DecisionOutcome, int64_t> counts;
  std::map<std::string, int64_t> techniques;
  std::map<std::string, int64_t> template_totals;
  std::map<std::string, int64_t> fault_fires;  // point name -> fires
  std::vector<double> decision_micros;
  std::vector<double> candidates;
  std::vector<double> recosts;
  std::vector<double> stage_micros[kNumStages];
  int64_t decisions = 0;
  int64_t cache_events = 0;
  int64_t optimizer_calls = 0;
  int64_t drop_events = 0;
  int64_t dropped_total = 0;
  for (const DecisionEvent& e : events) {
    ++counts[e.outcome];
    // Fault meta events overload the technique field with the point name;
    // keep them out of the technique header line.
    if (!e.technique.empty() &&
        e.outcome != DecisionOutcome::kFaultInjected) {
      ++techniques[e.technique.str()];
    }
    ++template_totals[e.template_key.str()];
    if (e.outcome == DecisionOutcome::kRingDropped) {
      ++drop_events;
      dropped_total += e.dropped;
    }
    if (e.outcome == DecisionOutcome::kFaultInjected) {
      // Fault-injection meta events carry the fault point name in the
      // technique field (see obs/trace.h).
      ++fault_fires[e.technique.empty() ? "(unnamed)" : e.technique.str()];
    }
    if (IsDecisionOutcome(e.outcome)) {
      ++decisions;
      // Whole microseconds, as on the wire.
      decision_micros.push_back(static_cast<double>(e.wall_ns / 1000));
      candidates.push_back(static_cast<double>(e.candidates_scanned));
      recosts.push_back(static_cast<double>(e.recost_calls));
      if (e.outcome == DecisionOutcome::kOptimized ||
          e.outcome == DecisionOutcome::kRedundantDiscard) {
        ++optimizer_calls;
      }
      for (int s = 0; s < kNumStages; ++s) {
        int64_t ns = e.stages.get(static_cast<Stage>(s));
        if (ns >= 0) {
          stage_micros[s].push_back(static_cast<double>(ns / 1000));
        }
      }
    } else {
      ++cache_events;
    }
  }

  std::printf("trace: %zu events", events.size());
  for (const auto& [name, n] : techniques) {
    std::printf("  [%s x%lld]", name.c_str(), static_cast<long long>(n));
  }
  std::printf("\n\ndecisions (%lld instances):\n",
              static_cast<long long>(decisions));
  for (DecisionOutcome outcome :
       {DecisionOutcome::kSelCheckHit, DecisionOutcome::kCostCheckHit,
        DecisionOutcome::kOptimized, DecisionOutcome::kRedundantDiscard,
        DecisionOutcome::kDegraded}) {
    auto it = counts.find(outcome);
    int64_t n = it == counts.end() ? 0 : it->second;
    std::printf("  %-18s %8lld  (%5.1f%%)\n", DecisionOutcomeName(outcome),
                static_cast<long long>(n),
                decisions > 0 ? 100.0 * static_cast<double>(n) /
                                    static_cast<double>(decisions)
                              : 0.0);
  }
  std::printf("  optimizer calls    %8lld  (%5.1f%%)\n",
              static_cast<long long>(optimizer_calls),
              decisions > 0 ? 100.0 * static_cast<double>(optimizer_calls) /
                                  static_cast<double>(decisions)
                            : 0.0);
  if (cache_events > 0) {
    std::printf("\ncache events:\n  %-18s %8lld\n",
                DecisionOutcomeName(DecisionOutcome::kEvicted),
                static_cast<long long>(
                    counts.count(DecisionOutcome::kEvicted)
                        ? counts[DecisionOutcome::kEvicted]
                        : 0));
  }

  // Capture losses are recorded in-band: the SPSC exporter synthesizes a
  // kRingDropped event whenever a producer ring overflowed, carrying the
  // number of events lost in its `dropped` field.
  if (drop_events > 0) {
    std::printf("\ncapture losses:\n");
    std::printf("  ring-drop records  %8lld\n",
                static_cast<long long>(drop_events));
    std::printf("  events dropped     %8lld\n",
                static_cast<long long>(dropped_total));
  } else {
    std::printf("\ncapture losses: none (no ring-drop records)\n");
  }
  if (counts.count(DecisionOutcome::kAuditAlert)) {
    std::printf("\nAUDIT ALERTS: %lld lambda-guarantee violations flagged "
                "by the online monitor\n",
                static_cast<long long>(
                    counts[DecisionOutcome::kAuditAlert]));
  }

  // Degraded servings and injected faults: a fault-injection run is
  // auditable from the JSONL alone — every fired fault leaves a
  // kFaultInjected meta event, and every serving that had to drop the
  // lambda guarantee leaves a kDegraded decision.
  const int64_t degraded = counts.count(DecisionOutcome::kDegraded)
                               ? counts[DecisionOutcome::kDegraded]
                               : 0;
  if (degraded > 0 || !fault_fires.empty()) {
    std::printf("\ndegraded servings / injected faults:\n");
    std::printf("  degraded decisions %7lld  (%5.1f%% of decisions; served "
                "WITHOUT the lambda guarantee)\n",
                static_cast<long long>(degraded),
                decisions > 0 ? 100.0 * static_cast<double>(degraded) /
                                    static_cast<double>(decisions)
                              : 0.0);
    for (const auto& [point, n] : fault_fires) {
      std::printf("  fault %-24s %8lld fire%s\n", point.c_str(),
                  static_cast<long long>(n), n == 1 ? "" : "s");
    }
  }

  // Per-template totals (multi-template traces from a PqoManager run;
  // single-template traces roll up under one anonymous row).
  if (template_totals.size() > 1 ||
      !template_totals.begin()->first.empty()) {
    std::printf("\nevents by template:\n");
    for (const auto& [key, n] : template_totals) {
      std::printf("  %-32s %8lld\n",
                  key.empty() ? "(no template)" : key.c_str(),
                  static_cast<long long>(n));
    }
  }

  if (stage_attribution) {
    std::printf("\nstage attribution (decisions carrying each stage):\n");
    auto sum = [](const std::vector<double>& v) {
      double total = 0.0;
      for (double x : v) total += x;
      return total;
    };
    double attributed_sum = 0.0;
    for (int s = 0; s < kNumStages; ++s) {
      attributed_sum += sum(stage_micros[s]);
    }
    for (int s = 0; s < kNumStages; ++s) {
      const std::vector<double>& v = stage_micros[s];
      if (v.empty()) continue;
      double total = sum(v);
      std::printf(
          "  %-13s n=%-6zu mean=%7.1fus p99=%7.1fus max=%7.1fus  "
          "share=%5.1f%%\n",
          StageName(static_cast<Stage>(s)), v.size(), Mean(v),
          Percentile(v, 99.0), Max(v),
          attributed_sum > 0.0 ? 100.0 * total / attributed_sum : 0.0);
    }
    if (attributed_sum == 0.0) {
      std::printf("  (no stage records in this trace — was it captured "
                  "with a tracer attached?)\n");
    }
  }

  std::printf("\nlatency:\n");
  PrintLatencyLine("getPlan", decision_micros);

  std::printf("\ncost-check effort per getPlan:\n");
  std::printf("  candidates scanned mean=%.2f p99=%.0f max=%.0f\n",
              Mean(candidates), Percentile(candidates, 99.0),
              Max(candidates));
  std::printf("  recost calls       mean=%.2f p99=%.0f max=%.0f\n",
              Mean(recosts), Percentile(recosts, 99.0), Max(recosts));
  return 0;
}
