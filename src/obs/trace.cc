#include "obs/trace.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

namespace scrpqo {

namespace {

constexpr const char* kOutcomeNames[] = {
    "sel-check-hit", "cost-check-hit", "optimized",
    "redundant-discard", "evicted",    "audit-alert",
    "ring-dropped",  "degraded",      "fault-injected"};
constexpr int kNumOutcomes = 9;

void AppendEscaped(const std::string& s, std::string* out) {
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

void AppendDouble(double v, std::string* out) {
  char buf[48];
  // %.17g round-trips doubles exactly.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

/// Locates `"key":` in `line` and returns the character offset just past
/// the colon (skipping spaces), or npos. Keys we emit never match inside
/// a string value: the serializer escapes every quote in a name.
size_t FindValue(const std::string& line, const char* key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return std::string::npos;
  pos += needle.size();
  while (pos < line.size() && line[pos] == ' ') ++pos;
  return pos;
}

enum class NumField { kAbsent, kOk, kBad };

NumField ParseNumberField(const std::string& line, const char* key,
                          double* out) {
  size_t pos = FindValue(line, key);
  if (pos == std::string::npos) return NumField::kAbsent;
  const char* start = line.c_str() + pos;
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(start, &end);
  if (end == start || errno == ERANGE) return NumField::kBad;
  *out = v;
  return NumField::kOk;
}

bool ParseNumber(const std::string& line, const char* key, double* out) {
  return ParseNumberField(line, key, out) == NumField::kOk;
}

bool ParseString(const std::string& line, const char* key,
                 std::string* out) {
  size_t pos = FindValue(line, key);
  if (pos == std::string::npos || pos >= line.size() || line[pos] != '"') {
    return false;
  }
  ++pos;
  std::string s;
  while (pos < line.size() && line[pos] != '"') {
    char c = line[pos];
    if (c == '\\' && pos + 1 < line.size()) {
      char e = line[pos + 1];
      pos += 2;
      switch (e) {
        case 'n':
          s += '\n';
          break;
        case 't':
          s += '\t';
          break;
        case 'u': {
          if (pos + 4 > line.size()) return false;
          char hex[5] = {line[pos], line[pos + 1], line[pos + 2],
                         line[pos + 3], '\0'};
          s += static_cast<char>(std::strtol(hex, nullptr, 16));
          pos += 4;
          break;
        }
        default:
          s += e;
      }
    } else {
      s += c;
      ++pos;
    }
  }
  if (pos >= line.size()) return false;  // unterminated string
  *out = std::move(s);
  return true;
}

/// Truncates the finite `v` to an integer and scales it by `scale`;
/// false when the result does not fit in int64.
bool ToInt64(double v, int64_t scale, int64_t* out) {
  // 2^63 is exact as a double; the truncated value must lie strictly
  // inside (-2^63 / scale, 2^63 / scale) for the scaled cast to be
  // defined.
  const double limit = 9223372036854775808.0 / static_cast<double>(scale);
  const double whole = std::trunc(v);
  if (!(whole > -limit && whole < limit)) return false;
  *out = static_cast<int64_t>(whole) * scale;
  return true;
}

/// Truncates the finite `v` to int32; false when it does not fit.
bool ToInt32(double v, int32_t* out) {
  const double whole = std::trunc(v);
  if (!(whole >= -2147483648.0 && whole <= 2147483647.0)) return false;
  *out = static_cast<int32_t>(whole);
  return true;
}

Status OutOfRange(const char* key, const std::string& line) {
  return Status::InvalidArgument(
      std::string("trace line has out-of-range \"") + key + "\": " + line);
}

}  // namespace

const char* DecisionOutcomeName(DecisionOutcome outcome) {
  int i = static_cast<int>(outcome);
  if (i < 0 || i >= kNumOutcomes) return "unknown";
  return kOutcomeNames[i];
}

bool ParseDecisionOutcome(const std::string& name, DecisionOutcome* out) {
  for (int i = 0; i < kNumOutcomes; ++i) {
    if (name == kOutcomeNames[i]) {
      *out = static_cast<DecisionOutcome>(i);
      return true;
    }
  }
  return false;
}

bool IsDecisionOutcome(DecisionOutcome outcome) {
  switch (outcome) {
    case DecisionOutcome::kSelCheckHit:
    case DecisionOutcome::kCostCheckHit:
    case DecisionOutcome::kOptimized:
    case DecisionOutcome::kRedundantDiscard:
    case DecisionOutcome::kDegraded:
      return true;
    case DecisionOutcome::kEvicted:
    case DecisionOutcome::kAuditAlert:
    case DecisionOutcome::kRingDropped:
    case DecisionOutcome::kFaultInjected:
      return false;
  }
  return false;
}

std::string DecisionEventToJsonl(const DecisionEvent& e) {
  std::string out;
  out.reserve(192);
  out += "{\"seq\":";
  out += std::to_string(e.seq);
  out += ",\"instance\":";
  out += std::to_string(e.instance_id);
  out += ",\"technique\":\"";
  AppendEscaped(e.technique.str(), &out);
  if (!e.template_key.empty()) {
    out += "\",\"template\":\"";
    AppendEscaped(e.template_key.str(), &out);
  }
  out += "\",\"outcome\":\"";
  out += DecisionOutcomeName(e.outcome);
  out += "\",\"matched\":";
  out += std::to_string(e.matched_entry);
  out += ",\"g\":";
  AppendDouble(e.g, &out);
  out += ",\"l\":";
  AppendDouble(e.l, &out);
  out += ",\"r\":";
  AppendDouble(e.r, &out);
  out += ",\"s\":";
  AppendDouble(e.subopt, &out);
  out += ",\"lambda\":";
  AppendDouble(e.lambda, &out);
  out += ",\"candidates\":";
  out += std::to_string(e.candidates_scanned);
  out += ",\"recosts\":";
  out += std::to_string(e.recost_calls);
  out += ",\"wall_us\":";
  out += std::to_string(e.wall_ns / 1000);
  // Optional trailing fields, emitted only when set so that events from
  // span-free emitters serialize byte-identically to the legacy format
  // (same contract as the optional "template" field above).
  if (e.dropped != 0) {
    out += ",\"dropped\":";
    out += std::to_string(e.dropped);
  }
  if (e.stages.any()) {
    out += ",\"stages\":{";
    bool first = true;
    for (int i = 0; i < kNumStages; ++i) {
      if (e.stages.ns[i] < 0) continue;
      if (!first) out += ",";
      first = false;
      out += "\"";
      out += StageName(static_cast<Stage>(i));
      out += "\":";
      out += std::to_string(e.stages.ns[i] / 1000);
    }
    out += "}";
  }
  out += "}";
  return out;
}

Result<DecisionEvent> DecisionEventFromJsonl(const std::string& line) {
  DecisionEvent e;
  double v = 0.0;
  if (!ParseNumber(line, "seq", &v) || !std::isfinite(v)) {
    return Status::InvalidArgument("trace line missing \"seq\": " + line);
  }
  if (!ToInt64(v, 1, &e.seq)) return OutOfRange("seq", line);
  if (!ParseNumber(line, "instance", &v) || !std::isfinite(v)) {
    return Status::InvalidArgument("trace line missing \"instance\"");
  }
  if (!ToInt32(v, &e.instance_id)) return OutOfRange("instance", line);
  std::string outcome;
  if (!ParseString(line, "outcome", &outcome) ||
      !ParseDecisionOutcome(outcome, &e.outcome)) {
    return Status::InvalidArgument("trace line has bad \"outcome\": " + line);
  }
  // Optional fields keep their defaults when absent.
  for (auto [key, slot] : {std::pair{"technique", &e.technique},
                           std::pair{"template", &e.template_key}}) {
    std::string name;
    if (ParseString(line, key, &name) && !NameId::TryIntern(name, slot)) {
      return Status::OutOfRange("name table full");
    }
  }
  struct OptField {
    const char* key;
    double* slot;
  };
  double matched = -1.0, candidates = 0.0, recosts = 0.0, wall = 0.0,
         dropped = 0.0;
  for (const OptField& f :
       {OptField{"matched", &matched}, OptField{"g", &e.g},
        OptField{"l", &e.l}, OptField{"r", &e.r}, OptField{"s", &e.subopt},
        OptField{"lambda", &e.lambda}, OptField{"candidates", &candidates},
        OptField{"recosts", &recosts}, OptField{"wall_us", &wall},
        OptField{"dropped", &dropped}}) {
    if (ParseNumberField(line, f.key, f.slot) == NumField::kBad ||
        !std::isfinite(*f.slot)) {
      // Finite-values policy (matches EnvDouble): a NaN/inf cost factor
      // means the trace is corrupt, and must not be silently carried into
      // audits.
      return Status::InvalidArgument(std::string("trace line has bad \"") +
                                     f.key + "\": " + line);
    }
  }
  if (!ToInt32(matched, &e.matched_entry)) return OutOfRange("matched", line);
  if (!ToInt32(candidates, &e.candidates_scanned)) {
    return OutOfRange("candidates", line);
  }
  if (!ToInt32(recosts, &e.recost_calls)) return OutOfRange("recosts", line);
  if (!ToInt64(wall, 1000, &e.wall_ns)) return OutOfRange("wall_us", line);
  if (!ToInt64(dropped, 1, &e.dropped)) return OutOfRange("dropped", line);
  // Stage sub-keys are globally unique in the line (no event key shares a
  // stage name), so the flat key scan handles the nested object too.
  if (FindValue(line, "stages") != std::string::npos) {
    for (int i = 0; i < kNumStages; ++i) {
      const char* name = StageName(static_cast<Stage>(i));
      double us = 0.0;
      NumField got = ParseNumberField(line, name, &us);
      if (got == NumField::kAbsent) continue;
      int64_t ns = 0;
      if (got == NumField::kBad || !std::isfinite(us) ||
          !ToInt64(us, 1000, &ns) || ns < 0 || ns > StageBreakdown::kMaxNs) {
        return Status::InvalidArgument(
            std::string("trace line has bad stage \"") + name + "\": " +
            line);
      }
      e.stages.ns[i] = static_cast<int32_t>(ns);
    }
  }
  return e;
}

Result<std::vector<DecisionEvent>> ReadJsonlTraceFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open trace file: " + path);
  }
  std::vector<DecisionEvent> events;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    Result<DecisionEvent> parsed = DecisionEventFromJsonl(line);
    if (!parsed.ok()) {
      return Status::InvalidArgument("line " + std::to_string(lineno) +
                                     ": " + parsed.status().message());
    }
    events.push_back(parsed.MoveValueOrDie());
  }
  return events;
}

}  // namespace scrpqo
