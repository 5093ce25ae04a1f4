#include "pqo/cache_persistence.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/fault_injection.h"
#include "optimizer/plan_serde.h"
#include "optimizer/recost_program.h"

namespace scrpqo {

namespace {
constexpr char kHeader[] = "scrpqo-cache-v1";

/// Parses and validates one `I ...` instance record (without the leading
/// "I " tag). Every numeric field is range-checked — the snapshot is
/// external input that may be truncated, bit-flipped or hostile, so
/// nothing unvalidated may reach e.v.resize() or the cache (the trace
/// serde applies the same finite-values policy).
Status ParseInstanceLine(const std::string& body, Scr::SnapshotEntry* e) {
  std::istringstream ls(body);
  int disabled = 0;
  int64_t d = 0;
  if (!(ls >> e->plan_ordinal >> e->opt_cost >> e->subopt >> e->usage >>
        disabled >> d)) {
    return Status::InvalidArgument("malformed instance entry: " + body);
  }
  if (e->plan_ordinal < 0) {
    return Status::InvalidArgument("instance entry has negative plan ordinal");
  }
  if (!std::isfinite(e->opt_cost) || e->opt_cost <= 0.0) {
    return Status::InvalidArgument("instance entry has bad opt_cost");
  }
  if (!std::isfinite(e->subopt) || e->subopt < 1.0) {
    return Status::InvalidArgument("instance entry has bad subopt");
  }
  if (e->usage < 0) {
    return Status::InvalidArgument("instance entry has negative usage");
  }
  // Bound the dimension before the resize: a corrupt count here would
  // otherwise trigger a multi-GB allocation or bad_alloc. Templates have
  // one dimension per parameterized predicate, so the cap is generous.
  if (d < 0 || d > kMaxSnapshotDims) {
    return Status::InvalidArgument("instance entry has bad dimension count");
  }
  e->cost_check_disabled = disabled != 0;
  e->v.resize(static_cast<size_t>(d));
  for (int64_t i = 0; i < d; ++i) {
    if (!(ls >> e->v[static_cast<size_t>(i)])) {
      return Status::InvalidArgument("truncated selectivity vector");
    }
    double s = e->v[static_cast<size_t>(i)];
    if (!std::isfinite(s) || s <= 0.0 || s > 1.0) {
      return Status::InvalidArgument("selectivity out of (0, 1]");
    }
  }
  return Status::OK();
}

/// The entry half of CheckSnapshotFitsTemplate.
Status CheckEntryFitsTemplate(const Scr::SnapshotEntry& e,
                              const QueryTemplate& tmpl) {
  if (e.v.size() != static_cast<size_t>(tmpl.dimensions())) {
    return Status::InvalidArgument(
        "instance entry has " + std::to_string(e.v.size()) +
        " selectivities; template " + tmpl.name() + " has " +
        std::to_string(tmpl.dimensions()));
  }
  return Status::OK();
}

/// The plan half of CheckSnapshotFitsTemplate, over the subtree at `node`.
Status CheckPlanFitsTemplate(const PhysicalPlanNode& node,
                             const QueryTemplate& tmpl) {
  if (node.is_leaf()) {
    const LeafInfo& leaf = node.leaf;
    if (leaf.table_index < 0 || leaf.table_index >= tmpl.num_tables() ||
        tmpl.tables()[static_cast<size_t>(leaf.table_index)] != leaf.table) {
      return Status::InvalidArgument(
          "snapshot plan reads " + leaf.table + " as table " +
          std::to_string(leaf.table_index) + ", which template " +
          tmpl.name() + " does not");
    }
    for (const PredSpec& pred : leaf.preds) {
      if (!pred.parameterized()) continue;
      if (pred.param_slot < 0 || pred.param_slot >= tmpl.dimensions()) {
        return Status::InvalidArgument(
            "snapshot plan binds parameter slot " +
            std::to_string(pred.param_slot) + "; template " + tmpl.name() +
            " has " + std::to_string(tmpl.dimensions()));
      }
      const PredicateTemplate& bound = tmpl.PredicateForSlot(pred.param_slot);
      if (bound.table_index != leaf.table_index ||
          bound.column != pred.column) {
        return Status::InvalidArgument(
            "snapshot plan binds parameter slot " +
            std::to_string(pred.param_slot) + " to " + leaf.table + "." +
            pred.column + ", not to template " + tmpl.name() +
            "'s predicate on " + bound.column);
      }
    }
  }
  for (const PlanPtr& child : node.children) {
    if (child != nullptr) {
      SCRPQO_RETURN_NOT_OK(CheckPlanFitsTemplate(*child, tmpl));
    }
  }
  return Status::OK();
}

/// The checks LoadScrCache documents, over a whole parsed snapshot.
Status CheckSnapshotFitsTemplate(const std::vector<PlanPtr>& plans,
                                 const std::vector<Scr::SnapshotEntry>& entries,
                                 const QueryTemplate& tmpl) {
  for (const Scr::SnapshotEntry& e : entries) {
    SCRPQO_RETURN_NOT_OK(CheckEntryFitsTemplate(e, tmpl));
  }
  for (const PlanPtr& plan : plans) {
    SCRPQO_RETURN_NOT_OK(CheckPlanFitsTemplate(*plan, tmpl));
  }
  return Status::OK();
}

/// Checks that Restore can compile `plan` and recost it at the snapshot's
/// instances: the plan's binding slots must lie below the dimension of the
/// instance entries. A snapshot with plans but no entries gives no
/// dimension to check against, so its plans are rejected (SaveScrCache
/// never writes one: every live plan serves a live entry).
Status ValidateSnapshotPlan(const PhysicalPlanNode& plan,
                            const std::vector<Scr::SnapshotEntry>& entries) {
  if (entries.empty()) {
    return Status::InvalidArgument(
        "snapshot plan has no instance entries to bound its param slots");
  }
  return RecostProgram::Validate(
      plan, static_cast<int>(entries.front().v.size()));
}

/// Chaos hooks for restore-path testing: with the snapshot.truncate /
/// snapshot.bitflip points armed, the loaded bytes are deterministically
/// corrupted before parsing — exercising exactly what a crash mid-write
/// or storage rot would produce.
void ApplySnapshotFaults(std::string* bytes) {
  if (bytes->empty()) return;
  double fraction = 0.0;
  if (FaultShouldFire(faults::kSnapshotTruncate, &fraction)) {
    if (!(fraction > 0.0 && fraction < 1.0)) fraction = 0.5;
    bytes->resize(static_cast<size_t>(
        static_cast<double>(bytes->size()) * fraction));
  }
  double pos = 0.0;
  if (FaultShouldFire(faults::kSnapshotBitFlip, &pos)) {
    size_t at = pos > 0.0 ? static_cast<size_t>(pos) % bytes->size()
                          : bytes->size() / 2;
    (*bytes)[at] = static_cast<char>((*bytes)[at] ^ 0x10);
  }
}

}  // namespace

std::string SaveScrCache(const Scr& scr) {
  std::ostringstream os;
  os << kHeader << "\n";
  for (const auto& plan : scr.SnapshotPlans()) {
    os << "P " << SerializePlan(*plan) << "\n";
  }
  for (const auto& e : scr.SnapshotInstances()) {
    os << "I " << e.plan_ordinal << " ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g %.17g", e.opt_cost, e.subopt);
    os << buf << " " << e.usage << " " << (e.cost_check_disabled ? 1 : 0)
       << " " << e.v.size();
    for (double s : e.v) {
      std::snprintf(buf, sizeof(buf), " %.17g", s);
      os << buf;
    }
    os << "\n";
  }
  return os.str();
}

Status ParseScrCacheSnapshot(const std::string& snapshot,
                             std::vector<PlanPtr>* plans,
                             std::vector<Scr::SnapshotEntry>* entries) {
  std::istringstream is(snapshot);
  std::string line;
  if (!std::getline(is, line) || line != kHeader) {
    return Status::InvalidArgument("bad cache snapshot header");
  }
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line[0] == 'P') {
      Result<PlanPtr> plan = DeserializePlan(line.substr(2));
      if (!plan.ok()) return plan.status();
      plans->push_back(plan.MoveValueOrDie());
    } else if (line[0] == 'I') {
      Scr::SnapshotEntry e;
      SCRPQO_RETURN_NOT_OK(ParseInstanceLine(line.substr(2), &e));
      entries->push_back(std::move(e));
    } else {
      return Status::InvalidArgument("unknown snapshot record: " + line);
    }
  }
  for (const PlanPtr& plan : *plans) {
    SCRPQO_RETURN_NOT_OK(ValidateSnapshotPlan(*plan, *entries));
  }
  return Status::OK();
}

Status ParseScrCacheSnapshotLenient(const std::string& snapshot,
                                    const QueryTemplate& tmpl,
                                    std::vector<PlanPtr>* plans,
                                    std::vector<Scr::SnapshotEntry>* entries,
                                    SnapshotRestoreReport* report) {
  *report = SnapshotRestoreReport{};
  std::istringstream is(snapshot);
  std::string line;
  if (!std::getline(is, line) || line != kHeader) {
    return Status::InvalidArgument("bad cache snapshot header");
  }
  // Corruption model: a crash mid-write (or a fault-injected truncation /
  // bit flip) damages a suffix or a single record. Records before the
  // first bad line are intact and internally validated, so the valid
  // prefix is kept; everything from the first failure on is dropped —
  // later records may reference plans we cannot trust to have parsed.
  bool corrupt = false;
  // Kept records in file order ('P' or 'I'), for the plan check below.
  std::string kept;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (corrupt) {
      ++report->records_dropped;
      continue;
    }
    Status st = Status::OK();
    if (line[0] == 'P') {
      Result<PlanPtr> plan = DeserializePlan(line.substr(2));
      if (plan.ok()) {
        plans->push_back(plan.MoveValueOrDie());
        ++report->plans_restored;
        kept.push_back('P');
      } else {
        st = plan.status();
      }
    } else if (line[0] == 'I') {
      Scr::SnapshotEntry e;
      st = ParseInstanceLine(line.substr(2), &e);
      if (st.ok()) {
        if (e.plan_ordinal < report->plans_restored) {
          entries->push_back(std::move(e));
          ++report->entries_restored;
          kept.push_back('I');
        } else {
          st = Status::InvalidArgument(
              "instance entry references unparsed plan");
        }
      }
    } else {
      st = Status::InvalidArgument("unknown snapshot record: " + line);
    }
    if (!st.ok()) {
      corrupt = true;
      ++report->records_dropped;
      report->first_error = st.ToString();
    }
  }
  // A snapshot that ends without a trailing newline mid-record shows up
  // as a short final line, caught above; a fully empty tail is fine.
  //
  // Records are checked against `tmpl`, and plans against the entries'
  // dimension, once every entry is known. The first record that fails ends
  // the valid prefix, as a malformed line would: it and every kept record
  // after it are dropped.
  int num_plans = 0;
  int num_entries = 0;
  for (size_t r = 0; r < kept.size(); ++r) {
    Status st = Status::OK();
    if (kept[r] == 'I') {
      st = CheckEntryFitsTemplate(
          (*entries)[static_cast<size_t>(num_entries)], tmpl);
    } else {
      const PhysicalPlanNode& plan = *(*plans)[static_cast<size_t>(num_plans)];
      st = ValidateSnapshotPlan(plan, *entries);
      if (st.ok()) st = CheckPlanFitsTemplate(plan, tmpl);
    }
    if (!st.ok()) {
      report->records_dropped += static_cast<int>(kept.size() - r);
      report->first_error = st.ToString();
      plans->resize(static_cast<size_t>(num_plans));
      entries->resize(static_cast<size_t>(num_entries));
      report->plans_restored = num_plans;
      report->entries_restored = num_entries;
      break;
    }
    ++(kept[r] == 'I' ? num_entries : num_plans);
  }
  return Status::OK();
}

Status LoadScrCache(const std::string& snapshot, const QueryTemplate& tmpl,
                    Scr* scr) {
  std::vector<PlanPtr> plans;
  std::vector<Scr::SnapshotEntry> entries;
  SCRPQO_RETURN_NOT_OK(ParseScrCacheSnapshot(snapshot, &plans, &entries));
  SCRPQO_RETURN_NOT_OK(CheckSnapshotFitsTemplate(plans, entries, tmpl));
  return scr->Restore(plans, entries);
}

Status LoadScrCacheLenient(const std::string& snapshot,
                           const QueryTemplate& tmpl, Scr* scr,
                           SnapshotRestoreReport* report) {
  std::vector<PlanPtr> plans;
  std::vector<Scr::SnapshotEntry> entries;
  SCRPQO_RETURN_NOT_OK(ParseScrCacheSnapshotLenient(snapshot, tmpl, &plans,
                                                    &entries, report));
  return scr->Restore(plans, entries);
}

Status SaveScrCacheToFile(const Scr& scr, const std::string& path) {
  // Write-to-temp + atomic rename: a crash mid-save leaves either the old
  // snapshot or no snapshot, never a truncated file that half-loads on
  // restart. The temp file lives next to the target so the rename cannot
  // cross filesystems.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    if (!f.is_open()) {
      return Status::Internal("cannot open cache file for writing: " + tmp);
    }
    f << SaveScrCache(scr);
    f.flush();
    if (!f.good()) {
      f.close();
      std::remove(tmp.c_str());
      return Status::Internal("write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("rename failed: " + tmp + " -> " + path);
  }
  return Status::OK();
}

namespace {

Status SlurpSnapshotFile(const std::string& path, std::string* bytes) {
  std::ifstream f(path);
  if (!f.is_open()) {
    return Status::NotFound("cache file not found: " + path);
  }
  std::stringstream buf;
  buf << f.rdbuf();
  *bytes = buf.str();
  ApplySnapshotFaults(bytes);
  return Status::OK();
}

}  // namespace

Status LoadScrCacheFromFile(const std::string& path, const QueryTemplate& tmpl,
                            Scr* scr) {
  std::string bytes;
  SCRPQO_RETURN_NOT_OK(SlurpSnapshotFile(path, &bytes));
  return LoadScrCache(bytes, tmpl, scr);
}

Status LoadScrCacheFromFileLenient(const std::string& path,
                                   const QueryTemplate& tmpl, Scr* scr,
                                   SnapshotRestoreReport* report) {
  std::string bytes;
  SCRPQO_RETURN_NOT_OK(SlurpSnapshotFile(path, &bytes));
  return LoadScrCacheLenient(bytes, tmpl, scr, report);
}

}  // namespace scrpqo
