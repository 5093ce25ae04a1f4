// Plan-cache persistence: snapshot an SCR cache to text and restore it into
// a fresh technique instance. Plans are instance-independent (parameter
// slots, not values), so a restored cache is immediately usable for new
// query instances — the PQO analogue of a persisted plan store surviving a
// server restart.
//
// Format: one header line, then one line per live plan
// (`P <subopt-table-idx...>` style is avoided — each line is
// `P <serialized plan>`), then one line per live instance entry
// (`I <plan-ordinal> <opt_cost> <subopt> <usage> <disabled> <d> <sv...>`).
#pragma once

#include <string>

#include "common/status.h"
#include "pqo/scr.h"
#include "query/query_template.h"

namespace scrpqo {

/// Upper bound on a snapshot entry's selectivity-vector dimension.
/// Templates carry one dimension per parameterized predicate, so real
/// snapshots stay far below this; anything larger is treated as
/// corruption (it would otherwise size an e.v.resize() allocation).
inline constexpr int64_t kMaxSnapshotDims = 256;

/// What a lenient (valid-prefix) restore kept and dropped.
struct SnapshotRestoreReport {
  int plans_restored = 0;
  int entries_restored = 0;
  /// Records dropped from the first corrupt line onward.
  int records_dropped = 0;
  /// Parse error of the first corrupt record (empty when nothing dropped).
  std::string first_error;
};

/// Serializes the live portion of the cache (plans + instance entries).
std::string SaveScrCache(const Scr& scr);

/// Parses a snapshot into its plan and instance-entry lists without
/// touching any Scr instance. Shared by LoadScrCache and the offline
/// guarantee auditor (verify/guarantee_audit.h), which wants the raw
/// records so it can report on entries Restore would reject. Every plan
/// must pass RecostProgram::Validate at the dimension of the instance
/// entries, so a snapshot with plans but no entries is rejected too.
Status ParseScrCacheSnapshot(const std::string& snapshot,
                             std::vector<PlanPtr>* plans,
                             std::vector<Scr::SnapshotEntry>* entries);

/// Lenient variant for crash/corruption recovery: keeps every record up
/// to the first malformed line, the first entry or plan that does not fit
/// `tmpl` (see LoadScrCache), or the first plan that fails the plan check
/// above (the valid prefix — what a crash mid-write or a flipped byte
/// leaves behind) and reports what was dropped instead of failing the
/// whole restore. Only the header must be intact, so a snapshot of another
/// template loads as a cold start.
Status ParseScrCacheSnapshotLenient(const std::string& snapshot,
                                    const QueryTemplate& tmpl,
                                    std::vector<PlanPtr>* plans,
                                    std::vector<Scr::SnapshotEntry>* entries,
                                    SnapshotRestoreReport* report);

/// Restores a snapshot into `scr`, which must be freshly constructed (its
/// cache empty), configured compatibly (same lambda family) and serve
/// `tmpl`. Returns InvalidArgument on malformed input or on a snapshot
/// that does not fit `tmpl`: every entry must have exactly
/// tmpl.dimensions() selectivities, and every plan must read the
/// template's tables (each leaf's table_index names the template table of
/// its `table`) and bind each parameterized predicate to a slot below
/// tmpl.dimensions() whose template predicate is on that leaf's table and
/// column. A snapshot saved from another template fails this even at the
/// same dimension: its plans read other tables.
Status LoadScrCache(const std::string& snapshot, const QueryTemplate& tmpl,
                    Scr* scr);

/// Valid-prefix restore (see ParseScrCacheSnapshotLenient); `scr` must be
/// fresh. Returns OK with a partial cache on mid-file corruption.
Status LoadScrCacheLenient(const std::string& snapshot,
                           const QueryTemplate& tmpl, Scr* scr,
                           SnapshotRestoreReport* report);

/// File convenience wrappers. Saving writes to a temporary file, checks
/// the stream, and atomically renames into place, so a crash mid-save
/// never leaves a truncated snapshot at `path`. Loading honors the
/// snapshot.truncate / snapshot.bitflip fault points (chaos testing).
Status SaveScrCacheToFile(const Scr& scr, const std::string& path);
Status LoadScrCacheFromFile(const std::string& path, const QueryTemplate& tmpl,
                            Scr* scr);
Status LoadScrCacheFromFileLenient(const std::string& path,
                                   const QueryTemplate& tmpl, Scr* scr,
                                   SnapshotRestoreReport* report);

}  // namespace scrpqo
