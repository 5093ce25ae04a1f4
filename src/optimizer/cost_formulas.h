// Per-operator cost arithmetic shared by every re-costing path:
// CostModel's recursive tree walk (optimization-time derivation and the
// RecostTree oracle) and RecostProgram's flat postorder scan. One source
// of truth means the flat-vs-tree property test only has to absorb
// multiplication-reordering noise in leaf-selectivity products (~1 ulp,
// bounded at 1e-9 relative), never a formula divergence.
//
// Every function returns output cardinality plus *cumulative* cost (the
// paper's Cost(P, q)); callers pass children as already-derived
// {rows, cost} pairs. Asymptotic shapes follow Section 5.4: scans linear,
// NLJ multiplicative, hash join additive, sort n log n with spill
// discontinuities above the memory grant.
//
// The max/min/select/log2 helpers are the double overloads in
// common/simd.h (plain ternaries and std::log2), and each conditional
// spill term adds a literal +0.0 on its untaken branch; keep both when
// editing, or the optimizer's costs stop matching earlier releases bit
// for bit.
#pragma once

#include "common/simd.h"
#include "optimizer/cost_model.h"

namespace scrpqo::cost_formulas {

/// Minimum cardinality used when clamping intermediate row counts.
constexpr double kMinRows = 1.0;

/// Output cardinality and cumulative cost of one operator. Trivially
/// constructible: formulas assign both fields before use.
struct Derived {
  double rows;
  double cost;  // cumulative
};

SCRPQO_VEC_INLINE Derived TableScan(const CostParams& p, double base_rows,
                                    double sel) {
  // Multiply by the reciprocal: the divide is off the dependency chain
  // (and CSE-able across operators).
  double pages = base_rows * (1.0 / static_cast<double>(p.rows_per_page));
  return {base_rows * sel,
          pages * p.io_per_page + base_rows * p.cpu_per_row};
}

/// `seek_sel` is the selectivity of the sargable predicate driving the
/// seek (1.0 for a parent-driven INLJ inner, which ignores this cost).
SCRPQO_VEC_INLINE Derived IndexSeek(const CostParams& p, double base_rows,
                                    double sel, double seek_sel) {
  double matching = VecMax(base_rows * seek_sel, 0.0);
  const double per_match =
      p.index_row_cpu + p.rid_lookup + p.cpu_per_row;
  return {base_rows * sel, p.seek_base + matching * per_match};
}

SCRPQO_VEC_INLINE Derived IndexScanOrdered(const CostParams& p,
                                           double base_rows, double sel) {
  const double per_row = p.index_row_cpu + p.rid_lookup + p.cpu_per_row;
  return {base_rows * sel, p.seek_base + base_rows * per_row};
}

SCRPQO_VEC_INLINE double SortCost(const CostParams& p, double rows) {
  rows = VecMax(rows, kMinRows);
  double cost = p.sort_per_row_log * rows * VecLog2(rows + 2.0);
  double pages = rows * (1.0 / static_cast<double>(p.rows_per_page));
  double spill = p.spill_io_factor * pages * p.io_per_page;
  return cost + VecSelectGt(rows, p.memory_rows, spill, 0.0);
}

SCRPQO_VEC_INLINE Derived Sort(const CostParams& p, const Derived& c0) {
  return {c0.rows, c0.cost + SortCost(p, c0.rows)};
}

SCRPQO_VEC_INLINE Derived HashJoin(const CostParams& p, double join_sel,
                                   const Derived& c0, const Derived& c1) {
  double probe = VecMax(c0.rows, 0.0);
  double build = VecMax(c1.rows, 0.0);
  Derived out;
  out.rows = probe * build * join_sel;
  double local = build * p.hash_build_per_row +
                 probe * p.hash_probe_per_row + out.rows * p.cpu_per_row;
  double pages =
      (build + probe) * (1.0 / static_cast<double>(p.rows_per_page));
  double spill = p.spill_io_factor * pages * p.io_per_page;
  local = local + VecSelectGt(build, p.memory_rows, spill, 0.0);
  out.cost = c0.cost + c1.cost + local;
  return out;
}

SCRPQO_VEC_INLINE Derived MergeJoin(const CostParams& p, double join_sel,
                                    const Derived& c0, const Derived& c1) {
  Derived out;
  out.rows = c0.rows * c1.rows * join_sel;
  double local = (c0.rows + c1.rows) * p.merge_per_row +
                 out.rows * p.cpu_per_row;
  out.cost = c0.cost + c1.cost + local;
  return out;
}

/// IndexedNLJ: the inner is a single-table leaf accessed via its index, so
/// only the outer child's cumulative cost is charged; the inner's
/// standalone derivation is ignored. `per_probe_matches` is
/// inner.base_rows * per_probe_sel (instance-independent); `inner_sel` is
/// the inner leaf's full predicate selectivity under the current sVector.
SCRPQO_VEC_INLINE Derived IndexedNlj(const CostParams& p, double join_sel,
                                     double per_probe_matches,
                                     double inner_base_rows,
                                     double inner_sel, const Derived& c0) {
  double outer_rows = VecMax(c0.rows, 0.0);
  const double per_match =
      p.index_row_cpu + p.rid_lookup + p.cpu_per_row;
  double probe_cost = 0.5 * p.seek_base + per_probe_matches * per_match;
  Derived out;
  out.rows = outer_rows * inner_base_rows * inner_sel * join_sel;
  double local = outer_rows * probe_cost + out.rows * p.cpu_per_row;
  out.cost = c0.cost + local;
  return out;
}

SCRPQO_VEC_INLINE Derived NaiveNlj(const CostParams& p, double join_sel,
                                   const Derived& c0, const Derived& c1) {
  double outer_rows = VecMax(c0.rows, kMinRows);
  Derived out;
  out.rows = c0.rows * c1.rows * join_sel;
  double local = outer_rows * c1.cost + out.rows * p.cpu_per_row;
  out.cost = c0.cost + c1.cost + local;
  return out;
}

SCRPQO_VEC_INLINE Derived HashAggregate(const CostParams& p,
                                        double group_distinct,
                                        const Derived& c0) {
  Derived out;
  out.rows = VecMin(group_distinct, VecMax(c0.rows, kMinRows));
  double local = c0.rows * p.hash_build_per_row + out.rows * p.cpu_per_row;
  double pages = c0.rows * (1.0 / static_cast<double>(p.rows_per_page));
  double spill = p.spill_io_factor * pages * p.io_per_page;
  local = local + VecSelectGt(out.rows, p.memory_rows, spill, 0.0);
  out.cost = c0.cost + local;
  return out;
}

SCRPQO_VEC_INLINE Derived StreamAggregate(const CostParams& p,
                                          double group_distinct,
                                          const Derived& c0) {
  Derived out;
  out.rows = VecMin(group_distinct, VecMax(c0.rows, kMinRows));
  out.cost = c0.cost + c0.rows * p.cpu_per_row;
  return out;
}

}  // namespace scrpqo::cost_formulas
