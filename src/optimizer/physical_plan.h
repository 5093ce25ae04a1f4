// Physical execution plans. A plan is a tree of PhysicalPlanNode; nodes
// carry enough instance-independent metadata that the same tree can be
// (a) re-costed for a different query instance (the Recost API) and
// (b) executed for a different query instance (parameter slots are bound at
// execution time). This mirrors the paper's shrunkenMemo design
// (Appendix B): a cacheable plan representation supporting cheap bottom-up
// cardinality and cost re-derivation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "expr/predicate.h"
#include "expr/value.h"
#include "query/query_template.h"

namespace scrpqo {

enum class PhysicalOpKind {
  kTableScan,
  kIndexSeek,
  kIndexScanOrdered,
  kSort,
  kHashJoin,          // left = probe, right = build
  kMergeJoin,
  kIndexedNestedLoopsJoin,  // left = outer, right = inner (single table)
  kNaiveNestedLoopsJoin,    // left = outer, right = rescanned inner subplan
  kHashAggregate,
  kStreamAggregate,
};

std::string PhysicalOpName(PhysicalOpKind kind);

/// Most base tables one query (and so one plan) may read. The optimizer
/// enforces it, because its memo keys table subsets as 32-bit sets.
/// RecostProgram sizes its value stack from it: a postorder scan holds at
/// most one value per leaf.
inline constexpr int kMaxPlanTables = 20;

/// Output (or required) sort order: a single base-table column. Identified
/// by the template's table index, so the key survives joins.
struct SortKey {
  int table = -1;
  std::string column;

  bool operator==(const SortKey& other) const {
    return table == other.table && column == other.column;
  }
  bool operator<(const SortKey& other) const {
    if (table != other.table) return table < other.table;
    return column < other.column;
  }
  std::string ToString() const {
    return "t" + std::to_string(table) + "." + column;
  }
};

/// \brief One filter predicate attached to a leaf, with everything needed
/// to (re)bind and (re)estimate it per query instance.
struct PredSpec {
  std::string column;
  CompareOp op = CompareOp::kLe;
  /// kNoParamSlot for literal predicates.
  int param_slot = kNoParamSlot;
  /// Fixed value for literal predicates (ignored when parameterized).
  Value literal;
  /// Estimated selectivity of a literal predicate (instance-independent);
  /// parameterized predicates read sVector[param_slot] instead.
  double literal_sel = 1.0;

  bool parameterized() const { return param_slot != kNoParamSlot; }
};

/// Instance-independent metadata for leaf access paths.
struct LeafInfo {
  int table_index = -1;
  std::string table;
  double base_rows = 0.0;
  std::vector<PredSpec> preds;
  /// IndexSeek / IndexScanOrdered: the index column; `seek_pred` indexes
  /// into `preds` for the sargable predicate driving the seek (-1 for a
  /// full ordered index scan).
  std::string index_column;
  int seek_pred = -1;
};

/// Instance-independent metadata for join operators.
struct JoinInfo {
  /// Equi-join edges this operator applies (first edge is the hash/merge/
  /// seek key; the rest are residual filters).
  std::vector<JoinEdge> edges;
  /// Product of edge selectivities (assumed instance-independent, paper
  /// Section 5.2 footnote 4).
  double join_sel = 1.0;
  /// IndexedNestedLoopsJoin: expected fraction of the inner table fetched
  /// per probe ( = 1 / distinct(inner key) ).
  double per_probe_sel = 1.0;
};

struct AggInfo {
  int group_table = -1;
  std::string group_column;
  /// Distinct count of the grouping column (cap for output cardinality).
  double group_distinct = 1.0;
};

struct PhysicalPlanNode;
using PlanPtr = std::shared_ptr<const PhysicalPlanNode>;

struct PhysicalPlanNode {
  PhysicalOpKind kind = PhysicalOpKind::kTableScan;
  std::vector<PlanPtr> children;

  LeafInfo leaf;            // leaf kinds
  JoinInfo join;            // join kinds
  AggInfo agg;              // aggregate kinds
  SortKey sort_key;         // kSort

  /// Sort order of the output, when any (drives merge join / stream agg).
  std::optional<SortKey> output_order;

  // Derived for a specific sVector by CostModel::DerivePlan. For plans
  // returned by the optimizer these reflect the instance that was optimized.
  double est_rows = 0.0;
  double est_cost = 0.0;        // cumulative (includes children)
  double est_local_cost = 0.0;  // this operator only

  bool is_leaf() const {
    return kind == PhysicalOpKind::kTableScan ||
           kind == PhysicalOpKind::kIndexSeek ||
           kind == PhysicalOpKind::kIndexScanOrdered;
  }
  bool is_join() const {
    return kind == PhysicalOpKind::kHashJoin ||
           kind == PhysicalOpKind::kMergeJoin ||
           kind == PhysicalOpKind::kIndexedNestedLoopsJoin ||
           kind == PhysicalOpKind::kNaiveNestedLoopsJoin;
  }

  /// Total number of nodes in the subtree.
  int NodeCount() const;

  /// Multi-line indented rendering (EXPLAIN-style).
  std::string ToString(int indent = 0) const;
};

}  // namespace scrpqo
