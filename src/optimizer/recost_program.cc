#include "optimizer/recost_program.h"

#include <algorithm>
#include <string>

#include "common/status.h"

namespace scrpqo {

namespace {

Status Invalid(const std::string& msg) {
  return Status::InvalidArgument("plan cannot be recosted: " + msg);
}

/// Checks the leaf's predicate slots and seek predicate — everything the
/// flat program and the tree walker index with.
Status CheckLeaf(const LeafInfo& leaf) {
  for (const PredSpec& pred : leaf.preds) {
    if (pred.param_slot < kNoParamSlot) {
      return Invalid("negative param slot " +
                     std::to_string(pred.param_slot));
    }
  }
  if (leaf.seek_pred < -1 ||
      leaf.seek_pred >= static_cast<int>(leaf.preds.size())) {
    return Invalid("seek_pred " + std::to_string(leaf.seek_pred) +
                   " outside the leaf's " +
                   std::to_string(leaf.preds.size()) + " predicates");
  }
  return Status::OK();
}

/// Children an operator of `kind` takes.
size_t ChildCount(PhysicalOpKind kind) {
  switch (kind) {
    case PhysicalOpKind::kTableScan:
    case PhysicalOpKind::kIndexSeek:
    case PhysicalOpKind::kIndexScanOrdered:
      return 0;
    case PhysicalOpKind::kSort:
    case PhysicalOpKind::kHashAggregate:
    case PhysicalOpKind::kStreamAggregate:
      return 1;
    case PhysicalOpKind::kHashJoin:
    case PhysicalOpKind::kMergeJoin:
    case PhysicalOpKind::kIndexedNestedLoopsJoin:
    case PhysicalOpKind::kNaiveNestedLoopsJoin:
      return 2;
  }
  return 0;
}

/// Appends the leaf's parameterized binding slots to `slots` (in predicate
/// order) and returns the product of its literal-pred selectivities.
/// Splitting literals from parameterized slots lets Run fold all literal
/// factors at compile time; the reordering shifts the product by ~1 ulp
/// relative to LeafSelectivity's interleaved order, which the equivalence
/// tolerance absorbs.
double AppendBinding(const LeafInfo& leaf, std::vector<int32_t>* slots,
                     int* max_slot) {
  double lit = 1.0;
  for (const PredSpec& pred : leaf.preds) {
    if (pred.parameterized()) {
      slots->push_back(pred.param_slot);
      *max_slot = std::max(*max_slot, pred.param_slot);
    } else {
      lit *= pred.literal_sel;
    }
  }
  return lit;
}

}  // namespace

Status RecostProgram::Emit(const PhysicalPlanNode& node) {
  const size_t arity = ChildCount(node.kind);
  if (node.children.size() != arity) {
    return Invalid(PhysicalOpName(node.kind) + " has " +
                   std::to_string(node.children.size()) +
                   " children, needs " + std::to_string(arity));
  }
  for (const PlanPtr& child : node.children) {
    if (child == nullptr) return Invalid("null child");
  }
  // Postorder: children first, so their {rows, cost} sit on the value
  // stack when the parent op executes. The INLJ inner leaf is elided
  // entirely: its standalone derivation is popped-but-ignored by the tree
  // walker, and the INLJ op below carries every inner quantity the formula
  // needs (base rows, per-probe matches, binding slots) — so skipping it
  // is bitwise identical and drops a whole leaf derivation (including its
  // selectivity product) from the hot scan.
  if (arity >= 1) SCRPQO_RETURN_NOT_OK(Emit(*node.children[0]));
  if (arity == 2 && node.kind != PhysicalOpKind::kIndexedNestedLoopsJoin) {
    SCRPQO_RETURN_NOT_OK(Emit(*node.children[1]));
  }

  Op op;
  op.kind = static_cast<uint8_t>(node.kind);
  op.sel_begin = static_cast<uint32_t>(slots_.size());

  switch (node.kind) {
    case PhysicalOpKind::kTableScan:
    case PhysicalOpKind::kIndexScanOrdered:
      SCRPQO_RETURN_NOT_OK(CheckLeaf(node.leaf));
      op.a = node.leaf.base_rows;
      op.sel_lit = AppendBinding(node.leaf, &slots_, &max_slot_);
      break;
    case PhysicalOpKind::kIndexSeek: {
      const LeafInfo& leaf = node.leaf;
      SCRPQO_RETURN_NOT_OK(CheckLeaf(leaf));
      op.a = leaf.base_rows;
      op.sel_lit = AppendBinding(leaf, &slots_, &max_slot_);
      // seek_pred == -1 (parent-driven INLJ inner) derives with the full
      // index walk's seek_sel = 1, matching the tree walker.
      op.c = 1.0;
      if (leaf.seek_pred >= 0) {
        const PredSpec& pred =
            leaf.preds[static_cast<size_t>(leaf.seek_pred)];
        if (pred.parameterized()) {
          op.seek_slot = pred.param_slot;
          max_slot_ = std::max(max_slot_, pred.param_slot);
        } else {
          op.c = pred.literal_sel;
        }
      }
      break;
    }
    case PhysicalOpKind::kSort:
      break;
    case PhysicalOpKind::kHashJoin:
    case PhysicalOpKind::kMergeJoin:
    case PhysicalOpKind::kNaiveNestedLoopsJoin:
      op.a = node.join.join_sel;
      break;
    case PhysicalOpKind::kIndexedNestedLoopsJoin: {
      const PhysicalPlanNode& inner_node = *node.children[1];
      if (!inner_node.is_leaf() || !inner_node.children.empty()) {
        return Invalid("IndexedNLJ inner must be a single-table leaf");
      }
      // The tree walker still derives the inner standalone, so its seek
      // predicate is checked although this program never reads it.
      SCRPQO_RETURN_NOT_OK(CheckLeaf(inner_node.leaf));
      // The inner leaf's binding lives on this op: the INLJ formula needs
      // the inner's full predicate selectivity (to rebind parameterized
      // inner predicates on Recost). The inner leaf itself was never
      // emitted — its standalone derivation is ignored by the formula, so
      // this op executes as a unary rewrite of the outer's stack slot.
      const LeafInfo& inner = inner_node.leaf;
      op.a = node.join.join_sel;
      op.b = inner.base_rows * node.join.per_probe_sel;
      op.c = inner.base_rows;
      op.sel_lit = AppendBinding(inner, &slots_, &max_slot_);
      break;
    }
    case PhysicalOpKind::kHashAggregate:
    case PhysicalOpKind::kStreamAggregate:
      op.a = node.agg.group_distinct;
      break;
  }

  op.sel_end = static_cast<uint32_t>(slots_.size());
  ops_.push_back(op);
  return Status::OK();
}

Status RecostProgram::Build(const PhysicalPlanNode& root,
                            RecostProgram* out) {
  SCRPQO_RETURN_NOT_OK(out->Emit(root));
  // Peak value-stack depth of the scan: leaves push, two-input joins pop
  // (IndexedNLJ is unary here), everything else rewrites the top.
  int depth = 0;
  int peak = 0;
  for (const Op& op : out->ops_) {
    switch (static_cast<PhysicalOpKind>(op.kind)) {
      case PhysicalOpKind::kTableScan:
      case PhysicalOpKind::kIndexSeek:
      case PhysicalOpKind::kIndexScanOrdered:
        ++depth;
        peak = std::max(peak, depth);
        break;
      case PhysicalOpKind::kHashJoin:
      case PhysicalOpKind::kMergeJoin:
      case PhysicalOpKind::kNaiveNestedLoopsJoin:
        --depth;
        break;
      default:
        break;
    }
  }
  if (peak > kMaxStackDepth) {
    return Invalid("scan needs " + std::to_string(peak) +
                   " value-stack slots, more than kMaxStackDepth (" +
                   std::to_string(kMaxStackDepth) + ")");
  }
  return Status::OK();
}

RecostProgram RecostProgram::Compile(const PhysicalPlanNode& root) {
  RecostProgram program;
  const Status built = Build(root, &program);
  SCRPQO_CHECK(built.ok(), built.message());
  // Emit grows by push_back, so capacity can be up to 2x size. Compiled
  // programs are immutable from here on and live for the cache lifetime of
  // their plan; shrinking makes memory_bytes() exact instead of a
  // growth-policy overshoot (which inflated PqoManager's
  // global_memory_bytes eviction pressure).
  program.ops_.shrink_to_fit();
  program.slots_.shrink_to_fit();
  return program;
}

Status RecostProgram::Validate(const PhysicalPlanNode& root, int dims) {
  RecostProgram program;
  SCRPQO_RETURN_NOT_OK(Build(root, &program));
  if (program.max_slot_ >= dims) {
    return Invalid("param slot " + std::to_string(program.max_slot_) +
                   " outside a " + std::to_string(dims) +
                   "-dimensional selectivity vector");
  }
  return Status::OK();
}

}  // namespace scrpqo
