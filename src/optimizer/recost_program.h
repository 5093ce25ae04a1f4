// Flattened re-costing programs: the compiled, cache-friendly form of a
// CachedPlan's cost derivation.
//
// CostModel::RecostTree re-derives a cached plan by recursing over
// shared_ptr-linked PhysicalPlanNodes — a pointer chase per node, string
// and vector fields dragged through cache, and call-stack overhead on the
// hottest path in the system (every redundancy sweep re-costs every live
// plan; every cost check re-costs up to max_cost_check_candidates plans).
//
// RecostProgram::Compile walks the tree ONCE (at MakeCachedPlan time) and
// emits a postorder micro-op stream — one contiguous array of fixed-size
// Ops. Each op carries its operator kind plus the instance-independent
// constants its formula needs:
//
//   a / b / c      per-op coefficients
//                  (base_rows | join_sel | group_distinct | ...)
//   sel_lit        product of the leaf's literal-pred selectivities
//   sel_begin/end  range into the binding-slot table: the leaf's
//                  parameterized sVector indices
//   seek_slot      IndexSeek: sVector slot of the sargable seek predicate
//                  (-1 = constant, stored in c)
//
// Because the stream is postorder, Run needs no child indices at all: it
// evaluates the program like RPN on a tiny value stack (leaves push,
// unary ops rewrite the top, joins pop). IndexedNLJ is the exception: its
// inner leaf is elided at compile time — the formula ignores the inner's
// standalone derivation and this op carries the inner's base rows,
// per-probe matches, and binding slots itself — so it executes as a unary
// rewrite of the outer's slot. One linear scan over one
// allocation, values live at the stack top (registers, in practice), no
// recursion, no pointer chasing, and no heap traffic: the value stack is
// a fixed kMaxStackDepth-slot array on the C stack, a bound Compile
// enforces. The arithmetic itself is the shared cost_formulas.h, so the
// program is equivalent to RecostTree up to multiplication reordering in
// leaf-selectivity products (~1 ulp; the property test bounds it at 1e-9
// relative).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// The two value stacks (and the sVector) never alias; telling the
/// compiler removes store-forwarding stalls in the scan.
#if defined(__GNUC__) || defined(__clang__)
#define SCRPQO_RESTRICT __restrict__
#else
#define SCRPQO_RESTRICT
#endif

#include "common/effects.h"
#include "common/status.h"
#include "optimizer/cost_model.h"
#include "optimizer/physical_plan.h"
#include "query/query_instance.h"

namespace scrpqo {

class RecostProgram {
 public:
  /// Value-stack slots Run evaluates on. The scan holds at most one value
  /// per leaf (leaves push, joins pop, IndexedNLJ inners are elided), and
  /// an optimizer plan has at most kMaxPlanTables leaves.
  static constexpr int kMaxStackDepth = kMaxPlanTables;
  static_assert(kMaxStackDepth >= kMaxPlanTables,
                "every plan the optimizer can emit must fit Run's stack");

  RecostProgram() = default;

  /// Flattens `root` into a postorder micro-op stream. Instance-independent
  /// metadata is folded into per-op coefficients; CostParams stay a
  /// Run-time input so one compiled program serves any cost model (and
  /// compilation needs no CostModel handle at MakeCachedPlan time).
  /// Aborts on a plan Validate rejects (for any dimension count): a plan
  /// from untrusted bytes must be validated first.
  static RecostProgram Compile(const PhysicalPlanNode& root);

  /// Checks that `root` is a plan Compile accepts and whose program Run
  /// can evaluate against a `dims`-dimensional sVector: every operator
  /// has the children its kind needs, every seek_pred indexes into its
  /// leaf's preds, every param_slot is -1 (literal) or in [0, dims), and
  /// the scan needs at most kMaxStackDepth stack slots. The same holds
  /// for CostModel::RecostTree on the plan. Returns InvalidArgument
  /// naming the first violation.
  static Status Validate(const PhysicalPlanNode& root, int dims);

  /// One postorder micro-op. Doubles first so the struct packs to 48 bytes
  /// with no interior padding — the whole stream is a dense sequential
  /// read.
  struct Op {
    // Meaning by kind:            a                b                  c
    //   TableScan/IndexScanOrd    base_rows        -                  -
    //   IndexSeek                 base_rows        -                  const seek_sel
    //   HashJoin/MergeJoin/NNLJ   join_sel         -                  -
    //   IndexedNLJ                join_sel         per_probe_matches  inner base_rows
    //   Hash/StreamAggregate      group_distinct   -                  -
    double a = 0.0;
    double b = 0.0;
    double c = 0.0;
    double sel_lit = 1.0;
    uint32_t sel_begin = 0;
    uint32_t sel_end = 0;
    int32_t seek_slot = -1;
    uint8_t kind = 0;
  };

  /// True for a default-constructed (never compiled) program, which Run
  /// refuses.
  bool empty() const { return ops_.empty(); }

  /// Op count. At most the plan's node count — INLJ inner leaves are
  /// elided at compile time.
  int num_nodes() const { return static_cast<int>(ops_.size()); }

  /// Highest sVector slot the program binds; -1 when fully literal.
  int max_binding_slot() const { return max_slot_; }

  /// Binding-slot table length (entries referenced by the ops' sel
  /// ranges).
  int num_binding_slots() const { return static_cast<int>(slots_.size()); }

  /// Heap bytes held by the compiled op stream + binding-slot table (for
  /// cache-memory budgeting; see Scr::EstimatedMemoryBytes). Compile
  /// shrinks both buffers to fit, so capacity here equals size and the
  /// figure is exact, not a growth-policy overshoot that would inflate
  /// PqoManager's global_memory_bytes eviction pressure.
  int64_t memory_bytes() const {
    return static_cast<int64_t>(ops_.capacity() * sizeof(Op)) +
           static_cast<int64_t>(slots_.capacity() * sizeof(int32_t));
  }

  static constexpr std::size_t kOpBytes = sizeof(Op);

  /// Cost(P, q) for selectivity vector `sv` — one linear scan. Defined
  /// inline below so RecostService and the benches inline the whole
  /// kernel into their call sites. noexcept: proved non-throwing by the
  /// effect analyzer (SCRPQO_NOTHROW on the definition); a failed
  /// SCRPQO_CHECK aborts, it does not throw.
  double Run(const SVector& sv, const CostParams& params) const noexcept;

 private:
  /// Compiles `root` into `out` (fresh) and checks the stack bound; the
  /// shared body of Compile and Validate.
  static Status Build(const PhysicalPlanNode& root, RecostProgram* out);
  /// Appends `node`'s subtree in postorder, checking each operator.
  Status Emit(const PhysicalPlanNode& node);

  std::vector<Op> ops_;
  std::vector<int32_t> slots_;
  int max_slot_ = -1;
};

}  // namespace scrpqo

// Run lives in the header so callers inline the full kernel: the
// whole point of the flat form is a branch-light scan, and a call barrier
// at every Recost would forfeit a measurable slice of the win on the
// 5-10 node plans the paper's templates produce.
#include "optimizer/recost_program_run.h"
