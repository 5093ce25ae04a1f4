// Inline definition of the RecostProgram evaluation kernel. Included at
// the bottom of recost_program.h — never include this file directly.
//
// The program is postorder, so evaluation is RPN on a tiny value stack:
// leaves push a {rows, cost} pair, unary ops rewrite the top, joins pop
// (except IndexedNLJ, whose elided inner makes it unary).
// The stack top stays in registers for the plan shapes the optimizer
// emits, and the op stream is one dense sequential read.
#pragma once

#include "common/status.h"
#include "optimizer/cost_formulas.h"
#include "optimizer/recost_program.h"

namespace scrpqo {

/// Executes one micro-op against a value-stack pair. `sel` is the already
/// computed leaf selectivity (folded literals times bound slots).
SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING SCRPQO_FP_DETERMINISTIC
SCRPQO_NOTHROW SCRPQO_LOCK_BOUNDED()
SCRPQO_VEC_INLINE void RecostStepOp(const RecostProgram::Op& op, double sel,
                                    const double* SCRPQO_RESTRICT s,
                                    const CostParams& params,
                                    double* SCRPQO_RESTRICT rows_stk,
                                    double* SCRPQO_RESTRICT cost_stk,
                                    int& sp) noexcept {
  namespace cf = cost_formulas;
  cf::Derived out{};  // zeroed here: Derived has no member initializers
  switch (static_cast<PhysicalOpKind>(op.kind)) {
    case PhysicalOpKind::kTableScan:
      out = cf::TableScan(params, op.a, sel);
      break;
    case PhysicalOpKind::kIndexSeek: {
      double seek_sel = op.seek_slot >= 0 ? s[op.seek_slot] : op.c;
      out = cf::IndexSeek(params, op.a, sel, seek_sel);
      break;
    }
    case PhysicalOpKind::kIndexScanOrdered:
      out = cf::IndexScanOrdered(params, op.a, sel);
      break;
    case PhysicalOpKind::kSort:
      out = cf::Sort(params, {rows_stk[sp - 1], cost_stk[sp - 1]});
      rows_stk[sp - 1] = out.rows;
      cost_stk[sp - 1] = out.cost;
      return;
    case PhysicalOpKind::kHashJoin:
      --sp;
      out = cf::HashJoin(params, op.a,
                         {rows_stk[sp - 1], cost_stk[sp - 1]},
                         {rows_stk[sp], cost_stk[sp]});
      rows_stk[sp - 1] = out.rows;
      cost_stk[sp - 1] = out.cost;
      return;
    case PhysicalOpKind::kMergeJoin:
      --sp;
      out = cf::MergeJoin(params, op.a,
                          {rows_stk[sp - 1], cost_stk[sp - 1]},
                          {rows_stk[sp], cost_stk[sp]});
      rows_stk[sp - 1] = out.rows;
      cost_stk[sp - 1] = out.cost;
      return;
    case PhysicalOpKind::kIndexedNestedLoopsJoin:
      // Unary in the flat form: the inner leaf was elided at compile
      // time (its standalone derivation is ignored by the formula), so
      // this rewrites the outer child's slot in place.
      out = cf::IndexedNlj(params, op.a, op.b, op.c, sel,
                           {rows_stk[sp - 1], cost_stk[sp - 1]});
      rows_stk[sp - 1] = out.rows;
      cost_stk[sp - 1] = out.cost;
      return;
    case PhysicalOpKind::kNaiveNestedLoopsJoin:
      --sp;
      out = cf::NaiveNlj(params, op.a,
                         {rows_stk[sp - 1], cost_stk[sp - 1]},
                         {rows_stk[sp], cost_stk[sp]});
      rows_stk[sp - 1] = out.rows;
      cost_stk[sp - 1] = out.cost;
      return;
    case PhysicalOpKind::kHashAggregate:
      out = cf::HashAggregate(params, op.a,
                              {rows_stk[sp - 1], cost_stk[sp - 1]});
      rows_stk[sp - 1] = out.rows;
      cost_stk[sp - 1] = out.cost;
      return;
    case PhysicalOpKind::kStreamAggregate:
      out = cf::StreamAggregate(params, op.a,
                                {rows_stk[sp - 1], cost_stk[sp - 1]});
      rows_stk[sp - 1] = out.rows;
      cost_stk[sp - 1] = out.cost;
      return;
  }
  // Leaf push (the switch falls through here only for leaf kinds).
  rows_stk[sp] = out.rows;
  cost_stk[sp] = out.cost;
  ++sp;
}

SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING SCRPQO_FP_DETERMINISTIC
SCRPQO_NOTHROW SCRPQO_LOCK_BOUNDED()
inline double RecostProgram::Run(const SVector& sv,
                                 const CostParams& params) const noexcept {
  SCRPQO_CHECK(!empty(), "Run on an empty (uncompiled) recost program");
  SCRPQO_CHECK(max_slot_ < static_cast<int>(sv.size()),
               "selectivity vector too short for recost program");
  // Compile proved the scan never holds more than kMaxStackDepth values.
  double rows_stk[kMaxStackDepth];
  double cost_stk[kMaxStackDepth];
  // Hoisted raw pointers: the compiler cannot otherwise prove the stack
  // stores don't alias the program's own buffers and would reload them
  // every op.
  const Op* const ops = ops_.data();
  const size_t n = ops_.size();
  const int32_t* const slots = slots_.data();
  const double* const s = sv.data();
  int sp = 0;
  for (size_t i = 0; i < n; ++i) {
    const Op& op = ops[i];
    // Leaf (and INLJ-inner) selectivity: folded literal product times the
    // bound sVector slots. Non-leaf ops have an empty range.
    double sel = op.sel_lit;
    for (uint32_t k = op.sel_begin; k != op.sel_end; ++k) {
      sel *= s[slots[k]];
    }
    RecostStepOp(op, sel, s, params, rows_stk, cost_stk, sp);
  }
  return cost_stk[0];
}

}  // namespace scrpqo
