// Compile-time companion to tools/analyze/scrpqo_effects.py: the analyzer
// PROVES the hot kernels non-throwing over the project call graph, and the
// proof is then encoded in the type system as `noexcept` so callers (and
// std machinery like move-selection) can rely on it. These static_asserts
// pin the specifiers — if someone drops a noexcept, the build breaks here
// before the analyzer even runs. Compiles under both GCC and Clang (the
// two CI toolchains); there is nothing compiler-specific below.
//
// The runtime tests double-check the semantics the specifiers promise:
// a DecisionEvent round-trip through SpscEventRing::TryPush and a
// ComputeGlFast identity, so the annotated functions are also executed,
// not just named, in this TU.

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "obs/event_ring.h"
#include "optimizer/recost_program.h"

namespace scrpqo {
namespace {

// ---------------------------------------------------------------------------
// RecostProgram evaluation kernel.
// ---------------------------------------------------------------------------

static_assert(noexcept(std::declval<const RecostProgram&>().Run(
                  std::declval<const SVector&>(),
                  std::declval<const CostParams&>())),
              "RecostProgram::Run must stay noexcept: the effect analyzer "
              "proves it non-throwing (SCRPQO_NOTHROW) and RecostService's "
              "hot loop relies on it");

static_assert(noexcept(RecostStepOp(std::declval<const RecostProgram::Op&>(),
                                    1.0, std::declval<const double*>(),
                                    std::declval<const CostParams&>(),
                                    std::declval<double*>(),
                                    std::declval<double*>(),
                                    std::declval<int&>())),
              "RecostStepOp (Run's per-op dispatch) must stay noexcept");

// ---------------------------------------------------------------------------
// SPSC event ring producer path.
// ---------------------------------------------------------------------------

static_assert(noexcept(std::declval<SpscEventRing&>().TryPush(
                  std::declval<const DecisionEvent&>())),
              "SpscEventRing::TryPush must stay noexcept: it sits on the "
              "getPlan emit path and must never unwind mid-slot");

// TryPush's noexcept is only honest if copying a DecisionEvent into a slot
// cannot throw, and the emit path is only allocation-free if the copy is a
// fixed-size memberwise copy; pin both prerequisites.
static_assert(std::is_trivially_copyable_v<DecisionEvent>,
              "DecisionEvent must stay trivially copyable — TryPush's "
              "noexcept and the no-allocation emit path depend on it");
static_assert(sizeof(DecisionEvent) <= 128,
              "DecisionEvent must fit in two cache lines");

// ---------------------------------------------------------------------------
// G/L kernel.
// ---------------------------------------------------------------------------

static_assert(noexcept(ComputeGlFast(std::declval<const std::vector<double>&>(),
                                     std::declval<const std::vector<double>&>())),
              "ComputeGlFast must stay noexcept: it runs once per candidate "
              "inside Scr::TryReuse");

// ---------------------------------------------------------------------------
// Runtime smoke: the noexcept-pinned functions also behave.
// ---------------------------------------------------------------------------

TEST(EffectsContracts, TryPushRoundTripsEvent) {
  SpscEventRing ring(8);
  DecisionEvent ev;
  ev.technique = NameId::Intern("reuse");
  ev.instance_id = 42;
  ASSERT_TRUE(ring.TryPush(ev));
  std::vector<DecisionEvent> out;
  ASSERT_EQ(ring.DrainInto(&out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].instance_id, 42);
  EXPECT_EQ(out[0].technique.str(), "reuse");
}

TEST(EffectsContracts, ComputeGlFastIdentityIsUnit) {
  const std::vector<double> s{0.1, 0.5, 0.9, 0.25, 0.75};
  const GlFactors gl = ComputeGlFast(s, s);
  EXPECT_DOUBLE_EQ(gl.g, 1.0);
  EXPECT_DOUBLE_EQ(gl.l, 1.0);
}

TEST(EffectsContracts, ComputeGlFastSplitsRatios) {
  // One dimension doubles (goes into G), one halves (goes into L).
  const std::vector<double> from{0.2, 0.4};
  const std::vector<double> to{0.4, 0.2};
  const GlFactors gl = ComputeGlFast(from, to);
  EXPECT_DOUBLE_EQ(gl.g, 2.0);
  EXPECT_DOUBLE_EQ(gl.l, 2.0);
}

}  // namespace
}  // namespace scrpqo
