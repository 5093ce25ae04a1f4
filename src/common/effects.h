// Effect-contract annotations for the static analyzer
// (tools/analyze/scrpqo_effects.py). See DESIGN.md §4j.
//
// The macros declare *transitive* contracts on a function: the analyzer
// extracts the project call graph, computes an effect lattice per function
// (ALLOCATES / LOCKS / BLOCKS / THROWS / FP_NONDET), and proves that no
// effect forbidden by a contract is reachable from the annotated
// definition through any callee chain. Violations fail CI with a
// shortest-path call-chain witness.
//
// Placement: annotate the *definition* (the analyzer indexes bodies), in
// leading position:
//
//   SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING
//   bool TryReuseFast(const WorkloadInstance& wi, ...) { ... }
//
// The macros expand to nothing on every compiler: the analyzer reads the
// macro tokens from the source, so the contracts are enforced regardless
// of toolchain.
#pragma once

/// Marks a function as part of the warmed getPlan serving path. Purely a
/// registry/reporting tag: the analyzer lists SCRPQO_HOT roots in its
/// findings JSON and warns when one carries no effect contract at all.
#define SCRPQO_HOT

/// No heap allocation is reachable: no new/malloc/make_unique, no
/// std-container growth, transitively through every callee. Arena bumps
/// are fine — ScratchArena::Allocate carries the one sanctioned
/// SCRPQO_EFFECT_ALLOW(alloc) for its amortized chunk growth.
#define SCRPQO_NOALLOC

/// No unbounded wait is reachable: no sleep, condvar wait, thread join,
/// or blocking I/O syscall. Bounded-critical-section mutex acquisition is
/// governed separately by SCRPQO_LOCK_BOUNDED.
#define SCRPQO_NONBLOCKING

/// Every reachable floating-point operation is reproducible across the
/// runtime dispatch tiers (scalar / AVX2 / AVX-512): no fenv access, no
/// randomness, no raw SIMD intrinsics outside the sanctioned TUs, and no
/// raw libm transcendentals outside src/common/simd.h's Vec* wrappers
/// (the single definition every tier funnels through).
#define SCRPQO_FP_DETERMINISTIC

/// No throw is reachable (SCRPQO_CHECK aborts, it does not throw, so
/// [[noreturn]] abort paths are excluded). Functions proved SCRPQO_NOTHROW
/// are the ones allowed to carry `noexcept` on the hot path; the analyzer
/// keeps the proof honest as callees evolve.
#define SCRPQO_NOTHROW

/// The transitive set of lock capabilities this function may acquire is
/// limited to the named ones (scrpqo::Mutex / SharedMutex members, by
/// field name — cross-checked against the Clang TSA CAPABILITY
/// annotations and the DESIGN §4g lock-order DAG). An empty list means
/// the function acquires no locks at all.
#define SCRPQO_LOCK_BOUNDED(...)

/// Sanctioned escape hatch. `rule` is one of the analyzer's rules: an
/// effect rule (alloc/lock/block/throw/fp) or a lexical one
/// (atomic-order, blocking-under-lock, tracer-record-outside-obs,
/// nodiscard-status, raw-mutex). `justification` must be a non-empty
/// string literal naming *why* the exception is acceptable — the analyzer
/// hard-fails on an empty one, so an escape can never be silent.
/// Placement decides scope:
///   - on a function's signature (between the declarator and `{`, or on a
///     leading line): sanctions that rule for the whole function and, for
///     an effect rule, stops traversal into its callees;
///   - on its own line inside a body: sanctions that rule on the next
///     non-blank line only;
///   - trailing a statement: sanctions that rule on that line only.
/// Expands to nothing on every compiler; the analyzer parses the source.
#define SCRPQO_EFFECT_ALLOW(rule, justification)
