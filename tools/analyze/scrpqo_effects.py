#!/usr/bin/env python3
"""Static analyzer for the scrpqo tree: lexical rules, effect contracts.

Path-scoped rules check each line of the files in their path scope
(blocking-under-lock also follows the calls made on those lines):

  atomic-order               src/pqo/, src/obs/: every std::atomic
                             load/store/exchange/fetch_*/CAS names an
                             explicit std::memory_order. A bare `x.load()`
                             buys a seq_cst fence on the getPlan path; use
                             RelaxedCounter (Store/Add/value) or say the
                             order.
  blocking-under-lock        src/pqo/: no engine Optimize, sink
                             Consume/Flush, stream/file I/O, sleep or
                             thread join while a scoped guard's lock scope
                             is active, and no condition-variable wait on a
                             mutex other than the held ones. A call made in
                             such a scope is a finding when its callee
                             reaches a `block` effect or
                             EngineContext::Optimize over the call graph
                             (reported with a shortest-chain witness). A
                             template or shard lock held across an
                             optimizer call serializes that template.
  tracer-record-outside-obs  src/ outside src/obs/: RingTracer::Record is
                             called only through EmitDecisionEvent
                             (obs/emit.h), so capture policy has one funnel.
  nodiscard-status           src/common/: every class/struct named Status
                             or Result carries [[nodiscard]].
  raw-mutex                  src/ outside common/thread_annotations.h: no
                             raw std mutex, condition variable or lock
                             adapter, which the thread-safety analysis
                             cannot see, and no manual Lock()/Unlock()/
                             LockShared()/UnlockShared(): a hand-managed
                             scope is one blocking-under-lock cannot see.

Effect rules prove transitive contracts over the project call graph. The
analyzer extracts every function definition under src/, computes a direct
effect lattice per function, propagates effects along call edges, and
verifies the contracts declared with the src/common/effects.h macros:

  SCRPQO_NOALLOC           rule `alloc`  no reachable heap allocation
  SCRPQO_NONBLOCKING       rule `block`  no reachable sleep/IO/condvar wait
  SCRPQO_NOTHROW           rule `throw`  no reachable throw (aborts excluded)
  SCRPQO_FP_DETERMINISTIC  rule `fp`     no reachable fenv/rand/raw-libm
                                         transcendental or raw intrinsic
                                         outside the sanctioned SIMD TUs
  SCRPQO_LOCK_BOUNDED(...) rule `lock`   reachable lock acquisitions limited
                                         to the named capabilities
  SCRPQO_HOT               registry tag: listed in the findings JSON;
                                         warns when carrying no contract

Every violation of a contract is reported with a shortest call-chain
witness from the annotated root to the offending effect site. Beyond the
contracts the analyzer verifies that every SCRPQO_LOCK_BOUNDED capability
names a declared Mutex/SharedMutex member, that the TSA ACQUIRED_BEFORE
edges and the DESIGN.md §4g lock-order DAG have an acyclic union, and that
no TU is compiled with -ffast-math / -funsafe-math-optimizations.

Escapes are `SCRPQO_EFFECT_ALLOW(rule, "justification")` markers, for any
of the ten rules. The justification must be a non-empty string literal and
the rule must exist, or the marker is itself a gating finding (rule
`allow`). A marker on a function's signature sanctions the rule for the
whole function (for an effect rule it also stops traversal into the
function); a marker on its own line covers the next non-blank line;
trailing a statement it covers that line.

Self-test: the fixtures under testdata/ mark each seeded violation with
`// effects-expect(<rule>)`; a fixture path under testdata/src/<dir>/ is
checked as if it sat in src/<dir>/. `--self-test` requires exactly the
expected findings, one seeded violation and one silent sanctioned allow
per rule, a configuration error for a missing compilation database, and
that `-p` reads a build directory's compile_commands.json.

Usage:
  scrpqo_effects.py --root <repo> [-p <build dir | compile_commands.json>]
                    [--json out.json]
  scrpqo_effects.py --self-test
Exit status: 0 = clean, 1 = findings, 2 = usage/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from collections import deque
from dataclasses import dataclass, field

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "testdata")

RULES = ("alloc", "lock", "block", "throw", "fp")

CONTRACT_FOR_RULE = {
    "alloc": "SCRPQO_NOALLOC",
    "block": "SCRPQO_NONBLOCKING",
    "throw": "SCRPQO_NOTHROW",
    "fp": "SCRPQO_FP_DETERMINISTIC",
    "lock": "SCRPQO_LOCK_BOUNDED",
}

EXPECT_RE = re.compile(r"//\s*effects-expect\(([a-z-]+)\)")

# ---------------------------------------------------------------------------
# Effect models (what the std library / platform does).
# ---------------------------------------------------------------------------

# Owning std types whose growth/mutating methods allocate.
STD_CONTAINERS = {
    "vector", "deque", "list", "map", "set", "multimap", "multiset",
    "unordered_map", "unordered_set", "unordered_multimap", "string",
    "basic_string", "queue", "priority_queue", "stack", "function",
    "ostringstream", "stringstream", "istringstream", "stringbuf",
}
ALLOC_METHODS = {
    "push_back", "emplace_back", "emplace", "emplace_front", "push_front",
    "insert", "insert_or_assign", "try_emplace", "resize", "reserve",
    "assign", "append", "push", "str",
}
STD_ALLOC_FUNCS = {
    "make_unique", "make_shared", "to_string", "stable_sort",
    "inplace_merge", "malloc", "calloc", "realloc", "strdup",
    "aligned_alloc",
}
STD_BLOCK_FUNCS = {
    "sleep_for", "sleep_until", "sleep", "usleep", "nanosleep",
    "fopen", "fread", "fwrite", "fclose", "fflush", "fsync", "fdatasync",
    "open", "read", "write", "pread", "pwrite", "getline",
    "printf", "fprintf", "puts", "fputs", "system", "popen",
    "accept", "recv", "recvfrom", "send", "sendto", "connect", "listen",
    "poll", "select", "epoll_wait",
}
BLOCK_METHODS = {"Wait", "WaitFor", "wait", "wait_for", "wait_until", "join"}
STD_THROW_FUNCS = {
    "stoi", "stol", "stoll", "stoul", "stoull", "stof", "stod", "stold",
    "at", "value",
}
FP_FENV_FUNCS = {
    "fesetround", "fegetround", "feclearexcept", "feraiseexcept",
    "fetestexcept", "fegetenv", "fesetenv", "feholdexcept", "feupdateenv",
}
FP_RAND_FUNCS = {"rand", "srand", "random", "drand48", "lrand48"}
# Correctly-rounded IEEE ops (sqrt, fabs, fma, ...) are reproducible;
# these are the libm calls whose results may differ between libms /
# vector paths, so they are only allowed inside src/common/simd.h where
# every caller funnels through one definition.
FP_LIBM_TRANSCENDENTALS = {
    "exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "pow",
    "sin", "cos", "tan", "asin", "acos", "atan", "atan2",
    "sinh", "cosh", "tanh", "erf", "erfc", "tgamma", "lgamma", "cbrt",
}
INTRINSIC_RE = re.compile(r"\b(?:_mm\d*_\w+|vmulq_\w+|vaddq_\w+|vfmaq_\w+|"
                          r"vld1q_\w+|vst1q_\w+|vmaxq_\w+|vbslq_\w+)\b")
# TUs sanctioned to contain raw intrinsics.
FP_INTRINSIC_SANCTIONED = ("src/common/simd.h",)
# Files sanctioned to call raw libm transcendentals (the Vec* wrappers).
FP_LIBM_SANCTIONED = ("src/common/simd.h",)

GUARD_TYPES = {"MutexLock", "ReaderMutexLock", "WriterMutexLock"}
MUTEX_TYPES = {"Mutex", "SharedMutex"}
LOCK_METHODS = {"Lock", "LockShared"}

# Macro invocations whose argument list is only evaluated on an abort
# path (the check fails -> [[noreturn]] CheckFailed). Effects inside do
# not count against contracts.
ABORT_MACROS = {"SCRPQO_CHECK", "SCRPQO_DCHECK", "assert", "static_assert"}

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof",
    "alignof", "decltype", "else", "do", "case",
    "static_cast", "reinterpret_cast", "const_cast", "dynamic_cast",
}

# Tokens that may appear inside an explicit template-argument list. The
# angle scan in _skip_template_args rejects anything else, so ordinary
# less-than comparisons (`a < b`) never parse as template arguments.
TEMPLATE_ARG_TOKENS = {"::", ",", "*", "&", "[", "]", "<", ">"}
NOT_A_TYPE = {
    "return", "using", "typedef", "friend", "delete", "goto", "break",
    "continue", "case", "public", "private", "protected", "class",
    "struct", "enum", "if", "else", "throw", "new", "const", "template",
    "typename", "operator", "namespace", "static", "inline", "constexpr",
    "virtual", "explicit", "extern", "auto", "void", "co_return",
}
SIG_QUALIFIERS = {
    "const", "noexcept", "override", "final", "mutable", "volatile",
    "try", "&", "&&",
}

TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*|::|->|\d[\w.+-]*"
    r"|[{}()\[\];:,<>=&|*~!+\-/%^?.#\\]"
)
ALLCAPS_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")


@dataclass
class Token:
    txt: str
    line: int  # 1-based


@dataclass
class Effect:
    rule: str
    line: int
    detail: str
    cap: str | None = None  # lock rule: acquired capability


@dataclass
class CallSite:
    line: int
    # Resolution inputs:
    name: str
    quals: tuple[str, ...] = ()  # explicit A::B:: path
    recv_type: str | None = None  # resolved receiver class, if any
    bare: bool = False  # unqualified, no receiver


@dataclass
class Func:
    fid: int
    qname: str
    name: str
    cls: str | None
    rel: str
    sig_line: int
    body_open: int
    body_close: int
    sig_text: str
    contracts: set[str] = field(default_factory=set)
    lock_caps: list[str] | None = None
    hot: bool = False
    noreturn: bool = False
    fn_allows: dict[str, int] = field(default_factory=dict)  # rule -> line
    effects: list[Effect] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    edges: list[tuple[int, int]] = field(default_factory=list)  # (fid, line)


@dataclass
class AllowMarker:
    rel: str
    line: int
    rule: str
    justification: str
    scope: str  # "function" | "line"
    target_lines: set[int] = field(default_factory=set)
    owner: int | None = None  # fid for function-scope markers
    used: bool = False


@dataclass
class Finding:
    rule: str
    rel: str
    line: int
    message: str
    root: str | None = None
    function: str | None = None
    witness: list[str] = field(default_factory=list)

    def format(self) -> str:
        out = f"{self.rel}:{self.line}: [{self.rule}] {self.message}"
        for step in self.witness:
            out += f"\n    {step}"
        return out


@dataclass
class SourceFile:
    rel: str
    raw_lines: list[str]
    code_lines: list[str]  # comments and string literals blanked
    expects: dict[int, set[str]]


class ConfigError(Exception):
    """A usage or configuration problem: exit status 2, never a pass."""


# ---------------------------------------------------------------------------
# File loading & collection.
# ---------------------------------------------------------------------------


def _strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure.

    Keeps column positions stable by replacing stripped characters with
    spaces, so findings can still report accurate lines.
    """
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt in ("/", "*"):
                state = "line_comment" if nxt == "/" else "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw strings R"delim(...)delim" need their own scan: they
                # may contain quotes and backslashes.
                if out and out[-1] == "R":
                    m = re.match(r'"([^\s()\\]{0,16})\(', text[i:])
                    if m:
                        closer = ")" + m.group(1) + '"'
                        end = text.find(closer, i + m.end())
                        end = n if end < 0 else end + len(closer)
                        out.append("".join(
                            ch if ch == "\n" else " " for ch in text[i:end]))
                        i = end
                        continue
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
            continue
        if state == "line_comment":
            if c == "\n":
                state = "code"
            out.append("\n" if c == "\n" else " ")
            i += 1
            continue
        if state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
            continue
        # string / char
        if c == "\\":
            out.append("  ")
            i += 2
            continue
        if (state == "string" and c == '"') or (state == "char" and c == "'"):
            state = "code"
            out.append(" ")
            i += 1
            continue
        out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def load_file(path: str, root: str) -> SourceFile:
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    raw_lines = text.splitlines()
    code_lines = _strip_comments_and_strings(text).splitlines()
    while len(code_lines) < len(raw_lines):
        code_lines.append("")
    expects: dict[int, set[str]] = {}
    for idx, raw in enumerate(raw_lines, start=1):
        for m in EXPECT_RE.finditer(raw):
            # On its own line the marker covers the next line.
            target = idx + 1 if raw.split("//", 1)[0].strip() == "" else idx
            expects.setdefault(target, set()).add(m.group(1))
    return SourceFile(os.path.relpath(path, root), raw_lines, code_lines,
                      expects)


def load_compile_db(path: str) -> list[dict]:
    """The compilation database at `path`, or in it when `path` is a build
    directory (the clang tools' `-p` convention)."""
    if os.path.isdir(path):
        path = os.path.join(path, "compile_commands.json")
    if not os.path.isfile(path):
        raise ConfigError(f"compilation database not found: {path}")
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"bad compilation database {path}: {exc}") from exc


def collect_files(root: str, entries: list[dict] | None) -> list[str]:
    """The compilation database's TUs under root/src plus every header
    under root/src (headers are not TUs, and most of the locking surface
    is in headers). A source the build stops compiling stops being
    checked without a glob edit here. Without a database every .cc under
    src/ is a TU."""
    src_root = os.path.realpath(os.path.join(root, "src"))
    files: set[str] = set()
    for entry in entries or []:
        path = entry.get("file", "")
        if not os.path.isabs(path):
            path = os.path.join(entry.get("directory", ""), path)
        path = os.path.realpath(path)
        if path.startswith(src_root + os.sep):
            files.add(path)
    if entries is not None and not files:
        raise ConfigError(f"the compilation database has no TUs under "
                          f"{src_root}")
    for dirpath, _, names in os.walk(src_root):
        for name in names:
            if name.endswith(".h") or (entries is None and
                                       name.endswith(".cc")):
                files.add(os.path.realpath(os.path.join(dirpath, name)))
    if not files:
        raise ConfigError(f"no sources found under {src_root}")
    return sorted(files)


def scan_fast_math(entries: list[dict] | None) -> list[str]:
    bad = []
    for entry in entries or []:
        cmd = entry.get("command") or " ".join(entry.get("arguments", []))
        if "-ffast-math" in cmd or "-funsafe-math-optimizations" in cmd:
            bad.append(entry.get("file", "?"))
    return bad


# ---------------------------------------------------------------------------
# Lexical rules. Each yields (1-based line, message) for one file.
# ---------------------------------------------------------------------------

ATOMIC_CALL_RE = re.compile(
    r"[\w\)\]>]\s*(?:\.|->)\s*"
    r"(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\("
)
MEMORY_ORDER_RE = re.compile(r"std::memory_order|memory_order_")


def _span_call(lines: list[str], start_idx: int, open_pos: int) -> str:
    """The argument text of a call whose '(' is at (start_idx, open_pos)
    in `lines` (0-based), scanning at most 12 lines."""
    depth = 0
    collected = []
    for idx in range(start_idx, min(start_idx + 12, len(lines))):
        line = lines[idx]
        pos = open_pos if idx == start_idx else 0
        for j in range(pos, len(line)):
            if line[j] == "(":
                depth += 1
            elif line[j] == ")":
                depth -= 1
                if depth == 0:
                    collected.append(line[pos:j + 1])
                    return "".join(collected)
        collected.append(line[pos:])
    return "".join(collected)


def check_atomic_order(src: SourceFile):
    for idx, line in enumerate(src.code_lines):
        for m in ATOMIC_CALL_RE.finditer(line):
            # RelaxedCounter spells its mutators Store/Add/value, so any
            # .store/.load match here is a raw std::atomic (or an atomic
            # wrapper faking the std interface, equally suspect).
            if MEMORY_ORDER_RE.search(
                    _span_call(src.code_lines, idx, m.end() - 1)):
                continue
            yield idx + 1, (
                f"atomic {m.group(1)}() without an explicit "
                "std::memory_order (default seq_cst fences the hot path; "
                "say the order or use RelaxedCounter)")


# Scope-guard declarations: `MutexLock l(mu);` and friends; group 2 is the
# argument list, whose last identifier names the capability.
GUARD_DECL_RE = re.compile(
    r"\b(MutexLock|ReaderMutexLock|WriterMutexLock)\s+\w+\s*"
    r"\(([^;]*)")
BLOCKING_CALL_RE = re.compile(
    r"(?:"
    r"\b\w+\s*(?:\.|->)\s*(Optimize|Consume|Flush|ObserveDrop|join)\s*\(|"
    r"\bstd::this_thread::(sleep_for|sleep_until)\b|"
    r"\bstd::(getline|fopen|ifstream|ofstream|fstream)\b|"
    r"\b(printf|fprintf|fwrite|fread|fputs)\s*\("
    r")"
)
# A condition-variable wait; group 1 is the mutex it waits on.
CONDVAR_WAIT_RE = re.compile(
    r"(?:\.|->)\s*(?:Wait|WaitFor)\s*\(\s*(?:[\w.]+(?:\.|->))?(\w+)\s*[,)]")
# The call the blocking-under-lock rule looks for behind every call made
# under a lock, besides `block` effects.
OPTIMIZER_CALL = ("EngineContext", "Optimize")


def _last_ident(text: str) -> str:
    idents = re.findall(r"[A-Za-z_]\w*", text)
    return idents[-1] if idents else ""


def lock_scopes(src: SourceFile) -> dict[int, set[str]]:
    """1-based line -> the capabilities held there, for every line inside
    a scoped guard's scope (the guard's own line excluded). Only guards
    open scopes: a manual Lock()/Unlock() is a raw-mutex finding."""
    # Track lock scopes with a brace stack. A guard declared at stack depth
    # d is active until a `}` takes the stack below d — a nested sub-scope
    # closing back TO d keeps the lock held.
    held: dict[int, set[str]] = {}
    depth = 0
    guards: list[tuple[int, str]] = []  # (depth, capability)
    for idx, line in enumerate(src.code_lines):
        gm = GUARD_DECL_RE.search(line)
        if guards and not gm:
            held[idx + 1] = {cap for _, cap in guards}
        if gm:
            guards.append((depth, _last_ident(gm.group(2))))
        # Apply brace deltas after the line so a guard's own line counts
        # as inside its scope only from the next line on.
        for ch in line:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth = max(depth - 1, 0)
                while guards and depth < guards[-1][0]:
                    guards.pop()
    return held


def check_blocking_under_lock(model: Model, src: SourceFile):
    """Yields (line, message, witness) for each blocking call made while a
    lock scope is active: a direct pattern (the zero-depth case), a
    condition-variable wait on a mutex other than the ones held, or a call
    whose callee reaches a `block` effect or EngineContext::Optimize over
    resolved edges (with a shortest-chain witness)."""
    held = lock_scopes(src)
    for line, caps in sorted(held.items()):
        code = src.code_lines[line - 1]
        bm = BLOCKING_CALL_RE.search(code)
        if bm:
            what = next(g for g in bm.groups() if g)
            yield line, (
                f"blocking call `{what}` while a lock scope is active "
                "(move the call outside the critical section)"), []
            continue
        wm = CONDVAR_WAIT_RE.search(code)
        if wm and wm.group(1) not in caps:
            yield line, (
                f"condition-variable wait on `{wm.group(1)}` while holding "
                f"{', '.join(sorted(caps))} (the wait releases only its own "
                "mutex)"), []
    reported: set[int] = set()
    for f in model.funcs:
        if f.rel != src.rel:
            continue
        for callee_fid, line in f.edges:
            if line not in held or line in reported:
                continue
            hit = _blocking_reach(model, callee_fid, line)
            if hit is None:
                continue
            reported.add(line)
            chain, what, where = hit
            witness = [f"{f.qname} ({f.rel}:{f.sig_line})"]
            prev = f
            for fid, call_line in chain:
                witness.append(f"-> {model.funcs[fid].qname} (called at "
                               f"{prev.rel}:{call_line})")
                prev = model.funcs[fid]
            if where:
                witness.append(f"-> effect at {where}: {what}")
            yield line, (
                f"call to `{model.funcs[chain[0][0]].qname}` while a lock "
                f"scope is active reaches `{prev.qname}`: {what} (move the "
                "call outside the critical section)"), witness


def _blocking_reach(model: Model, start: int, line: int):
    """Breadth-first from `start`, called at `line`: the shortest chain
    [(fid, call line)] to EngineContext::Optimize or to a function with a
    `block` effect, what it does and where (empty for the optimizer call);
    None when neither is reachable. Traverses like the SCRPQO_NONBLOCKING
    contract: `block` allows hide what they cover, abort paths don't
    count."""
    if _fn_allowed(model, model.funcs[start], "block"):
        return None
    parent: dict[int, int | None] = {start: None}
    call_line = {start: line}
    q: deque[int] = deque([start])
    while q:
        fid = q.popleft()
        f = model.funcs[fid]
        found = None
        if (f.cls, f.name) == OPTIMIZER_CALL:
            found = ("the optimizer call", "")
        else:
            for eff in f.effects:
                if eff.rule == "block" and \
                        not _line_allowed(model, f.rel, eff.line, "block"):
                    found = (eff.detail, f"{f.rel}:{eff.line}")
                    break
        if found is not None:
            chain = []
            cur: int | None = fid
            while cur is not None:
                chain.append((cur, call_line[cur]))
                cur = parent[cur]
            chain.reverse()
            return chain, found[0], found[1]
        for callee_fid, call in f.edges:
            callee = model.funcs[callee_fid]
            if callee_fid in parent or callee.noreturn or \
                    _fn_allowed(model, callee, "block") or \
                    _line_allowed(model, f.rel, call, "block"):
                continue
            parent[callee_fid] = fid
            call_line[callee_fid] = call
            q.append(callee_fid)
    return None


RECORD_CALL_RE = re.compile(
    r"([\w.\->]*tracer[\w.\->]*)\s*(?:\.|->)\s*Record\s*\(", re.IGNORECASE)


def check_tracer_record(src: SourceFile):
    for idx, line in enumerate(src.code_lines):
        m = RECORD_CALL_RE.search(line)
        if m:
            yield idx + 1, (
                f"direct RingTracer::Record via `{m.group(1)}` outside "
                "src/obs/ — route through EmitDecisionEvent (obs/emit.h)")


STATUS_DEF_RE = re.compile(r"\b(class|struct)\s+(Status|Result)\b[^;]*$")
STATUS_FWD_RE = re.compile(
    r"\b(class|struct)\s+(Status|Result)\s*(<[^>]*>)?\s*;")


def check_nodiscard_status(src: SourceFile):
    for idx, line in enumerate(src.code_lines):
        m = STATUS_DEF_RE.search(line)
        # A forward declaration (`class Status;`) is not a definition.
        if not m or STATUS_FWD_RE.search(line):
            continue
        if "[[nodiscard]]" not in src.raw_lines[idx]:
            yield idx + 1, (
                f"{m.group(1)} {m.group(2)} defined without [[nodiscard]] — "
                "a dropped error object is a swallowed failure")


RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b"
)
# A hand-managed acquire or release: `mu_.Lock()`, `p->UnlockShared()`.
MANUAL_LOCK_RE = re.compile(
    r"(?:\.|->)\s*(UnlockShared|LockShared|Unlock|Lock)\s*\(\s*\)")


def check_raw_mutex(src: SourceFile):
    for idx, line in enumerate(src.code_lines):
        m = RAW_MUTEX_RE.search(line)
        if m:
            yield idx + 1, (
                f"raw std::{m.group(1)} — use the annotated primitives in "
                "common/thread_annotations.h (raw sync objects are "
                "invisible to the thread-safety analysis)")
            continue
        m = MANUAL_LOCK_RE.search(line)
        if m:
            yield idx + 1, (
                f"manual {m.group(1)}() — hold the lock with a scoped guard "
                "(MutexLock, ReaderMutexLock, WriterMutexLock); a "
                "hand-managed scope is invisible to blocking-under-lock")


# rule -> (path prefixes it checks, prefixes exempt from it, check)
LEXICAL_RULES = {
    "atomic-order": (("src/pqo/", "src/obs/"), (), check_atomic_order),
    "tracer-record-outside-obs": (("src/",), ("src/obs/",),
                                  check_tracer_record),
    "nodiscard-status": (("src/common/",), (), check_nodiscard_status),
    "raw-mutex": (("src/",), ("src/common/thread_annotations.h",),
                  check_raw_mutex),
}
# Scoped like the lexical rules, but the check also reads the call graph
# and yields a witness chain with each finding.
CALL_RULES = {
    "blocking-under-lock": (("src/pqo/",), (), check_blocking_under_lock),
}
ALL_RULES = RULES + tuple(LEXICAL_RULES) + tuple(CALL_RULES)


# ---------------------------------------------------------------------------
# Tokenizing + function extraction (the call-graph engine).
# ---------------------------------------------------------------------------


def tokenize(code_lines: list[str]) -> list[Token]:
    toks: list[Token] = []
    for lineno, line in enumerate(code_lines, start=1):
        for m in TOKEN_RE.finditer(line):
            toks.append(Token(m.group(0), lineno))
    return toks


def _match_back(toks: list[Token], close: int) -> int:
    """Index of the '(' matching the ')' at `close` (same-token-list)."""
    depth = 0
    for j in range(close, -1, -1):
        t = toks[j].txt
        if t == ")":
            depth += 1
        elif t == "(":
            depth -= 1
            if depth == 0:
                return j
    return -1


def _match_fwd(toks: list[Token], open_: int, op: str = "{",
               cl: str = "}") -> int:
    depth = 0
    for j in range(open_, len(toks)):
        t = toks[j].txt
        if t == op:
            depth += 1
        elif t == cl:
            depth -= 1
            if depth == 0:
                return j
    return len(toks) - 1


def _has_contents(toks: list[Token], open_: int, end: int) -> bool:
    """Whether the `(` or `{` at `open_` holds constructor arguments other
    than a lone `std::move(x)` (a move allocates nothing)."""
    cl = ")" if toks[open_].txt == "(" else "}"
    close = min(_match_fwd(toks, open_, toks[open_].txt, cl), end)
    inner = [t.txt for t in toks[open_ + 1:close]]
    if not inner:
        return False
    if inner[:4] == ["std", "::", "move", "("] and \
            _match_fwd(toks, open_ + 4, "(", ")") == close - 1:
        return False
    return True


def _init_allocates(toks: list[Token], start: int, end: int) -> bool:
    """Whether the initializer after `T name =` (tokens from `start` up to
    the `;`) copies or fills an owning container. A braced list does when
    not empty; the result of a call (`Make()`, `std::move(x)`) is moved or
    elided into place and allocates nothing here (a project callee is
    analyzed on its own); any other value (`other`, `"text"`) is copied."""
    if start >= end:
        return False
    if toks[start].txt == "{":
        return _has_contents(toks, start, end)
    depth = 0
    last = start
    for k in range(start, end):
        t = toks[k].txt
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
        elif t == ";" and depth == 0:
            break
        last = k
    if toks[last].txt == ")":
        open_ = _match_back(toks, last)
        if open_ > start and re.match(r"[A-Za-z_]\w*$|>$",
                                      toks[open_ - 1].txt):
            return False
    return True


def _container_ctor_allocates(toks: list[Token], i: int, end: int) -> bool:
    """Whether the owning std container named at toks[i] (after `std::`)
    is constructed with contents: a size, a fill value, an initializer
    list or a copy, as a declaration (`std::vector<int> v(4);`,
    `v{1, 2}`, `v = other;`) or a temporary (`std::vector<int>(4)`).
    Default construction, references, pointers, nested names
    (`std::vector<int>::iterator`), template arguments and trailing return
    types are not."""
    if i >= 3 and toks[i - 3].txt == "->":
        return False
    p = i + 1
    if p < end and toks[p].txt == "<":
        close = _close_template_args(toks, p, end)
        if close is None:
            return False
        p = close + 1
    if p >= end:
        return False
    t = toks[p].txt
    if t in ("(", "{"):
        return _has_contents(toks, p, end)
    if not re.match(r"[A-Za-z_]\w*$", t) or t in NOT_A_TYPE or \
            p + 1 >= end:
        return False
    t = toks[p + 1].txt
    if t in ("(", "{"):
        return _has_contents(toks, p + 1, end)
    if t == "=":
        return _init_allocates(toks, p + 2, end)
    return False


def _close_template_args(toks: list[Token], open_: int,
                         end: int) -> int | None:
    """Balanced scan over `<...>` starting at the '<' at `open_`. Returns
    the index of the matching '>', or None when the brackets don't close
    within a short window or a non-type token appears inside, so an
    ordinary `a < b` comparison never parses as template arguments."""
    depth = 0
    limit = min(end, open_ + 64)
    for k in range(open_, limit):
        t = toks[k].txt
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return k
        elif t in TEMPLATE_ARG_TOKENS:
            continue
        elif not re.match(r"[A-Za-z_]\w*$|\d[\w.+-]*$", t):
            return None
    return None


def _skip_template_args(toks: list[Token], open_: int, end: int) -> int | None:
    """The index of a '(' immediately after the template arguments opened
    at `open_` — i.e. the token where an explicit-template-argument call's
    argument list begins — or None. Conservative on purpose: a false
    negative only loses one call edge, while a false positive would invent
    one from a `<` comparison."""
    close = _close_template_args(toks, open_, end)
    if close is not None and close + 1 < end and toks[close + 1].txt == "(":
        return close + 1
    return None


def _stmt_start(toks: list[Token], brace: int) -> int:
    """First token index of the statement owning the '{' at `brace`.
    Walks back to the previous ';' / '{' / '}' at paren depth 0."""
    depth = 0
    j = brace - 1
    while j >= 0:
        t = toks[j].txt
        if t in (")", "]"):
            depth += 1
        elif t in ("(", "["):
            depth -= 1
            if depth < 0:
                return j + 1
        elif depth == 0 and t in (";", "{", "}"):
            return j + 1
        j -= 1
    return 0


def _classify_function(toks: list[Token], stmt: int,
                       brace: int) -> tuple[str, tuple[str, ...], int] | None:
    """If tokens[stmt:brace] look like a function definition signature,
    return (name, explicit_qual_path, param_open_index); else None."""
    k = brace - 1
    while k >= stmt:
        t = toks[k].txt
        if t in SIG_QUALIFIERS or ALLCAPS_RE.match(t) or t in (":", ","):
            k -= 1
            continue
        if t == ">":  # e.g. `-> ArenaVec<T>` trailing return; skip group
            k -= 1
            continue
        if t == ")":
            m = _match_back(toks, k)
            if m <= stmt:
                return None
            w = toks[m - 1].txt
            if w == "noexcept" or ALLCAPS_RE.match(w):
                k = m - 2  # attribute/noexcept group: skip it + keyword
                continue
            if re.match(r"[A-Za-z_]\w*$", w) or w == "]":
                if w == "]":
                    return None  # lambda introducer
                # Possible ctor-init member `: name(args)` — check left.
                left = toks[m - 2].txt if m >= 2 else ""
                if left in (":", ","):
                    k = m - 3
                    continue
                if left == "~":
                    return None  # destructor: no contracts, skip indexing
                # Found the parameter list; build the qualified name.
                name = w
                quals: list[str] = []
                j = m - 2
                while j >= stmt + 1 and toks[j].txt == "::":
                    prev = toks[j - 1].txt
                    if prev == ">":
                        # Templated qualifier Foo<T>::name — take base id.
                        depth2 = 0
                        jj = j - 1
                        while jj >= stmt:
                            if toks[jj].txt == ">":
                                depth2 += 1
                            elif toks[jj].txt == "<":
                                depth2 -= 1
                                if depth2 == 0:
                                    break
                            jj -= 1
                        prev = toks[jj - 1].txt if jj - 1 >= stmt else ""
                        j = jj - 2
                    else:
                        j -= 2
                    if re.match(r"[A-Za-z_]\w*$", prev):
                        quals.insert(0, prev)
                    else:
                        break
                if name in CONTROL_KEYWORDS or name in NOT_A_TYPE:
                    return None
                # Reject calls used as conditions: `if (...) {` handled by
                # CONTROL check; a genuine definition has type tokens or
                # qualifiers before the name (ctors have the class name).
                return name, tuple(quals), m
            # operator> etc., a templated call, or any other operator:
            # operators carry no contracts here.
            return None
        # Anything else before '{' that isn't a qualifier: not a function.
        return None
    return None


def _stmt_has(toks: list[Token], stmt: int, brace: int, kws: set[str]) -> str | None:
    for j in range(stmt, brace):
        if toks[j].txt in kws:
            return toks[j].txt
    return None


MEMBER_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+|static\s+|constexpr\s+|inline\s+|thread_local\s+)*"
    r"((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*(?:<[^;(){}=]*>)?)"
    r"\s*(?:const\s*)?[*&]*\s*"
    r"([A-Za-z_]\w*)\s*"
    r"(?:[A-Z][A-Z0-9_]*\s*\([^;]*\)\s*)?"  # trailing TSA macro
    r"(?:=[^;]*|\{[^;]*\})?;")

LOCAL_CTOR_RE = re.compile(
    r"^\s*((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*(?:<[^;(){}=]*>)?)"
    r"\s*[*&]*\s*([A-Za-z_]\w*)\s*\(")


def normalize_type(t: str) -> str:
    """The class a declared type names for member-call resolution: owning
    and optional wrappers are seen through, `std::atomic<T*>` is not (its
    load/store/fetch_add are std calls, not calls on the pointee)."""
    t = t.strip()
    for wrapper in ("std::unique_ptr", "std::shared_ptr", "std::optional"):
        if t.startswith(wrapper + "<"):
            t = t[len(wrapper) + 1:].rstrip(">").strip()
    t = t.replace("const ", "").strip(" *&")
    if t.startswith("std::"):
        base = t[5:].split("<", 1)[0]
        return "std::" + base
    return t.split("<", 1)[0]


def parse_decl_types(lines: list[str]) -> dict[str, str]:
    """name -> normalized type for declarations found in `lines`."""
    out: dict[str, str] = {}
    for line in lines:
        m = MEMBER_DECL_RE.match(line) or LOCAL_CTOR_RE.match(line)
        if not m:
            continue
        ty, name = m.group(1), m.group(2)
        if ty in NOT_A_TYPE or ty in CONTROL_KEYWORDS:
            continue
        if name in NOT_A_TYPE:
            continue
        out[name] = normalize_type(ty)
    return out


def parse_param_types(sig: str) -> dict[str, str]:
    """name -> normalized type for a raw signature's parameter list."""
    m = re.search(r"\(", sig)
    if not m:
        return {}
    depth = 0
    start = m.start()
    end = len(sig)
    for j in range(start, len(sig)):
        if sig[j] == "(":
            depth += 1
        elif sig[j] == ")":
            depth -= 1
            if depth == 0:
                end = j
                break
    inner = sig[start + 1:end]
    out: dict[str, str] = {}
    depth = 0
    arg = ""
    args = []
    for ch in inner:
        if ch in "<([":
            depth += 1
        elif ch in ">)]":
            depth -= 1
        if ch == "," and depth == 0:
            args.append(arg)
            arg = ""
        else:
            arg += ch
    if arg.strip():
        args.append(arg)
    for a in args:
        a = a.split("=", 1)[0].strip()
        mm = re.match(
            r"(?:const\s+)?((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*(?:<[^()]*>)?)"
            r"\s*(?:const\s*)?[*&]*\s*([A-Za-z_]\w*)\s*$", a)
        if mm and mm.group(1) not in NOT_A_TYPE:
            out[mm.group(2)] = normalize_type(mm.group(1))
    return out


class Model:
    """The extracted whole-program model."""

    def __init__(self) -> None:
        self.funcs: list[Func] = []
        self.files: dict[str, SourceFile] = {}
        self.members: dict[str, dict[str, str]] = {}  # class -> name -> type
        # member name -> every type any class declares it with
        self.member_types: dict[str, set[str]] = {}
        self.mutex_members: set[str] = set()  # declared capability names
        self.order_edges: set[tuple[str, str]] = set()  # ACQUIRED_BEFORE
        self.design_edges: set[tuple[str, str]] = set()  # DESIGN.md §4g
        self.allows: list[AllowMarker] = []
        self.by_qname: dict[str, int] = {}
        self.by_method: dict[tuple[str, str], int] = {}
        self.by_name: dict[str, list[int]] = {}
        self.unresolved_calls: int = 0
        self.resolved_calls: int = 0
        self.warnings: list[str] = []


ACQ_RE = re.compile(
    r"\b(?:Mutex|SharedMutex)\s+(\w+)\s+ACQUIRED_(BEFORE|AFTER)\(([^)]*)\)")
MUTEX_DECL_RE = re.compile(
    r"\b(?:mutable\s+)?(?:Mutex|SharedMutex)\s+(\w+)\s*[;A-Z]")


def scan_file(model: Model, src: SourceFile,
              toks: list[Token]) -> list[tuple[int, int, Func]]:
    """Pass 1 over one file: the capability registry, ACQUIRED_BEFORE
    edges, class member tables and function definitions. Returns the
    token span of each function body for pass 2."""
    model.files[src.rel] = src
    for line in src.code_lines:
        for m in MUTEX_DECL_RE.finditer(line):
            model.mutex_members.add(m.group(1))
        for m in ACQ_RE.finditer(line):
            name, kind, targets = m.group(1), m.group(2), m.group(3)
            for target in re.findall(r"[A-Za-z_][\w]*", targets):
                if kind == "BEFORE":
                    model.order_edges.add((name, target))
                else:
                    model.order_edges.add((target, name))

    scope: list[tuple[str, str, int]] = []  # (kind, name, open line)
    class_ranges: list[tuple[str, int, int]] = []
    func_ranges: list[tuple[int, int]] = []
    func_spans: list[tuple[int, int, Func]] = []
    for i, tok in enumerate(toks):
        if tok.txt == "{":
            stmt = _stmt_start(toks, i)
            kw = _stmt_has(toks, stmt, i, {"namespace", "class", "struct",
                                           "union", "enum"})
            fn = _classify_function(toks, stmt, i) if kw is None else None
            nm = ""
            if fn is not None:
                kind = "function"
                name, quals, _ = fn
                class_path = [p for k, p, _ in scope
                              if k in ("namespace", "class") and p]
                cls = quals[-1] if quals else next(
                    (p for k, p, _ in reversed(scope) if k == "class"), None)
                sig_line = toks[stmt].line
                close = _match_fwd(toks, i)
                f = Func(
                    fid=len(model.funcs),
                    qname="::".join([*class_path, *quals, name]), name=name,
                    cls=cls, rel=src.rel, sig_line=sig_line,
                    body_open=tok.line, body_close=toks[close].line,
                    sig_text="\n".join(
                        src.raw_lines[sig_line - 1:tok.line]))
                model.funcs.append(f)
                func_spans.append((i + 1, close, f))
            elif kw == "namespace":
                kind = "namespace"
                for j in range(stmt, i):
                    if toks[j].txt == "namespace" and j + 1 < i and \
                            re.match(r"[A-Za-z_]\w*$", toks[j + 1].txt):
                        nm = toks[j + 1].txt
            elif kw in ("class", "struct", "union"):
                kind = "class"
                for j in range(stmt, i):
                    if toks[j].txt == kw:
                        jj = j + 1
                        while jj < i:
                            if ALLCAPS_RE.match(toks[jj].txt) or \
                                    toks[jj].txt == "final":
                                jj += 1
                            elif toks[jj].txt == "[" and jj + 1 < i and \
                                    toks[jj + 1].txt == "[":
                                # An attribute group: `class [[nodiscard]] X`.
                                jj = _match_fwd(toks, jj, "[", "]") + 1
                            else:
                                break
                        if jj < i and re.match(r"[A-Za-z_]\w*$", toks[jj].txt):
                            nm = toks[jj].txt
                        break
            else:
                kind = "block"
            scope.append((kind, nm, tok.line))
        elif tok.txt == "}" and scope:
            kind, nm, open_line = scope.pop()
            if kind == "class" and nm:
                class_ranges.append((nm, open_line, tok.line))
            elif kind == "function":
                func_ranges.append((open_line, tok.line))

    # Member declarations: class-body lines outside function bodies.
    for nm, lo, hi in class_ranges:
        lines = [src.code_lines[ln - 1] for ln in range(lo, hi + 1)
                 if ln - 1 < len(src.code_lines) and
                 not any(flo < ln < fhi for flo, fhi in func_ranges)]
        table = parse_decl_types(lines)
        model.members.setdefault(nm, {}).update(table)
        for name, ty in table.items():
            model.member_types.setdefault(name, set()).add(ty)
    return func_spans


def extract_bodies(model: Model, src: SourceFile, toks: list[Token],
                   func_spans: list[tuple[int, int, Func]]) -> None:
    """Pass 2 over one file, once every file's member tables exist:
    contracts and allows per function, then body effects and calls."""
    for span_start, span_end, f in func_spans:
        _parse_contracts(model, src, f)
        _extract_body(model, src, toks, span_start, span_end, f)
    # Allows not attached to any function signature: line scope.
    _collect_line_allows(model, src)


CONTRACT_TOKENS = {
    "SCRPQO_HOT": "hot",
    "SCRPQO_NOALLOC": "alloc",
    "SCRPQO_NONBLOCKING": "block",
    "SCRPQO_NOTHROW": "throw",
    "SCRPQO_FP_DETERMINISTIC": "fp",
}
LOCK_BOUNDED_RE = re.compile(r"\bSCRPQO_LOCK_BOUNDED\(([^)]*)\)")
ALLOW_FULL_RE = re.compile(
    r"\bSCRPQO_EFFECT_ALLOW\s*\(\s*([a-z-]+)\s*,\s*(\"(?:[^\"\\]|\\.)*\")?")


def _parse_contracts(model: Model, src: SourceFile, f: Func) -> None:
    sig = f.sig_text
    for token, rule in CONTRACT_TOKENS.items():
        if re.search(r"\b" + token + r"\b", sig):
            if rule == "hot":
                f.hot = True
            else:
                f.contracts.add(rule)
    m = LOCK_BOUNDED_RE.search(sig)
    if m:
        f.contracts.add("lock")
        f.lock_caps = re.findall(r"[A-Za-z_]\w*", m.group(1))
    if "[[noreturn]]" in sig or "noreturn" in sig:
        f.noreturn = True
    # Function-scope allows: markers on the signature lines.
    for off, raw in enumerate(src.raw_lines[f.sig_line - 1:f.body_open]):
        for am in ALLOW_FULL_RE.finditer(raw):
            rule = am.group(1)
            just = (am.group(2) or "").strip('"').strip()
            marker = AllowMarker(src.rel, f.sig_line + off, rule, just,
                                 "function", owner=f.fid)
            model.allows.append(marker)
            if rule in RULES and just:
                f.fn_allows[rule] = marker.line


def _collect_line_allows(model: Model, src: SourceFile) -> None:
    func_sig_lines: set[int] = set()
    for f in model.funcs:
        if f.rel != src.rel:
            continue
        func_sig_lines.update(range(f.sig_line, f.body_open + 1))
    for idx, raw in enumerate(src.raw_lines, start=1):
        if idx in func_sig_lines:
            continue
        if raw.lstrip().startswith("#"):
            continue  # the macro's own #define in effects.h
        for am in ALLOW_FULL_RE.finditer(raw):
            rule = am.group(1)
            just = (am.group(2) or "").strip('"').strip()
            marker = AllowMarker(src.rel, idx, rule, just, "line")
            stripped = src.code_lines[idx - 1] if \
                idx - 1 < len(src.code_lines) else ""
            # A line holding nothing but the marker covers the next line.
            residue = re.sub(r"SCRPQO_EFFECT_ALLOW\s*\([^;{}]*\)", "",
                             stripped).strip()
            alone = residue in ("", ";")
            if alone:
                nxt = idx + 1
                while nxt <= len(src.raw_lines) and \
                        not src.raw_lines[nxt - 1].strip():
                    nxt += 1
                marker.target_lines = {idx, nxt}
            else:
                marker.target_lines = {idx}
            model.allows.append(marker)


def _extract_body(model: Model, src: SourceFile, toks: list[Token],
                  start: int, end: int, f: Func) -> None:
    locals_: dict[str, str] = parse_param_types(f.sig_text)
    body_lines = src.code_lines[f.body_open - 1:f.body_close]
    locals_.update(parse_decl_types([ln.strip() for ln in body_lines]))

    # Intrinsics: line regex (token stream splits _mm256_mul_pd cleanly as
    # one identifier, but the regex is simpler on lines).
    if src.rel not in FP_INTRINSIC_SANCTIONED:
        for off, line in enumerate(body_lines):
            m = INTRINSIC_RE.search(line)
            if m:
                f.effects.append(Effect(
                    "fp", f.body_open + off,
                    f"raw SIMD intrinsic `{m.group(0)}` outside sanctioned "
                    f"TUs ({', '.join(FP_INTRINSIC_SANCTIONED)})"))

    i = start
    while i < end:
        tok = toks[i]
        t = tok.txt

        if t in ABORT_MACROS and i + 1 < end and toks[i + 1].txt == "(":
            i = _match_fwd(toks, i + 1, "(", ")") + 1
            continue

        if t == "throw":
            f.effects.append(Effect("throw", tok.line, "throw expression"))
            i += 1
            continue

        if t == "new":
            prev = toks[i - 1].txt if i > 0 else ""
            nxt = toks[i + 1].txt if i + 1 < end else ""
            if prev != "operator" and nxt != "(":
                # `new (ptr) T` is placement (arena) — not an allocation.
                f.effects.append(Effect("alloc", tok.line, "operator new"))
            i += 1
            continue

        if t == "operator" and i + 1 < end and toks[i + 1].txt == "new":
            f.effects.append(Effect("alloc", tok.line, "::operator new"))
            i += 2
            continue

        # Guard declarations: MutexLock lock(cap);
        if t in GUARD_TYPES and i + 2 < end and \
                re.match(r"[A-Za-z_]\w*$", toks[i + 1].txt) and \
                toks[i + 2].txt == "(":
            close = _match_fwd(toks, i + 2, "(", ")")
            cap = None
            for j in range(close - 1, i + 2, -1):
                if re.match(r"[A-Za-z_]\w*$", toks[j].txt):
                    cap = toks[j].txt
                    break
            f.effects.append(Effect(
                "lock", tok.line,
                f"{t} acquires `{cap}`", cap=cap))
            i = close + 1
            continue

        # Owning std container constructed with contents (a size, a fill
        # value, an initializer list or a copy).
        if t in STD_CONTAINERS and i >= 2 and toks[i - 1].txt == "::" and \
                toks[i - 2].txt == "std" and \
                _container_ctor_allocates(toks, i, end):
            f.effects.append(Effect(
                "alloc", tok.line,
                f"std::{t} constructed with contents allocates"))

        # Call site: IDENT '(' — or IDENT '<' targs '>' '(' with explicit
        # template arguments (AllocateArray<uint8_t>(n), make_unique<T>(),
        # std::max<double>(a, b)). The angle scan accepts only type-like
        # tokens, so an ordinary `a < b` comparison never matches.
        if re.match(r"[A-Za-z_]\w*$", t) and i + 1 < end and \
                t not in CONTROL_KEYWORDS and \
                (toks[i + 1].txt == "(" or
                 (toks[i + 1].txt == "<" and
                  _skip_template_args(toks, i + 1, end) is not None)):
            quals: list[str] = []
            j = i - 1
            while j >= 1 and toks[j].txt == "::" and \
                    re.match(r"[A-Za-z_]\w*$", toks[j - 1].txt):
                quals.insert(0, toks[j - 1].txt)
                j -= 2
            recv = None
            recv_unknown = False
            if j >= 1 and toks[j].txt in (".", "->") and not quals:
                if re.match(r"[A-Za-z_]\w*$", toks[j - 1].txt):
                    recv = toks[j - 1].txt
                else:
                    recv_unknown = True
            _record_call(model, f, tok.line, t, tuple(quals), recv,
                         recv_unknown, locals_)
            i += 1
            continue
        i += 1


def _recv_type(model: Model, f: Func, locals_: dict[str, str],
               recv: str) -> str | None:
    if recv in locals_:
        return locals_[recv]
    if f.cls:
        ty = model.members.get(f.cls, {}).get(recv)
        if ty:
            return ty
    # Fall back to the other classes' tables (covers members the function's
    # own table lacks), but only when every class that declares the name
    # agrees on its type: a guess would pin the call to the wrong method.
    types = model.member_types.get(recv, set())
    return next(iter(types)) if len(types) == 1 else None


def _record_call(model: Model, f: Func, line: int, name: str,
                 quals: tuple[str, ...], recv: str | None,
                 recv_unknown: bool, locals_: dict[str, str]) -> None:
    # std-qualified calls -> std model.
    if quals and quals[0] == "std":
        _std_effect(f, line, name)
        return
    if ALLCAPS_RE.match(name):
        return  # macro invocation, not a call edge

    recv_ty = None
    if recv is not None:
        recv_ty = _recv_type(model, f, locals_, recv)
        if recv_ty is None and re.match(r".*mu_?$", recv) and \
                name in LOCK_METHODS:
            f.effects.append(Effect("lock", line,
                                    f"{recv}.{name}() acquires `{recv}`",
                                    cap=recv))
            return
    if recv_ty:
        base = recv_ty.split("::")[-1]
        if recv_ty.startswith("std::") or base in STD_CONTAINERS:
            if base in STD_CONTAINERS:
                if name in ALLOC_METHODS:
                    f.effects.append(Effect(
                        "alloc", line,
                        f"std::{base}::{name} may allocate"))
                if name in BLOCK_METHODS:
                    f.effects.append(Effect(
                        "block", line, f"std::{base}::{name} blocks"))
                if name == "at":
                    f.effects.append(Effect(
                        "throw", line, f"std::{base}::at throws"))
            elif name in BLOCK_METHODS:
                f.effects.append(Effect(
                    "block", line, f"std::{base}::{name} blocks"))
            return
        if base in MUTEX_TYPES and name in LOCK_METHODS:
            f.effects.append(Effect(
                "lock", line, f"{recv}.{name}() acquires `{recv}`",
                cap=recv))
            return
        if base == "CondVar" and name in BLOCK_METHODS:
            f.effects.append(Effect(
                "block", line, f"CondVar::{name} waits"))
            return

    if name in BLOCK_METHODS and (recv is not None or recv_unknown):
        f.effects.append(Effect("block", line,
                                f".{name}() waits/joins"))
        return

    # Project resolution.
    f.calls.append(CallSite(line=line, name=name, quals=quals,
                            recv_type=recv_ty,
                            bare=recv is None and not recv_unknown
                            and not quals))
    # Unqualified free-function calls may also be std effects pulled in via
    # ADL/using — cover the bare C names (printf, fopen, rand, fesetround).
    if recv is None and not quals:
        _std_effect(f, line, name, bare_only=True)


def _std_effect(f: Func, line: int, name: str,
                bare_only: bool = False) -> None:
    if name in STD_ALLOC_FUNCS:
        f.effects.append(Effect("alloc", line, f"std::{name} allocates"))
    if name in STD_BLOCK_FUNCS:
        f.effects.append(Effect("block", line, f"{name} blocks"))
    if name in STD_THROW_FUNCS and not bare_only:
        f.effects.append(Effect("throw", line, f"std::{name} throws"))
    if name in FP_FENV_FUNCS:
        f.effects.append(Effect("fp", line, f"fenv access `{name}`"))
    if name in FP_RAND_FUNCS:
        f.effects.append(Effect("fp", line, f"randomness `{name}`"))
    if name in FP_LIBM_TRANSCENDENTALS and f.rel not in FP_LIBM_SANCTIONED:
        f.effects.append(Effect(
            "fp", line,
            f"raw libm transcendental `{name}` outside "
            f"{FP_LIBM_SANCTIONED[0]} (tiers must funnel through the Vec* "
            f"wrappers)"))


# ---------------------------------------------------------------------------
# Call-graph resolution.
# ---------------------------------------------------------------------------


def resolve_calls(model: Model) -> None:
    for idx, f in enumerate(model.funcs):
        model.by_qname[f.qname] = idx
        if f.cls:
            model.by_method.setdefault((f.cls, f.name), idx)
        model.by_name.setdefault(f.name, []).append(idx)

    for f in model.funcs:
        for c in f.calls:
            target = None
            if c.recv_type:
                base = c.recv_type.split("::")[-1]
                target = model.by_method.get((base, c.name))
            elif c.quals:
                qn = "::".join([*c.quals, c.name])
                target = model.by_qname.get(qn)
                if target is None:
                    target = model.by_method.get((c.quals[-1], c.name))
                if target is None:
                    for qname, idx in model.by_qname.items():
                        if qname.endswith("::" + qn):
                            target = idx
                            break
            else:  # bare
                if f.cls:
                    target = model.by_method.get((f.cls, c.name))
                if target is None:
                    cands = model.by_name.get(c.name, [])
                    free = [i for i in cands if model.funcs[i].cls is None]
                    if len(free) == 1:
                        target = free[0]
                    elif len(cands) == 1:
                        target = cands[0]
            if target is None and c.recv_type is None and not c.bare:
                # Unknown receiver: resolve only if the name is unique
                # project-wide (conservative enough to stay useful).
                cands = model.by_name.get(c.name, [])
                if len(cands) == 1:
                    target = cands[0]
            if target is not None:
                f.edges.append((target, c.line))
                model.resolved_calls += 1
            else:
                model.unresolved_calls += 1


# ---------------------------------------------------------------------------
# Verification: lexical rules, contracts (BFS with witnesses), hygiene.
# ---------------------------------------------------------------------------


def _line_allowed(model: Model, rel: str, line: int, rule: str,
                  whole_function: bool = False) -> bool:
    """Whether a justified marker for `rule` covers rel:line: a line-scope
    marker through its target lines and, with `whole_function`, a
    signature marker through its function's lines."""
    for marker in model.allows:
        if marker.rel != rel or marker.rule != rule or \
                not marker.justification:
            continue
        if marker.scope == "line":
            covered = line in marker.target_lines
        else:
            owner = model.funcs[marker.owner]
            covered = whole_function and \
                owner.sig_line <= line <= owner.body_close
        if covered:
            marker.used = True
            return True
    return False


def _fn_allowed(model: Model, f: Func, rule: str) -> bool:
    if rule in f.fn_allows:
        for marker in model.allows:
            if marker.owner == f.fid and marker.rule == rule:
                marker.used = True
        return True
    return False


def verify(model: Model) -> list[Finding]:
    findings: list[Finding] = []

    for src in model.files.values():
        for rule, (scope, exempt, check) in LEXICAL_RULES.items():
            if not src.rel.startswith(scope) or src.rel.startswith(exempt):
                continue
            for line, msg in check(src):
                if not _line_allowed(model, src.rel, line, rule,
                                     whole_function=True):
                    findings.append(Finding(rule, src.rel, line, msg))
        for rule, (scope, exempt, call_check) in CALL_RULES.items():
            if not src.rel.startswith(scope) or src.rel.startswith(exempt):
                continue
            for line, msg, witness in call_check(model, src):
                if not _line_allowed(model, src.rel, line, rule,
                                     whole_function=True):
                    findings.append(Finding(rule, src.rel, line, msg,
                                            witness=witness))

    for root in model.funcs:
        for rule in RULES:
            if rule not in root.contracts:
                continue
            findings.extend(_check_rule(model, root, rule))

    # HOT functions with no contract at all: warning, not a gate.
    for f in model.funcs:
        if f.hot and not f.contracts:
            model.warnings.append(
                f"{f.rel}:{f.sig_line}: SCRPQO_HOT `{f.qname}` declares no "
                f"effect contract")

    findings.extend(_check_allow_hygiene(model))
    findings.extend(_check_lock_registry(model))
    findings.extend(_check_lock_order(model))
    return findings


def _check_rule(model: Model, root: Func, rule: str) -> list[Finding]:
    findings: list[Finding] = []
    # BFS with parent pointers for shortest witness chains.
    parent: dict[int, tuple[int, int]] = {}  # fid -> (parent fid, call line)
    seen = {root.fid}
    q: deque[int] = deque([root.fid])
    allowed_caps = set(root.lock_caps or []) if rule == "lock" else set()
    reported: set[tuple[str, int]] = set()

    while q:
        fid = q.popleft()
        f = model.funcs[fid]

        for eff in f.effects:
            if eff.rule != rule:
                continue
            if rule == "lock" and eff.cap in allowed_caps:
                continue
            if _line_allowed(model, f.rel, eff.line, rule):
                continue
            key = (f.rel, eff.line)
            if key in reported:
                continue
            reported.add(key)
            witness = _witness(model, parent, root, fid)
            witness.append(f"-> effect at {f.rel}:{eff.line}: {eff.detail}")
            msg = (f"{CONTRACT_FOR_RULE[rule]} contract of `{root.qname}` "
                   f"violated: {eff.detail} reachable in `{f.qname}`")
            if rule == "lock":
                bound = ", ".join(sorted(allowed_caps)) or "<none>"
                msg += f" (allowed capabilities: {bound})"
            findings.append(Finding(rule, f.rel, eff.line, msg,
                                    root=root.qname, function=f.qname,
                                    witness=witness))

        for callee_fid, call_line in f.edges:
            if callee_fid in seen:
                continue
            callee = model.funcs[callee_fid]
            if callee.noreturn:
                continue  # abort paths don't count
            if _fn_allowed(model, callee, rule):
                continue
            if _line_allowed(model, f.rel, call_line, rule):
                continue
            seen.add(callee_fid)
            parent[callee_fid] = (fid, call_line)
            q.append(callee_fid)
    return findings


def _witness(model: Model, parent: dict[int, tuple[int, int]],
             root: Func, fid: int) -> list[str]:
    chain: list[str] = []
    cur = fid
    while cur != root.fid:
        pfid, line = parent[cur]
        f = model.funcs[cur]
        p = model.funcs[pfid]
        chain.append(f"-> {f.qname} (called at {p.rel}:{line})")
        cur = pfid
    chain.append(f"{root.qname} ({root.rel}:{root.sig_line})")
    return list(reversed(chain))


def _check_allow_hygiene(model: Model) -> list[Finding]:
    findings = []
    for marker in model.allows:
        if marker.rule not in ALL_RULES:
            findings.append(Finding(
                "allow", marker.rel, marker.line,
                f"SCRPQO_EFFECT_ALLOW names unknown rule "
                f"`{marker.rule}` (expected one of {', '.join(ALL_RULES)})"))
        elif not marker.justification:
            findings.append(Finding(
                "allow", marker.rel, marker.line,
                "SCRPQO_EFFECT_ALLOW must carry a non-empty string-literal "
                "justification — unexplained escapes are findings"))
    return findings


def _check_lock_registry(model: Model) -> list[Finding]:
    findings = []
    for f in model.funcs:
        for cap in f.lock_caps or []:
            if cap not in model.mutex_members and cap != "mu":
                findings.append(Finding(
                    "lock", f.rel, f.sig_line,
                    f"SCRPQO_LOCK_BOUNDED({cap}) on `{f.qname}` names no "
                    f"declared scrpqo::Mutex/SharedMutex member (typo?)",
                    root=f.qname, function=f.qname))
    return findings


def parse_design_dag(root: str) -> set[tuple[str, str]]:
    """Edges from the DESIGN.md §4g lock-order code fence."""
    path = os.path.join(root, "DESIGN.md")
    edges: set[tuple[str, str]] = set()
    if not os.path.exists(path):
        return edges
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    m = re.search(r"\*\*Lock-order DAG\*\*.*?```(.*?)```", text, re.S)
    if not m:
        # Without the fence the order check would pass on no edges at all.
        raise ConfigError(f"{path} has no **Lock-order DAG** code fence")
    for line in m.group(1).splitlines():
        if "∦" in line or "(" in line or "→" not in line:
            continue
        caps = re.findall(r"[A-Za-z_][\w:]*", line)
        for a, b in zip(caps, caps[1:]):
            if a != b:
                edges.add((a, b))
    return edges


def _check_lock_order(model: Model) -> list[Finding]:
    graph: dict[str, set[str]] = {}
    for a, b in model.order_edges | model.design_edges:
        graph.setdefault(a, set()).add(b)
    state: dict[str, int] = {}
    cycle: list[str] = []

    def dfs(node: str, stack: list[str]) -> bool:
        state[node] = 1
        stack.append(node)
        for nb in graph.get(node, ()):  # pragma: no branch
            if state.get(nb, 0) == 1:
                cycle.extend(stack[stack.index(nb):] + [nb])
                return True
            if state.get(nb, 0) == 0 and dfs(nb, stack):
                return True
        stack.pop()
        state[node] = 2
        return False

    for node in list(graph):
        if state.get(node, 0) == 0 and dfs(node, []):
            return [Finding(
                "lock", "DESIGN.md", 1,
                "lock-order cycle across TSA ACQUIRED_BEFORE annotations "
                "and the DESIGN §4g DAG: " + " -> ".join(cycle))]
    return []


# ---------------------------------------------------------------------------
# Driver: tree analysis, JSON, self-test.
# ---------------------------------------------------------------------------


def build_model(root: str, files: list[str]) -> Model:
    model = Model()
    scanned = []
    for path in files:
        src = load_file(path, root)
        toks = tokenize(src.code_lines)
        scanned.append((src, toks, scan_file(model, src, toks)))
    for src, toks, spans in scanned:
        extract_bodies(model, src, toks, spans)
    resolve_calls(model)
    model.design_edges = parse_design_dag(root)
    return model


def analyze_tree(root: str, compile_db: str | None,
                 json_out: str | None) -> int:
    entries = load_compile_db(compile_db) if compile_db else None
    files = collect_files(root, entries)
    model = build_model(root, files)
    findings = verify(model)
    for tu in scan_fast_math(entries):
        findings.append(Finding(
            "fp", os.path.relpath(tu, root) if os.path.isabs(tu) else tu, 1,
            "compiled with -ffast-math/-funsafe-math-optimizations: "
            "FP results are not reproducible across tiers"))
    findings.sort(key=lambda fnd: (fnd.rel, fnd.line, fnd.rule))

    hot_roots = [f.qname for f in model.funcs if f.hot]
    contracts = {
        f.qname: sorted(f.contracts) +
        ([f"lock_bounded({', '.join(f.lock_caps or [])})"]
         if f.lock_caps is not None else [])
        for f in model.funcs if f.contracts or f.hot
    }
    payload = {
        "tool": "scrpqo_effects",
        "version": 2,
        "root": os.path.abspath(root),
        "stats": {
            "files": len(files),
            "functions": len(model.funcs),
            "call_edges": model.resolved_calls,
            "unresolved_calls": model.unresolved_calls,
            "hot_roots": hot_roots,
            "contracts": contracts,
        },
        "findings": [{
            "rule": fnd.rule, "file": fnd.rel, "line": fnd.line,
            "root_function": fnd.root, "function": fnd.function,
            "message": fnd.message, "witness": fnd.witness,
        } for fnd in findings],
        "allows": [{
            "file": a.rel, "line": a.line, "rule": a.rule,
            "scope": a.scope, "justification": a.justification,
            "used": a.used,
        } for a in model.allows],
        "warnings": model.warnings,
    }
    if json_out:
        os.makedirs(os.path.dirname(os.path.abspath(json_out)), exist_ok=True)
        with open(json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)

    for w in model.warnings:
        print(f"warning: {w}")
    for fnd in findings:
        print(fnd.format())
    n_contracts = sum(len(f.contracts) for f in model.funcs)
    print(f"scrpqo_effects: {len(files)} files, {len(model.funcs)} functions, "
          f"{model.resolved_calls} call edges "
          f"({model.unresolved_calls} unresolved), "
          f"{len(hot_roots)} hot roots, {n_contracts} contracts, "
          f"{len(model.allows)} allows, {len(ALL_RULES)} rules, "
          f"{len(findings)} findings")
    return 1 if findings else 0


def run_self_test(fixture_root: str) -> int:
    files = sorted(
        os.path.join(dp, n)
        for dp, _, ns in os.walk(fixture_root)
        for n in ns if n.endswith((".cc", ".h")))
    if not files:
        raise ConfigError(f"no fixtures under {fixture_root}")
    model = build_model(fixture_root, files)
    findings = verify(model)

    expected: set[tuple[str, int, str]] = set()
    for src in model.files.values():
        for line, rules in src.expects.items():
            for rule in rules:
                expected.add((src.rel, line, rule))
    actual = {(f.rel, f.line, f.rule) for f in findings}

    ok = True
    for miss in sorted(expected - actual):
        print(f"SELF-TEST MISS: expected {miss[2]} at {miss[0]}:{miss[1]}")
        ok = False
    for extra in sorted(actual - expected):
        print(f"SELF-TEST EXTRA: unexpected {extra[2]} at "
              f"{extra[0]}:{extra[1]}")
        for f in findings:
            if (f.rel, f.line, f.rule) == extra:
                print("  " + f.format().replace("\n", "\n  "))
        ok = False

    covered = {rule for _, _, rule in expected}
    for rule in (*ALL_RULES, "allow"):
        if rule not in covered:
            print(f"SELF-TEST GAP: no fixture seeds a `{rule}` violation")
            ok = False
        sanctioned = [a for a in model.allows
                      if a.rule == rule and a.justification and a.used]
        if rule in ALL_RULES and not sanctioned:
            print(f"SELF-TEST GAP: no fixture exercises a sanctioned "
                  f"SCRPQO_EFFECT_ALLOW({rule}) that stays silent")
            ok = False

    # A -p path that does not exist is a configuration error, not a
    # header-only pass.
    try:
        load_compile_db(os.path.join(fixture_root, "no_such_build",
                                     "compile_commands.json"))
        print("SELF-TEST MISS: a missing compilation database was accepted")
        ok = False
    except ConfigError:
        pass
    # `-p <build dir>` (the clang tools' convention) reads the directory's
    # compile_commands.json; a directory without one is a configuration
    # error as well.
    with tempfile.TemporaryDirectory() as build_dir:
        try:
            load_compile_db(build_dir)
            print("SELF-TEST MISS: a build directory without a compilation "
                  "database was accepted")
            ok = False
        except ConfigError:
            pass
        with open(os.path.join(build_dir, "compile_commands.json"), "w",
                  encoding="utf-8") as fh:
            json.dump([{"directory": build_dir, "file": "a.cc"}], fh)
        try:
            if len(load_compile_db(build_dir)) != 1:
                raise ConfigError("wrong entry count")
        except ConfigError as exc:
            print(f"SELF-TEST MISS: -p <build dir> did not read its "
                  f"compile_commands.json ({exc})")
            ok = False

    print(f"self-test: {len(files)} fixtures, {len(model.funcs)} functions, "
          f"{len(findings)} findings, {len(expected)} expected, "
          f"{len(ALL_RULES)} rules" + (" — OK" if ok else " — FAIL"))
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("-p", dest="compile_db", default=None,
                    help="the build directory or its compile_commands.json: "
                         "its TUs under src/ are the file set")
    ap.add_argument("--json", default=None,
                    help="write findings, stats and allows here")
    ap.add_argument("--self-test", action="store_true",
                    help="reconcile the fixtures under testdata/")
    args = ap.parse_args(argv)
    try:
        if args.self_test:
            return run_self_test(FIXTURES)
        return analyze_tree(args.root, args.compile_db, args.json)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
