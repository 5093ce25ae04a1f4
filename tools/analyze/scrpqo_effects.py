#!/usr/bin/env python3
"""Whole-program effect analyzer for the scrpqo tree.

Where tools/lint/scrpqo_lint.py enforces *per-line lexical* invariants,
this tool proves *transitive* contracts over the real project call graph:
it extracts every function definition under src/, computes a direct
effect lattice per function, propagates effects along call edges, and
verifies the contracts declared with the src/common/effects.h macros —

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

Escapes are `SCRPQO_EFFECT_ALLOW(rule, "justification")` markers. The
justification must be a non-empty string literal — an empty one is itself
a gating finding (rule `allow`), so no escape is ever silent. A marker on
a function's signature sanctions the rule for the whole function and
stops traversal into its callees; a marker on its own line covers the
next non-blank line; trailing a statement it covers that line.

Every violation is reported with a shortest call-chain witness from the
annotated root to the offending effect site, plus machine-readable JSON
(--json) for the CI artifact.

Cross-checks beyond the contracts themselves:
  - every SCRPQO_LOCK_BOUNDED capability must name a declared
    scrpqo::Mutex/SharedMutex member (typo guard against the PR 6 TSA map);
  - the TSA ACQUIRED_BEFORE edges plus the DESIGN.md §4g lock-order DAG
    must be mutually consistent (their union acyclic);
  - compile commands are scanned for -ffast-math / -funsafe-math
    (non-reproducible FP at the flag level).

Division of labour with the lint (dedupe contract): allocation sites on
lines inside `// scrpqo-lint: hot-path begin/end` fences are REPORTED BY
THE LINT ONLY — this tool records them under `delegated_to_lint` in the
JSON and keeps traversing through them, so each allocation finding is
owned by exactly one tool while transitive coverage stays complete.

Engines: the gating engine is pure-lexical (stdlib only) so the check
runs in any build environment. When the libclang Python bindings are
importable, `--engine clang` cross-checks the lexical call graph against
the AST (missing-edge detection); the lexical engine is the one CI
gates on, mirroring the lint's arrangement.

Usage:
  scrpqo_effects.py --root <repo> [-p build/compile_commands.json]
                    [--json out.json] [--engine lexical|clang|auto]
  scrpqo_effects.py --self-test
Exit status: 0 = contracts proven, 1 = findings, 2 = usage/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import deque
from dataclasses import dataclass, field

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, "..", "lint"))
try:
    from scrpqo_lint import (  # noqa: E402
        ALLOC_HOTPATH_SCOPE,
        HOT_BEGIN_RE,
        HOT_END_RE,
        _strip_comments_and_strings,
    )
except ImportError as exc:  # pragma: no cover - repo layout is fixed
    sys.stderr.write(f"error: cannot import tools/lint/scrpqo_lint.py: {exc}\n")
    sys.exit(2)

RULES = ("alloc", "lock", "block", "throw", "fp")

CONTRACT_FOR_RULE = {
    "alloc": "SCRPQO_NOALLOC",
    "block": "SCRPQO_NONBLOCKING",
    "throw": "SCRPQO_NOTHROW",
    "fp": "SCRPQO_FP_DETERMINISTIC",
    "lock": "SCRPQO_LOCK_BOUNDED",
}

ALLOW_RE = re.compile(r"\bSCRPQO_EFFECT_ALLOW\s*\(\s*([a-z]+)\s*,")
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

GUARD_TYPES = {"MutexLock", "ReaderMutexLock", "WriterMutexLock", "ShardLock"}
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
    code_lines: list[str]
    hot_fences: list[tuple[int, int]]  # inclusive 1-based line ranges
    expects: dict[int, set[str]]


# ---------------------------------------------------------------------------
# File loading & collection.
# ---------------------------------------------------------------------------


def load_file(path: str, root: str) -> SourceFile:
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    raw_lines = text.splitlines()
    code_lines = _strip_comments_and_strings(text).splitlines()
    while len(code_lines) < len(raw_lines):
        code_lines.append("")
    fences: list[tuple[int, int]] = []
    start = None
    for idx, raw in enumerate(raw_lines, start=1):
        if HOT_BEGIN_RE.search(raw):
            start = idx
        elif HOT_END_RE.search(raw) and start is not None:
            fences.append((start, idx))
            start = None
    if start is not None:
        fences.append((start, len(raw_lines)))
    expects: dict[int, set[str]] = {}
    for idx, raw in enumerate(raw_lines, start=1):
        for m in EXPECT_RE.finditer(raw):
            target = idx + 1 if raw.split("//", 1)[0].strip() == "" else idx
            expects.setdefault(target, set()).add(m.group(1))
    return SourceFile(os.path.relpath(path, root), raw_lines, code_lines,
                      fences, expects)


def collect_files(root: str, compile_db: str | None,
                  subdir: str = "src") -> list[str]:
    """File set = compile_commands TUs under root/subdir plus every header
    under root/subdir (headers are not TUs). Falls back to a plain walk
    when no database is available."""
    files: set[str] = set()
    base = os.path.join(root, subdir)
    if compile_db and os.path.exists(compile_db):
        with open(compile_db, encoding="utf-8") as f:
            try:
                entries = json.load(f)
            except json.JSONDecodeError as exc:
                sys.stderr.write(f"error: bad compile db {compile_db}: {exc}\n")
                sys.exit(2)
        for entry in entries:
            p = entry.get("file", "")
            if not os.path.isabs(p):
                p = os.path.normpath(os.path.join(entry.get("directory", ""), p))
            p = os.path.realpath(p)
            if p.startswith(os.path.realpath(base) + os.sep):
                files.add(p)
    for dirpath, _, names in os.walk(base):
        for name in names:
            if name.endswith(".h"):
                files.add(os.path.realpath(os.path.join(dirpath, name)))
            elif name.endswith(".cc") and not (compile_db and files):
                files.add(os.path.realpath(os.path.join(dirpath, name)))
    # A db that exists but matched nothing under src/ would silently
    # analyze headers only; treat as a config error.
    if compile_db and os.path.exists(compile_db):
        if not any(p.endswith(".cc") for p in files):
            sys.stderr.write(
                f"error: {compile_db} contains no TUs under {base}\n")
            sys.exit(2)
    return sorted(files)


def scan_fast_math(compile_db: str | None) -> list[str]:
    if not compile_db or not os.path.exists(compile_db):
        return []
    with open(compile_db, encoding="utf-8") as f:
        try:
            entries = json.load(f)
        except json.JSONDecodeError:
            return []
    bad = []
    for entry in entries:
        cmd = entry.get("command") or " ".join(entry.get("arguments", []))
        if "-ffast-math" in cmd or "-funsafe-math-optimizations" in cmd:
            bad.append(entry.get("file", "?"))
    return bad


# ---------------------------------------------------------------------------
# Tokenizing + function extraction (the lexical call-graph engine).
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
            if w == ">":
                # operator> etc or templated call; look for 'operator'.
                return None
            if w == "operator" or (m >= 2 and toks[m - 2].txt == "operator"):
                return None  # operators carry no contracts here
            return None
        # Anything else before '{' that isn't a qualifier: not a function.
        return None
    return None


def _stmt_has(toks: list[Token], stmt: int, brace: int, kws: set[str]) -> str | None:
    for j in range(stmt, brace):
        if toks[j].txt in kws:
            return toks[j].txt
    return None


@dataclass
class ClassScope:
    name: str
    members: dict[str, str] = field(default_factory=dict)


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
    t = t.strip()
    for wrapper in ("std::unique_ptr", "std::shared_ptr", "std::optional",
                    "std::atomic"):
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
        self.mutex_members: set[str] = set()  # declared capability names
        self.order_edges: set[tuple[str, str]] = set()  # ACQUIRED_BEFORE
        self.allows: list[AllowMarker] = []
        self.by_qname: dict[str, int] = {}
        self.by_method: dict[tuple[str, str], int] = {}
        self.by_name: dict[str, list[int]] = {}
        self.unresolved_calls: int = 0
        self.resolved_calls: int = 0
        self.delegated: list[dict] = []
        self.warnings: list[str] = []


ACQ_RE = re.compile(
    r"\b(?:Mutex|SharedMutex)\s+(\w+)\s+ACQUIRED_(BEFORE|AFTER)\(([^)]*)\)")
MUTEX_DECL_RE = re.compile(
    r"\b(?:mutable\s+)?(?:Mutex|SharedMutex)\s+(\w+)\s*[;A-Z]")


def extract_file(model: Model, src: SourceFile) -> None:
    toks = tokenize(src.code_lines)
    model.files[src.rel] = src

    # Mutex capability registry + ACQUIRED_BEFORE edges (whole file).
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

    # Scope walk: classes (member tables) + function definitions.
    scope: list[tuple[str, object]] = []  # (kind, payload)
    i = 0
    n = len(toks)
    func_spans: list[tuple[int, int, Func]] = []  # token spans for pass 2
    while i < n:
        t = toks[i].txt
        if t == "{":
            stmt = _stmt_start(toks, i)
            kw = _stmt_has(toks, stmt, i, {"namespace", "class", "struct",
                                           "union", "enum"})
            fn = _classify_function(toks, stmt, i)
            if fn is not None and kw is None:
                name, quals, _ = fn
                class_path = [p for k, p in
                              ((kk, pp.name if isinstance(pp, ClassScope)
                                else pp) for kk, pp in scope)
                              if k in ("namespace", "class") and p]
                qname = "::".join([*class_path, *quals, name])
                cls = quals[-1] if quals else next(
                    (s[1].name for s in reversed(scope) if s[0] == "class"),
                    None)
                sig_line = toks[stmt].line
                raw_sig = "\n".join(
                    src.raw_lines[sig_line - 1:toks[i].line])
                f = Func(
                    fid=len(model.funcs), qname=qname, name=name, cls=cls,
                    rel=src.rel, sig_line=sig_line, body_open=toks[i].line,
                    body_close=0, sig_text=raw_sig)
                close = _match_fwd(toks, i)
                f.body_close = toks[close].line
                model.funcs.append(f)
                func_spans.append((i + 1, close, f))
                scope.append(("function", f))
            elif kw == "namespace":
                nm = ""
                for j in range(stmt, i):
                    if toks[j].txt == "namespace" and j + 1 < i and \
                            re.match(r"[A-Za-z_]\w*$", toks[j + 1].txt):
                        nm = toks[j + 1].txt
                scope.append(("namespace", nm))
            elif kw in ("class", "struct", "union"):
                nm = ""
                for j in range(stmt, i):
                    if toks[j].txt == kw:
                        jj = j + 1
                        while jj < i and (ALLCAPS_RE.match(toks[jj].txt) or
                                          toks[jj].txt in ("final",)):
                            jj += 1
                        if jj < i and re.match(r"[A-Za-z_]\w*$", toks[jj].txt):
                            nm = toks[jj].txt
                        break
                scope.append(("class", ClassScope(nm)))
            else:
                scope.append(("block", None))
        elif t == "}":
            if scope:
                kind, payload = scope.pop()
                if kind == "class" and isinstance(payload, ClassScope) \
                        and payload.name:
                    model.members.setdefault(payload.name, {}).update(
                        payload.members)
        i += 1

    # Member tables: per class scope, parse decl lines lying directly in
    # the class body (not inside nested function bodies).
    _fill_member_tables(model, src, toks)

    # Contracts + allows per function, then body effects/calls.
    for span_start, span_end, f in func_spans:
        _parse_contracts(model, src, f)
        _extract_body(model, src, toks, span_start, span_end, f)

    # File-scope allows not attached to any function signature: line scope.
    _collect_line_allows(model, src)


def _fill_member_tables(model: Model, src: SourceFile, toks: list[Token]) -> None:
    # Re-walk scopes cheaply: record line ranges of class bodies and of
    # function bodies; member decls = class-body lines minus function-body
    # lines.
    class_ranges: list[tuple[str, int, int]] = []
    func_ranges: list[tuple[int, int]] = []
    scope: list[tuple[str, str, int]] = []
    i = 0
    while i < len(toks):
        t = toks[i].txt
        if t == "{":
            stmt = _stmt_start(toks, i)
            kw = _stmt_has(toks, stmt, i, {"namespace", "class", "struct",
                                           "union", "enum"})
            fn = _classify_function(toks, stmt, i)
            if fn is not None and kw is None:
                scope.append(("function", "", toks[i].line))
            elif kw in ("class", "struct", "union"):
                nm = ""
                for j in range(stmt, i):
                    if toks[j].txt == kw and j + 1 < i and \
                            re.match(r"[A-Za-z_]\w*$", toks[j + 1].txt):
                        nm = toks[j + 1].txt
                        break
                scope.append(("class", nm, toks[i].line))
            else:
                scope.append(("block", "", toks[i].line))
        elif t == "}":
            if scope:
                kind, nm, open_line = scope.pop()
                if kind == "class" and nm:
                    class_ranges.append((nm, open_line, toks[i].line))
                elif kind == "function":
                    func_ranges.append((open_line, toks[i].line))
        i += 1
    for nm, lo, hi in class_ranges:
        lines = []
        for ln in range(lo, hi + 1):
            if any(flo < ln < fhi for flo, fhi in func_ranges):
                continue
            lines.append(src.code_lines[ln - 1] if ln - 1 < len(src.code_lines)
                         else "")
        model.members.setdefault(nm, {}).update(parse_decl_types(lines))


CONTRACT_TOKENS = {
    "SCRPQO_HOT": "hot",
    "SCRPQO_NOALLOC": "alloc",
    "SCRPQO_NONBLOCKING": "block",
    "SCRPQO_NOTHROW": "throw",
    "SCRPQO_FP_DETERMINISTIC": "fp",
}
LOCK_BOUNDED_RE = re.compile(r"\bSCRPQO_LOCK_BOUNDED\(([^)]*)\)")
ALLOW_FULL_RE = re.compile(
    r"\bSCRPQO_EFFECT_ALLOW\s*\(\s*([a-z]+)\s*,\s*(\"(?:[^\"\\]|\\.)*\")?")


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
    f._local_types = locals_  # type: ignore[attr-defined]

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
    # Fall back: search every class the function's file declared (covers
    # out-of-line definitions whose class table lives in the header).
    for members in model.members.values():
        if recv in members:
            return members[recv]
    return None


def _record_call(model: Model, f: Func, line: int, name: str,
                 quals: tuple[str, ...], recv: str | None,
                 recv_unknown: bool, locals_: dict[str, str]) -> None:
    # std-qualified calls -> std model.
    if quals and quals[0] == "std":
        _std_effect(model, f, line, name, f.rel)
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
        _std_effect(model, f, line, name, f.rel, bare_only=True)


def _std_effect(model: Model, f: Func, line: int, name: str, rel: str,
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
    if name in FP_LIBM_TRANSCENDENTALS and rel not in FP_LIBM_SANCTIONED:
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
# Contract verification (BFS with witnesses).
# ---------------------------------------------------------------------------


def _line_allowed(model: Model, rel: str, line: int, rule: str) -> bool:
    for marker in model.allows:
        if marker.scope != "line" or marker.rel != rel:
            continue
        if marker.rule == rule and marker.justification and \
                line in marker.target_lines:
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


def _in_fence(src: SourceFile | None, line: int) -> bool:
    if src is None:
        return False
    return any(lo <= line <= hi for lo, hi in src.hot_fences)


# Imported from the lint so the ownership boundary cannot drift: the lint
# owns direct allocations on fenced lines under these prefixes, the
# analyzer owns everything else (including transitive reachability).
LINT_ALLOC_SCOPE = ALLOC_HOTPATH_SCOPE


def verify_contracts(model: Model) -> list[Finding]:
    findings: list[Finding] = []

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
        src = model.files.get(f.rel)

        for eff in f.effects:
            if eff.rule != rule:
                continue
            if rule == "lock" and eff.cap in allowed_caps:
                continue
            if _line_allowed(model, f.rel, eff.line, rule):
                continue
            if rule == "alloc" and _in_fence(src, eff.line) and \
                    f.rel.startswith(LINT_ALLOC_SCOPE):
                model.delegated.append({
                    "rule": rule, "file": f.rel, "line": eff.line,
                    "detail": eff.detail, "root": root.qname,
                    "owner": "scrpqo_lint.alloc-in-hotpath"})
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
        if marker.rule not in RULES:
            findings.append(Finding(
                "allow", marker.rel, marker.line,
                f"SCRPQO_EFFECT_ALLOW names unknown rule "
                f"`{marker.rule}` (expected one of {', '.join(RULES)})"))
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
        return edges
    for line in m.group(1).splitlines():
        if "∦" in line or "(" in line or "→" not in line:
            continue
        caps = re.findall(r"[A-Za-z_][\w:]*", line)
        for a, b in zip(caps, caps[1:]):
            if a != b:
                edges.add((a, b))
    return edges


def _check_lock_order(model: Model) -> list[Finding]:
    edges = set(model.order_edges) | model.design_edges  # type: ignore
    graph: dict[str, set[str]] = {}
    for a, b in edges:
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
# Optional libclang refinement (never the gate; mirrors the lint).
# ---------------------------------------------------------------------------


def try_clang_engine(compile_db: str | None) -> str | None:
    try:
        import clang.cindex  # noqa: F401
    except ImportError:
        return None
    return "available"


# ---------------------------------------------------------------------------
# Driver: tree analysis, JSON, self-test.
# ---------------------------------------------------------------------------


def build_model(root: str, files: list[str]) -> Model:
    model = Model()
    for path in files:
        extract_file(model, load_file(path, root))
    resolve_calls(model)
    model.design_edges = parse_design_dag(root)  # type: ignore[attr-defined]
    return model


def analyze_tree(root: str, compile_db: str | None,
                 json_out: str | None, engine: str) -> int:
    files = collect_files(root, compile_db)
    if not files:
        sys.stderr.write(f"error: no sources found under {root}/src\n")
        return 2
    model = build_model(root, files)
    findings = verify_contracts(model)
    for tu in scan_fast_math(compile_db):
        findings.append(Finding(
            "fp", os.path.relpath(tu, root) if os.path.isabs(tu) else tu, 1,
            "compiled with -ffast-math/-funsafe-math-optimizations: "
            "FP results are not reproducible across tiers"))

    clang_state = try_clang_engine(compile_db) if engine in ("auto", "clang") \
        else None
    if engine == "clang" and clang_state is None:
        sys.stderr.write("warning: libclang unavailable; lexical engine "
                         "remains the gate\n")

    hot_roots = [f.qname for f in model.funcs if f.hot]
    contracts = {
        f.qname: sorted(f.contracts) +
        ([f"lock_bounded({', '.join(f.lock_caps or [])})"]
         if f.lock_caps is not None else [])
        for f in model.funcs if f.contracts or f.hot
    }
    payload = {
        "tool": "scrpqo_effects",
        "version": 1,
        "engine": "lexical" + ("+clang" if clang_state else ""),
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
        "delegated_to_lint": model.delegated,
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
          f"{len(model.delegated)} findings delegated to the lint, "
          f"{len(findings)} findings")
    return 1 if findings else 0


def run_self_test(fixture_root: str) -> int:
    files = sorted(
        os.path.join(dp, n)
        for dp, _, ns in os.walk(fixture_root)
        for n in ns if n.endswith((".cc", ".h")))
    if not files:
        sys.stderr.write(f"error: no fixtures under {fixture_root}\n")
        return 2
    model = build_model(fixture_root, files)
    findings = verify_contracts(model)

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
    for rule in (*RULES, "allow"):
        if rule not in covered:
            print(f"SELF-TEST GAP: no fixture seeds a `{rule}` violation")
            ok = False
        sanctioned = [a for a in model.allows
                      if a.rule == rule and a.justification and a.used]
        if rule in RULES and not sanctioned:
            print(f"SELF-TEST GAP: no fixture exercises a sanctioned "
                  f"SCRPQO_EFFECT_ALLOW({rule}) that stays silent")
            ok = False

    # The dedupe contract: at least one fixture allocation inside a lint
    # hot-path fence must be delegated, not reported.
    if not model.delegated:
        print("SELF-TEST GAP: no fixture exercises lint delegation "
              "(alloc inside a hot-path fence)")
        ok = False

    print(f"self-test: {len(files)} fixtures, {len(model.funcs)} functions, "
          f"{len(findings)} findings, {len(expected)} expected, "
          f"{len(model.delegated)} delegated"
          + (" — OK" if ok else " — FAIL"))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".")
    ap.add_argument("-p", "--compile-db", default=None,
                    help="compile_commands.json (preferred file source)")
    ap.add_argument("--json", default=None, help="findings JSON output path")
    ap.add_argument("--engine", choices=("lexical", "clang", "auto"),
                    default="auto")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--fixture-root",
                    default=os.path.join(_HERE, "testdata"))
    args = ap.parse_args()
    if args.self_test:
        return run_self_test(args.fixture_root)
    return analyze_tree(args.root, args.compile_db, args.json, args.engine)


if __name__ == "__main__":
    sys.exit(main())
