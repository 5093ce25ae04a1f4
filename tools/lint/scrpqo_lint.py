#!/usr/bin/env python3
"""Project-specific concurrency lint for the scrpqo tree.

Five rules, each encoding an invariant the thread-safety annotations
(common/thread_annotations.h) cannot express on their own:

  atomic-order             In the serving layers (src/pqo/, src/obs/) every
                           std::atomic load/store/fetch_*/exchange/CAS must
                           name an explicit std::memory_order. A bare
                           `x.load()` silently buys a seq_cst fence on the
                           getPlan hot path. Use RelaxedCounter (which
                           spells its mutators value()/Store()/Add()) or
                           pass the order explicitly.

  blocking-under-lock      In src/pqo/ no blocking call — engine Optimize,
                           sink fan-out (Consume/Flush), stream/file I/O,
                           sleeps, thread joins — may run while a Mutex /
                           SharedMutex scope is active. A template or shard
                           lock held across an optimizer call serializes
                           every concurrent request on that template.

  tracer-record-outside-obs  RingTracer::Record is called directly only inside
                           src/obs/ (the capture layer itself). Everyone
                           else goes through EmitDecisionEvent (obs/emit.h)
                           so capture policy has exactly one funnel.

  nodiscard-status         Every class/struct definition named Status or
                           Result in src/common/ carries [[nodiscard]]: a
                           dropped Status is a swallowed error.

  raw-mutex                std::mutex / std::shared_mutex /
                           std::condition_variable / std::lock_guard /
                           std::unique_lock / std::scoped_lock /
                           std::shared_lock appear nowhere in src/ outside
                           common/thread_annotations.h. Raw primitives are
                           invisible to the thread-safety analysis and
                           silently exempt every field they guard.

  alloc-in-hotpath         In src/pqo/ regions fenced by
                           `// scrpqo-lint: hot-path begin` ...
                           `// scrpqo-lint: hot-path end` (the
                           getPlan-reachable reuse path, e.g.
                           Scr::TryReuse) no heap allocation may appear:
                           `new`, std::make_unique / make_shared,
                           std::vector / std::string / std::map
                           construction. Scratch belongs in the thread's
                           ScratchArena (ArenaVec) so the warmed path
                           stays allocation-free — the property the
                           arena-watermark test asserts.

Suppression: append `// scrpqo-lint: allow(<rule>)` to the offending line
(or place it alone on the immediately preceding line). Every suppression
should carry a justification in a nearby comment.

Self-test: fixtures under tools/lint/testdata/ mark each seeded violation
with `// scrpqo-lint: expect(<rule>)`; `--self-test` verifies the engine
reports exactly the expected findings (and honors the allow() fixtures).

Engines: the default engine is lexical (no dependencies beyond the
standard library) so the lint runs in any build environment. When the
libclang Python bindings are importable, `--engine clang` refines
atomic-order and tracer-record-outside-obs with real AST receiver types;
the lexical engine is the one CI gates on.

Usage:
  scrpqo_lint.py --root <repo> [-p build/compile_commands.json]
  scrpqo_lint.py --self-test
Exit status: 0 = clean, 1 = findings, 2 = usage/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

RULES = (
    "atomic-order",
    "blocking-under-lock",
    "tracer-record-outside-obs",
    "nodiscard-status",
    "raw-mutex",
    "alloc-in-hotpath",
)

# --------------------------------------------------------------------------
# Source model: comment-stripped lines with allow()/expect() markers.
# --------------------------------------------------------------------------

ALLOW_RE = re.compile(r"//\s*scrpqo-lint:\s*allow\(([a-z0-9-]+)\)")
EXPECT_RE = re.compile(r"//\s*scrpqo-lint:\s*expect\(([a-z0-9-]+)\)")


@dataclass
class SourceFile:
    path: str
    rel: str
    raw_lines: list[str]
    code_lines: list[str]  # comments and string literals blanked
    allows: dict[int, set[str]]  # 1-based line -> allowed rules
    expects: dict[int, set[str]]  # 1-based line -> expected rules


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
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
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
                        out.append(
                            "".join(
                                ch if ch == "\n" else " "
                                for ch in text[i:end]
                            )
                        )
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
                out.append("\n")
            else:
                out.append(" ")
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


def load_source(path: str, root: str) -> SourceFile:
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    raw_lines = text.splitlines()
    code_lines = _strip_comments_and_strings(text).splitlines()
    while len(code_lines) < len(raw_lines):
        code_lines.append("")
    allows: dict[int, set[str]] = {}
    expects: dict[int, set[str]] = {}
    for idx, line in enumerate(raw_lines, start=1):
        for m in ALLOW_RE.finditer(line):
            # An allow on its own line covers the next line; inline covers
            # its own line.
            target = idx + 1 if line.split("//", 1)[0].strip() == "" else idx
            allows.setdefault(target, set()).add(m.group(1))
        for m in EXPECT_RE.finditer(line):
            target = idx + 1 if line.split("//", 1)[0].strip() == "" else idx
            expects.setdefault(target, set()).add(m.group(1))
    rel = os.path.relpath(path, root)
    return SourceFile(path, rel, raw_lines, code_lines, allows, expects)


@dataclass
class Finding:
    rule: str
    rel: str
    line: int  # 1-based
    message: str

    def format(self) -> str:
        return f"{self.rel}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Rule: atomic-order
# --------------------------------------------------------------------------

ATOMIC_CALL_RE = re.compile(
    r"[\w\)\]>]\s*(?:\.|->)\s*"
    r"(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\("
)
MEMORY_ORDER_RE = re.compile(r"std::memory_order|memory_order_")


def _span_call(lines: list[str], start_idx: int, open_pos: int) -> tuple[str, int]:
    """Returns the full argument text of a call whose '(' is at
    (start_idx, open_pos) in `lines` (0-based idx), plus the 0-based index
    of the line where it closes. Scans at most 12 lines."""
    depth = 0
    collected = []
    for idx in range(start_idx, min(start_idx + 12, len(lines))):
        line = lines[idx]
        pos = open_pos if idx == start_idx else 0
        for j in range(pos, len(line)):
            ch = line[j]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    collected.append(line[pos : j + 1])
                    return "".join(collected), idx
        collected.append(line[pos:])
    return "".join(collected), min(start_idx + 11, len(lines) - 1)


def check_atomic_order(src: SourceFile) -> list[Finding]:
    if not (src.rel.startswith("src/pqo/") or src.rel.startswith("src/obs/")):
        return []
    findings = []
    for idx, line in enumerate(src.code_lines):
        for m in ATOMIC_CALL_RE.finditer(line):
            method = m.group(1)
            # RelaxedCounter spells its mutators Store/Add/value, so any
            # .store/.load match here is a raw std::atomic (or an atomic
            # wrapper faking the std interface, equally suspect).
            open_pos = m.end() - 1
            args, _ = _span_call(src.code_lines, idx, open_pos)
            if MEMORY_ORDER_RE.search(args):
                continue
            findings.append(
                Finding(
                    "atomic-order",
                    src.rel,
                    idx + 1,
                    f"atomic {method}() without an explicit std::memory_order "
                    "(default seq_cst fences the hot path; say the order or "
                    "use RelaxedCounter)",
                )
            )
    return findings


# --------------------------------------------------------------------------
# Rule: blocking-under-lock
# --------------------------------------------------------------------------

# Scope-guard declarations: `MutexLock l(mu);` and friends.
GUARD_DECL_RE = re.compile(
    r"\b(MutexLock|ReaderMutexLock|WriterMutexLock|ShardLock)\s+\w+\s*\("
)
MANUAL_LOCK_RE = re.compile(r"\b([\w.\->]+?)\s*(?:\.|->)\s*Lock(?:Shared)?\s*\(\s*\)")
MANUAL_UNLOCK_RE = re.compile(
    r"\b([\w.\->]+?)\s*(?:\.|->)\s*Unlock(?:Shared)?\s*\(\s*\)"
)

BLOCKING_CALL_RE = re.compile(
    r"(?:"
    r"\b\w+\s*(?:\.|->)\s*(Optimize|Consume|Flush|ObserveDrop|join)\s*\(|"
    r"\bstd::this_thread::(sleep_for|sleep_until)\b|"
    r"\bstd::(getline|fopen|ifstream|ofstream|fstream)\b|"
    r"\b(printf|fprintf|fwrite|fread|fputs)\s*\("
    r")"
)


def check_blocking_under_lock(src: SourceFile) -> list[Finding]:
    if not src.rel.startswith("src/pqo/"):
        return []
    findings = []
    # Track lock scopes with a brace stack. Each entry records whether the
    # brace opened a namespace scope: when only namespace braces remain
    # open we are between functions, which resets the manual Lock()/
    # Unlock() pairing (a ctor that hands its lock to the dtor, like
    # ShardLock, must not poison the rest of the file). A guard declared
    # at stack depth d is active until a `}` takes the stack below d — a
    # nested sub-scope closing back TO d keeps the lock held.
    brace_stack: list[bool] = []  # True = namespace brace
    guard_depths: list[int] = []
    manual_locks: list[str] = []
    ns_re = re.compile(r"\s*(?:inline\s+)?namespace\b")
    for idx, line in enumerate(src.code_lines):
        line_had_guard = False
        if GUARD_DECL_RE.search(line):
            guard_depths.append(len(brace_stack))
            line_had_guard = True
        for m in MANUAL_LOCK_RE.finditer(line):
            manual_locks.append(m.group(1))
        for m in MANUAL_UNLOCK_RE.finditer(line):
            obj = m.group(1)
            if obj in manual_locks:
                manual_locks.remove(obj)
        locked = bool(guard_depths) or bool(manual_locks)
        if locked and not line_had_guard:
            bm = BLOCKING_CALL_RE.search(line)
            if bm:
                what = next(g for g in bm.groups() if g)
                findings.append(
                    Finding(
                        "blocking-under-lock",
                        src.rel,
                        idx + 1,
                        f"blocking call `{what}` while a lock scope is "
                        "active (move the call outside the critical "
                        "section)",
                    )
                )
        # Apply brace deltas after the check so a guard's own line counts
        # as inside its scope only from the next line on. Only the first
        # `{` of a `namespace ... {` line is the namespace brace.
        ns_brace_pending = bool(ns_re.match(line))
        for ch in line:
            if ch == "{":
                brace_stack.append(ns_brace_pending)
                ns_brace_pending = False
            elif ch == "}":
                if brace_stack:
                    brace_stack.pop()
                while guard_depths and len(brace_stack) < guard_depths[-1]:
                    guard_depths.pop()
        if all(brace_stack):  # only namespace scopes (or nothing) open
            manual_locks.clear()
            guard_depths.clear()
    return findings


# --------------------------------------------------------------------------
# Rule: tracer-record-outside-obs
# --------------------------------------------------------------------------

RECORD_CALL_RE = re.compile(r"([\w.\->]*tracer[\w.\->]*)\s*(?:\.|->)\s*Record\s*\(", re.IGNORECASE)


def check_tracer_record(src: SourceFile) -> list[Finding]:
    if not src.rel.startswith("src/") or src.rel.startswith("src/obs/"):
        return []
    findings = []
    for idx, line in enumerate(src.code_lines):
        m = RECORD_CALL_RE.search(line)
        if m:
            findings.append(
                Finding(
                    "tracer-record-outside-obs",
                    src.rel,
                    idx + 1,
                    f"direct RingTracer::Record via `{m.group(1)}` outside "
                    "src/obs/ — route through EmitDecisionEvent "
                    "(obs/emit.h)",
                )
            )
    return findings


# --------------------------------------------------------------------------
# Rule: nodiscard-status
# --------------------------------------------------------------------------

STATUS_DEF_RE = re.compile(r"\b(class|struct)\s+(Status|Result)\b[^;]*$")


def check_nodiscard_status(src: SourceFile) -> list[Finding]:
    if not src.rel.startswith("src/common/"):
        return []
    findings = []
    for idx, line in enumerate(src.code_lines):
        m = STATUS_DEF_RE.search(line)
        if not m:
            continue
        # Skip forward declarations (`class Status;`) — the regex already
        # rejects lines ending in `;`, but re-check after whitespace.
        if re.search(r"\b(class|struct)\s+(Status|Result)\s*(<[^>]*>)?\s*;", line):
            continue
        if "[[nodiscard]]" not in src.raw_lines[idx]:
            findings.append(
                Finding(
                    "nodiscard-status",
                    src.rel,
                    idx + 1,
                    f"{m.group(1)} {m.group(2)} defined without "
                    "[[nodiscard]] — a dropped error object is a "
                    "swallowed failure",
                )
            )
    return findings


# --------------------------------------------------------------------------
# Rule: raw-mutex
# --------------------------------------------------------------------------

RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b"
)


def check_raw_mutex(src: SourceFile) -> list[Finding]:
    if not src.rel.startswith("src/"):
        return []
    if src.rel == "src/common/thread_annotations.h":
        return []
    findings = []
    for idx, line in enumerate(src.code_lines):
        m = RAW_MUTEX_RE.search(line)
        if m:
            findings.append(
                Finding(
                    "raw-mutex",
                    src.rel,
                    idx + 1,
                    f"raw std::{m.group(1)} — use the annotated primitives "
                    "in common/thread_annotations.h (raw sync objects are "
                    "invisible to the thread-safety analysis)",
                )
            )
    return findings


# --------------------------------------------------------------------------
# Rule: alloc-in-hotpath
# --------------------------------------------------------------------------

# Path prefixes where the alloc-in-hotpath rule is live. The effect
# analyzer (tools/analyze/scrpqo_effects.py) imports this: a direct
# allocation on a fenced line under these prefixes is OWNED by this lint
# and reported by the analyzer only as "delegated", never double-reported.
ALLOC_HOTPATH_SCOPE = ("src/pqo/",)

HOT_BEGIN_RE = re.compile(r"//\s*scrpqo-lint:\s*hot-path\s+begin\b")
HOT_END_RE = re.compile(r"//\s*scrpqo-lint:\s*hot-path\s+end\b")

# Heap-allocating constructs. `\bnew\b` does not match identifiers like
# `new_cost` (underscore continues the word); placement/new-expression
# distinctions don't matter — any `new` in a hot region is wrong.
ALLOC_RE = re.compile(
    r"(?:"
    r"\bnew\b(?!\s*\()\s*[\w:<]|"           # new T / new T[n]
    r"\bstd::make_(?:unique|shared)\b|"
    r"\bstd::(?:vector|deque|list|map|set|unordered_map|"
    r"unordered_set)\s*<[^;]*>\s*\w+\s*[({;=]|"  # container declaration
    r"\bstd::string\s+\w+\s*[({;=]"
    r")"
)


def check_alloc_in_hotpath(src: SourceFile) -> list[Finding]:
    if not src.rel.startswith(ALLOC_HOTPATH_SCOPE):
        return []
    findings = []
    hot = False
    for idx, raw in enumerate(src.raw_lines):
        # Markers live in comments, so scan raw lines for them but match
        # allocation constructs on the comment-stripped text.
        if HOT_BEGIN_RE.search(raw):
            hot = True
            continue
        if HOT_END_RE.search(raw):
            hot = False
            continue
        if not hot:
            continue
        m = ALLOC_RE.search(src.code_lines[idx])
        if m:
            findings.append(
                Finding(
                    "alloc-in-hotpath",
                    src.rel,
                    idx + 1,
                    f"heap allocation `{m.group(0).strip()}` inside a "
                    "hot-path region — use the thread's ScratchArena / "
                    "ArenaVec so the warmed reuse path stays "
                    "allocation-free",
                )
            )
    return findings


CHECKS = {
    "atomic-order": check_atomic_order,
    "blocking-under-lock": check_blocking_under_lock,
    "tracer-record-outside-obs": check_tracer_record,
    "nodiscard-status": check_nodiscard_status,
    "raw-mutex": check_raw_mutex,
    "alloc-in-hotpath": check_alloc_in_hotpath,
}


# --------------------------------------------------------------------------
# Optional libclang refinement.
# --------------------------------------------------------------------------


def try_clang_engine():
    """Returns the clang.cindex module when importable, else None. The
    clang engine is used only to *drop* lexical atomic-order findings whose
    receiver the AST proves is not a std::atomic (RelaxedCounter internals,
    user types with a `load` method)."""
    try:
        import clang.cindex as cindex  # type: ignore

        return cindex
    except Exception:
        return None


def refine_with_clang(cindex, compile_db_dir: str, findings: list[Finding],
                      root: str) -> list[Finding]:
    try:
        db = cindex.CompilationDatabase.fromDirectory(compile_db_dir)
    except Exception as e:  # pragma: no cover - env-dependent
        print(f"note: libclang refinement unavailable ({e}); "
              "keeping lexical findings", file=sys.stderr)
        return findings
    keep = []
    index = cindex.Index.create()
    by_file: dict[str, list[Finding]] = {}
    for f in findings:
        if f.rule == "atomic-order":
            by_file.setdefault(f.rel, []).append(f)
        else:
            keep.append(f)
    for rel, file_findings in by_file.items():
        path = os.path.join(root, rel)
        cmds = db.getCompileCommands(path)
        if not cmds:
            keep.extend(file_findings)
            continue
        args = [a for a in list(cmds[0].arguments)[1:] if a != path]
        try:
            tu = index.parse(path, args=args)
        except Exception:
            keep.extend(file_findings)
            continue
        atomic_lines = set()
        for cursor in tu.cursor.walk_preorder():
            if cursor.kind.name != "CALL_EXPR":
                continue
            ref = cursor.referenced
            if ref is None or ref.semantic_parent is None:
                continue
            parent = ref.semantic_parent.spelling
            if parent in ("atomic", "__atomic_base", "atomic_flag"):
                loc = cursor.location
                if loc.file and os.path.samefile(loc.file.name, path):
                    atomic_lines.add(loc.line)
        for f in file_findings:
            if f.line in atomic_lines or not atomic_lines:
                keep.append(f)
    return keep


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------

SRC_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")


def collect_files(root: str, compile_db: str | None) -> list[str]:
    """Files to lint: the compilation database's TUs under root/src plus
    every header under src/ (headers never appear in a compilation
    database, and most of the locking surface is in headers). Driving the
    TU set from the database means a source the build no longer compiles
    is no longer linted — and one the build adds is linted without a glob
    edit here. Without a database the scan set falls back to the tree
    walk."""
    if compile_db is not None and not os.path.exists(compile_db):
        print(f"error: compilation database not found: {compile_db}",
              file=sys.stderr)
        sys.exit(2)
    src_root = os.path.realpath(os.path.join(root, "src"))
    files: set[str] = set()
    if compile_db is not None:
        with open(compile_db, encoding="utf-8") as f:
            try:
                entries = json.load(f)
            except json.JSONDecodeError as exc:
                print(f"error: bad compilation database {compile_db}: {exc}",
                      file=sys.stderr)
                sys.exit(2)
        for entry in entries:
            path = entry.get("file", "")
            if not os.path.isabs(path):
                path = os.path.join(entry.get("directory", ""), path)
            path = os.path.realpath(path)
            if path.startswith(src_root + os.sep):
                files.add(path)
        if not files:
            print(f"error: {compile_db} contains no TUs under {src_root}",
                  file=sys.stderr)
            sys.exit(2)
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for name in sorted(filenames):
            if name.endswith(".h") or                     (compile_db is None and name.endswith(SRC_EXTENSIONS)):
                files.add(os.path.realpath(os.path.join(dirpath, name)))
    return sorted(files)


def run_checks(paths: list[str], root: str,
               fixture_mode: bool = False) -> tuple[list[Finding], list[str]]:
    """Returns (active findings, self-test errors). In fixture mode the
    expects are reconciled: every expect must be found, every finding must
    be expected or allowed."""
    findings: list[Finding] = []
    errors: list[str] = []
    for path in paths:
        src = load_source(path, root)
        if fixture_mode:
            # Fixtures declare their rule paths via their directory names;
            # map testdata/<rule>/file.cc onto the rule's real path gate.
            src = remap_fixture(src)
        file_findings: list[Finding] = []
        for rule, check in CHECKS.items():
            file_findings.extend(check(src))
        suppressed, active = [], []
        for f in file_findings:
            if f.rule in src.allows.get(f.line, set()):
                suppressed.append(f)
            else:
                active.append(f)
        if fixture_mode:
            expected = {
                (line, rule)
                for line, rules in src.expects.items()
                for rule in rules
            }
            got = {(f.line, f.rule) for f in active}
            for line, rule in sorted(expected - got):
                errors.append(
                    f"{src.rel}:{line}: expected [{rule}] finding was NOT "
                    "reported"
                )
            for line, rule in sorted(got - expected):
                errors.append(
                    f"{src.rel}:{line}: unexpected [{rule}] finding "
                    "(fixture drift or engine false positive)"
                )
            # Allow-listed lines must stay silent: any suppressed finding
            # is the allow() mechanism working, which the fixture asserts
            # by containing an allow with no matching expect.
        else:
            findings.extend(active)
    return findings, errors


def remap_fixture(src: SourceFile) -> SourceFile:
    """Fixture files live at tools/lint/testdata/<case>.cc; present them
    to the path-gated checks as if they sat in the directory the rule
    watches (encoded in the first line: `// lint-path: src/pqo/x.cc`)."""
    for line in src.raw_lines[:3]:
        m = re.match(r"//\s*lint-path:\s*(\S+)", line)
        if m:
            src.rel = m.group(1)
            return src
    return src


def run_self_test(root: str) -> int:
    testdata = os.path.join(root, "tools", "lint", "testdata")
    if not os.path.isdir(testdata):
        print(f"error: no fixture directory at {testdata}", file=sys.stderr)
        return 2
    paths = []
    for dirpath, _d, filenames in os.walk(testdata):
        for name in sorted(filenames):
            if name.endswith(SRC_EXTENSIONS):
                paths.append(os.path.join(dirpath, name))
    if not paths:
        print("error: fixture directory is empty", file=sys.stderr)
        return 2
    _findings, errors = run_checks(paths, root, fixture_mode=True)
    covered = set()
    for path in paths:
        src = load_source(path, root)
        for rules in src.expects.values():
            covered |= rules
        for rules in src.allows.values():
            covered |= rules
    missing = [r for r in RULES if r not in covered]
    for r in missing:
        errors.append(f"no fixture exercises rule [{r}]")
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        print(f"self-test FAILED ({len(errors)} problem(s))", file=sys.stderr)
        return 1
    print(f"self-test OK: {len(paths)} fixture(s), all {len(RULES)} rules "
          "exercised")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("-p", dest="compile_db", default=None,
                    help="path to compile_commands.json (sanity-checked; "
                         "also enables libclang refinement when available)")
    ap.add_argument("--engine", choices=("lexical", "clang", "auto"),
                    default="auto",
                    help="auto uses libclang refinement when importable")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture suite under tools/lint/testdata/")
    ap.add_argument("--rule", action="append", choices=RULES,
                    help="restrict to specific rule(s)")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root)
    if args.self_test:
        return run_self_test(root)

    if args.rule:
        for r in list(CHECKS):
            if r not in args.rule:
                del CHECKS[r]

    paths = collect_files(root, args.compile_db)
    if not paths:
        print(f"error: no sources found under {root}/src", file=sys.stderr)
        return 2
    findings, _ = run_checks(paths, root)

    if args.engine in ("clang", "auto") and args.compile_db:
        cindex = try_clang_engine()
        if cindex is not None:
            findings = refine_with_clang(
                cindex, os.path.dirname(os.path.abspath(args.compile_db)),
                findings, root)
        elif args.engine == "clang":
            print("error: --engine clang requested but clang.cindex is not "
                  "importable", file=sys.stderr)
            return 2

    findings.sort(key=lambda f: (f.rel, f.line, f.rule))
    for f in findings:
        print(f.format())
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"clean: {len(paths)} file(s), {len(CHECKS)} rule(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
