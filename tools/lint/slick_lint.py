#!/usr/bin/env python3
"""slick_lint: repo-specific C++ invariants clang-tidy cannot express.

Rules (IDs are what `// slick-lint: allow(<id>)` suppresses, on the same
line or the line directly above the finding):

  atomic-memory-order   Every std::atomic load/store/fetch/exchange/CAS/wait
                        call names an explicit std::memory_order argument.
                        Scope: every scanned file.
  atomic-alignas        A std::atomic data member in the cross-thread dirs
                        (src/runtime/, src/telemetry/, src/net/) is cache-line
                        padded:
                        alignas(...) on the member itself or on the
                        enclosing struct/class declaration.
  relaxed-justified     Every memory_order_relaxed use in the cross-thread
                        dirs carries an ordering argument: a
                        comment containing the word "relaxed" on the same
                        line or within the preceding 10 lines. Forces the
                        "why is relaxed enough here" proof to live next to
                        the code (see DESIGN.md §9).
  pragma-once           Headers open with `#pragma once` (first
                        non-comment, non-blank line).
  banned-call           No std::rand/srand, time(nullptr)/time(NULL), or
                        std::endl in src/ (use util/rng.h, util/clock.h,
                        and '\n' respectively).
  test-only-module      Every src/ header is reachable by #include from
                        bench/, benchmark/, examples/, tools/ or a library
                        .cc under src/ — a module only tests use is dead
                        weight. The umbrella src/slickdeque.h is exempt. A
                        tree-level rule: the allow comment may sit anywhere
                        in the header, an allow on a header a consumer
                        does reach is itself a finding (stale), and a
                        --root with none of those consumer dirs (a partial
                        tree) skips the rule.

Exit codes: 0 clean, 1 findings, 2 usage/IO error.

Division of labor vs tools/analyze/slick_analyzer.py (DESIGN.md §15): this
file is the fast line-oriented lint — style-adjacent, zero-setup invariants
where a regex over one file is enough (padding, comments, banned tokens,
pragma once). The analyzer owns everything that needs name resolution or a
call graph: hot-path purity (SLICK_REALTIME), claim/publish pairing,
[[nodiscard]] coverage, and AST-accurate atomic-order checking. The one
rule both cover is atomic memory order, deliberately: the lint catches it
in any editor with no model to build, the analyzer re-checks it with
type/typedef awareness the regex cannot have.

Usage: slick_lint.py [--root DIR] [paths...]
  With no paths: scans the default roots (src bench tests tools examples)
  relative to --root (default: repo root = two levels above this file),
  skipping tools/lint/fixtures and tools/analyze/fixtures (the
  seeded-violation corpora).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------

ALLOW_RE = re.compile(r"slick-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# Atomic member functions that accept a std::memory_order argument. `.wait`
# is included (std::atomic::wait takes an order); a non-atomic `.wait()`
# needs an allow comment, which has not yet been necessary in this repo.
# Matches both value access (`x.load`) and pointer-to-atomic (`p->load`);
# the opening paren is located separately so calls split across lines
# (`x.load\n  (...)`) are still seen.
ATOMIC_CALL_RE = re.compile(
    r"(?:\.|->)\s*(load|store|fetch_add|fetch_sub|fetch_and|fetch_or"
    r"|fetch_xor|exchange|compare_exchange_weak|compare_exchange_strong"
    r"|test_and_set|wait)\b"
)

RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
ATOMIC_MEMBER_RE = re.compile(
    r"^\s*(?:alignas\s*\([^)]*\)\s*)?(?:mutable\s+)?std::atomic<[^;]*;\s*(?://.*)?$"
)
STRUCT_DECL_RE = re.compile(r"^\s*(?:template\s*<[^>]*>\s*)?(?:struct|class)\b")
BANNED = [
    (re.compile(r"\bstd::rand\b|\bstd::srand\b|(?<![\w:])srand\s*\("),
     "std::rand/srand is banned in src/ — use util::SplitMix64 (util/rng.h)"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:nullptr|NULL)\s*\)"),
     "time(nullptr) is banned in src/ — use util/clock.h"),
    (re.compile(r"\bstd::endl\b"),
     "std::endl is banned in src/ — write '\\n' (no gratuitous flushes)"),
]

# src/runtime/shm/ is named even though src/runtime/ already prefixes it:
# cross-PROCESS shared memory must never silently fall out of the
# cross-thread atomics rules if the runtime tree is ever reorganized.
CROSS_THREAD_DIRS = ("src/runtime/", "src/runtime/shm/", "src/telemetry/",
                     "src/net/")
DEFAULT_ROOTS = ("src", "bench", "tests", "tools", "examples")
# Trees whose #includes keep a src/ header alive (plus the library's own
# .cc files), and the one header exempt from that rule.
CONSUMER_ROOTS = ("bench", "benchmark", "examples", "tools")
UMBRELLA_HEADER = "src/slickdeque.h"
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
EXCLUDE_PARTS = ("tools/lint/fixtures", "tools/analyze/fixtures")
RELAXED_COMMENT_WINDOW = 10


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def comment_text(line: str) -> str:
    """The `// ...` portion of a line ('' if none)."""
    idx = line.find("//")
    return line[idx:] if idx >= 0 else ""


def code_text(line: str) -> str:
    """The line with any trailing // comment stripped."""
    idx = line.find("//")
    return line[:idx] if idx >= 0 else line


def allowed(lines: list[str], lineno: int, rule: str) -> bool:
    """True if an allow(<rule>) pragma covers 1-based line `lineno`."""
    for cand in (lineno, lineno - 1):
        if 1 <= cand <= len(lines):
            m = ALLOW_RE.search(comment_text(lines[cand - 1]))
            if m and rule in [r.strip() for r in m.group(1).split(",")]:
                return True
    return False


def balanced_call_args(lines: list[str], lineno: int, col: int,
                       max_lines: int = 10) -> str:
    """Text of a call's argument list starting at the '(' at (lineno, col),
    both 0-based, spanning up to max_lines lines."""
    depth, out = 0, []
    for i in range(lineno, min(lineno + max_lines, len(lines))):
        segment = code_text(lines[i])
        start = col if i == lineno else 0
        for ch in segment[start:]:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return "".join(out)
            elif depth >= 1:
                out.append(ch)
        out.append(" ")
    return "".join(out)  # unbalanced (macro soup); caller treats as-is


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def find_call_paren(lines: list[str], lineno: int, col: int,
                    max_lines: int = 3):
    """(line, col) of the first non-whitespace char at/after (lineno, col)
    if it is '(' — both 0-based — else None.  Spans line breaks so
    `x.load\\n  (...)` is recognized as a call."""
    for i in range(lineno, min(lineno + max_lines, len(lines))):
        segment = code_text(lines[i])
        start = col if i == lineno else 0
        for j in range(start, len(segment)):
            if segment[j].isspace():
                continue
            return (i, j) if segment[j] == "(" else None
    return None


def check_atomic_memory_order(rel: str, lines: list[str]) -> list[Finding]:
    findings = []
    for i, line in enumerate(lines):
        for m in ATOMIC_CALL_RE.finditer(code_text(line)):
            paren = find_call_paren(lines, i, m.end())
            if paren is None:
                continue  # member pointer / name mention, not a call
            args = balanced_call_args(lines, paren[0], paren[1])
            if "memory_order" in args:
                continue
            if allowed(lines, i + 1, "atomic-memory-order"):
                continue
            findings.append(Finding(
                rel, i + 1, "atomic-memory-order",
                f".{m.group(1)}() without an explicit std::memory_order "
                "argument"))
    return findings


def check_atomic_alignas(rel: str, lines: list[str]) -> list[Finding]:
    if not rel.startswith(CROSS_THREAD_DIRS):
        return []
    findings = []
    for i, line in enumerate(lines):
        if not ATOMIC_MEMBER_RE.match(line):
            continue
        if "alignas" in code_text(line):
            continue
        # Enclosing struct/class padded as a whole? Nearest declaration
        # heading above the member decides.
        enclosing_has_alignas = False
        for j in range(i - 1, -1, -1):
            if STRUCT_DECL_RE.match(lines[j]):
                enclosing_has_alignas = "alignas" in code_text(lines[j])
                break
        if enclosing_has_alignas:
            continue
        if allowed(lines, i + 1, "atomic-alignas"):
            continue
        findings.append(Finding(
            rel, i + 1, "atomic-alignas",
            "cross-thread std::atomic member without alignas padding "
            "(member or enclosing struct) — false-sharing hazard"))
    return findings


def check_relaxed_justified(rel: str, lines: list[str]) -> list[Finding]:
    if not rel.startswith(CROSS_THREAD_DIRS):
        return []
    findings = []
    for i, line in enumerate(lines):
        if not RELAXED_RE.search(code_text(line)):
            continue
        lo = max(0, i - RELAXED_COMMENT_WINDOW)
        justified = any(
            "relaxed" in comment_text(lines[j]).lower()
            for j in range(lo, i + 1))
        if justified:
            continue
        if allowed(lines, i + 1, "relaxed-justified"):
            continue
        findings.append(Finding(
            rel, i + 1, "relaxed-justified",
            "memory_order_relaxed without a nearby '// relaxed: ...' "
            "ordering argument (same line or previous "
            f"{RELAXED_COMMENT_WINDOW} lines)"))
    return findings


def check_pragma_once(rel: str, lines: list[str]) -> list[Finding]:
    if not rel.endswith(".h"):
        return []
    in_block_comment = False
    for i, line in enumerate(lines):
        stripped = line.strip()
        if in_block_comment:
            if "*/" in stripped:
                in_block_comment = False
            continue
        if not stripped or stripped.startswith("//"):
            continue
        if stripped.startswith("/*"):
            in_block_comment = "*/" not in stripped
            continue
        if stripped == "#pragma once":
            return []
        if allowed(lines, i + 1, "pragma-once"):
            return []
        return [Finding(rel, i + 1, "pragma-once",
                        "header does not open with #pragma once")]
    return [Finding(rel, 1, "pragma-once",
                    "header does not open with #pragma once")]


def check_banned_calls(rel: str, lines: list[str]) -> list[Finding]:
    if not rel.startswith("src/"):
        return []
    findings = []
    for i, line in enumerate(lines):
        code = code_text(line)
        for pattern, message in BANNED:
            if pattern.search(code) and not allowed(lines, i + 1,
                                                    "banned-call"):
                findings.append(Finding(rel, i + 1, "banned-call", message))
    return findings


CHECKS = (
    check_atomic_memory_order,
    check_atomic_alignas,
    check_relaxed_justified,
    check_pragma_once,
    check_banned_calls,
)


def excluded(rel: str) -> bool:
    return any(rel == e or rel.startswith(e + "/") for e in EXCLUDE_PARTS)


def reachable_headers(root: pathlib.Path) -> set[str] | None:
    """Root-relative paths of every file #include reaches from the
    consumer trees and the library .cc files, or None when --root has no
    consumer tree. Quoted includes resolve against the including file's
    directory first, then src/ (the library's include root); <...> and
    unresolved includes are not followed."""
    dirs = [root / d for d in CONSUMER_ROOTS if (root / d).is_dir()]
    if not dirs:
        return None
    frontier = [p for d in dirs for p in d.rglob("*")
                if p.suffix in (".h", ".cc", ".cpp") and p.is_file()]
    frontier += [p for p in (root / "src").rglob("*.cc") if p.is_file()]
    frontier = [p for p in frontier
                if not excluded(p.relative_to(root).as_posix())]
    seen: set[pathlib.Path] = set()
    while frontier:
        path = frontier.pop()
        if path in seen:
            continue
        seen.add(path)
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError):
            continue
        for line in lines:
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            for base in (path.parent, root / "src"):
                target = (base / m.group(1)).resolve()
                if target.is_file():
                    frontier.append(target)
                    break
    return {p.relative_to(root).as_posix() for p in seen
            if p.is_relative_to(root)}


def check_test_only_modules(root: pathlib.Path,
                            paths: list[pathlib.Path]) -> list[Finding]:
    reachable = reachable_headers(root)
    if reachable is None:
        return []
    findings = []
    for path in paths:
        rel = path.relative_to(root).as_posix()
        if (not rel.startswith("src/") or not rel.endswith(".h")
                or rel == UMBRELLA_HEADER):
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        allow = next((i + 1 for i in range(len(lines))
                      if allowed(lines, i + 1, "test-only-module")), None)
        if rel in reachable and allow is not None:
            findings.append(Finding(
                rel, allow, "test-only-module",
                "allow is stale: a consumer includes this header now; "
                "drop the comment"))
        elif rel not in reachable and allow is None:
            findings.append(Finding(
                rel, 1, "test-only-module",
                "no bench/, benchmark/, examples/, tools/ or library .cc "
                "includes this header: delete it with its tests, or allow "
                "it with the reason"))
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def lint_file(root: pathlib.Path, path: pathlib.Path) -> list[Finding]:
    rel = path.relative_to(root).as_posix()
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as e:
        print(f"slick_lint: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    findings = []
    for check in CHECKS:
        findings.extend(check(rel, lines))
    return findings


def gather(root: pathlib.Path, args_paths: list[str]) -> list[pathlib.Path]:
    paths: list[pathlib.Path] = []
    defaulted = not args_paths
    roots = args_paths or [str(root / r) for r in DEFAULT_ROOTS]
    for r in roots:
        p = pathlib.Path(r)
        if not p.is_absolute():
            p = root / p
        if p.is_file():
            paths.append(p)
        elif p.is_dir():
            paths.extend(q for q in sorted(p.rglob("*"))
                         if q.suffix in (".h", ".cc") and q.is_file())
        elif defaulted:
            continue  # a default root a partial tree doesn't have
        else:
            print(f"slick_lint: no such path: {r}", file=sys.stderr)
            sys.exit(2)
    return [p for p in paths if not excluded(p.relative_to(root).as_posix())]


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels above this script)")
    ap.add_argument("paths", nargs="*",
                    help="files/dirs to lint (default: the repo's "
                         f"{' '.join(DEFAULT_ROOTS)} trees)")
    opts = ap.parse_args(argv)
    root = pathlib.Path(
        opts.root) if opts.root else pathlib.Path(__file__).resolve().parents[2]
    root = root.resolve()
    findings: list[Finding] = []
    paths = gather(root, opts.paths)
    for path in paths:
        findings.extend(lint_file(root, path))
    findings.extend(check_test_only_modules(root, paths))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f)
    if findings:
        print(f"slick_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
