#!/usr/bin/env python3
"""test-only-symbols: find library functions that only tests reach.

The lint's `test-only-module` rule sees whole headers. This check works one
level down, on functions. It reads `nm -C --defined-only` from every binary
of an `-O0 -fno-inline` build, where each template and inline function a
binary uses is emitted as its own symbol, and splits the binaries in two:

  non-test  every executable under <build>/bench, <build>/examples and
            <build>/tools, plus the benchmark project's slick_bench;
  test      every executable under <build>/tests.

From each side it collects the `slick::` functions, normalized: template
arguments, parameter lists, cv/ref qualifiers, ABI tags and return types
are stripped, so `slick::runtime::ShardWorker<Agg, SpscRing>::Run()` and
every other instantiation read `slick::runtime::ShardWorker::Run`.
Functions in an anonymous namespace (test-local helpers) and in
`slick::model` (the test-only model-checker harness) are not library code
and are skipped.

A name that tests reach and no non-test binary does is a finding unless
an allow-list entry covers it. The allow file holds one entry per line:

    <regex>  # <category>: <why>

The regex must match the whole normalized name. The category is one of
CATEGORIES below or a ROADMAP item ("item 19: ..."). An entry with no
reason, an unknown category, a bad regex, or one that matches no
test-only name is an error, like the lint's stale `allow`.

Limitation: functions defined in a library `.cc` file are linked into any
binary that uses another function of the same object file, so the check
sees only header-defined (template and inline) code precisely.

Usage:
    cmake -S . -B build-o0 -DCMAKE_BUILD_TYPE=None \\
          -DCMAKE_CXX_FLAGS="-O0 -fno-inline" && cmake --build build-o0
    cmake -S benchmark -B bench-o0 -DCMAKE_BUILD_TYPE=None \\
          -DCMAKE_CXX_FLAGS="-O0 -fno-inline" && \\
          cmake --build bench-o0 --target slick_bench
    tools/analyze/test_only_symbols.py --build build-o0 --bench-build bench-o0

`--dumps DIR` reads saved `nm -C` output instead (DIR/nontest/*.nm and
DIR/test/*.nm); the fixture self-test uses it.

Exit codes: 0 clean, 1 findings or allow-list errors, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

# What an allow entry may cite as the reason a test-only function stays.
CATEGORIES = (
    "paper feature",  # the paper describes it; tests pin it, no bench runs it
    "oracle",         # reference code tests compare against
    "fault hook",     # crash/fault switches the chaos tests drive
    "op kernel kept for symmetry",  # one member of a family the rest uses
    "test-only module",  # a whole header the lint already allows
    "checked API",    # contract probes and invariants tests call
)
ITEM_RE = re.compile(r"item \d+$")

NON_TEST_DIRS = ("bench", "examples", "tools")
TEST_DIRS = ("tests",)
# nm symbol types that are functions: text (global/local), weak, ifunc.
FUNCTION_TYPES = frozenset("TtWwi")
SKIP_MARKERS = ("{anonymous}", "slick::model::")


_OPERATOR = re.compile(
    r"operator\s*(\(\)|\[\]|<=>|<<=|>>=|->\*?|<<|>>|&&|\|\||\+\+|--"
    r"|[-+*/%^&|~!=<>,]=?)?")


def _strip_nested(name: str, open_ch: str, close_ch: str) -> str:
    """Drops every balanced open_ch..close_ch group, keeping `operator`
    tokens such as `operator<<`, `operator()` and `operator->` intact."""
    out = []
    depth = 0
    i = 0
    while i < len(name):
        op = _OPERATOR.match(name, i) if depth == 0 else None
        if op and (i == 0 or not (name[i - 1].isalnum() or name[i - 1] == "_")):
            out.append(op.group(0))
            i = op.end()
            continue
        ch = name[i]
        if ch == open_ch:
            depth += 1
        elif ch == close_ch and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(ch)
        i += 1
    return "".join(out)


_QUALIFIERS = re.compile(r"(\s+(const|volatile|&&|&|noexcept))+$")
_ABI_TAG = re.compile(r"\[abi:[^\]]*\]")
_CLONE = re.compile(r"\s*\[clone [^\]]*\]")


def normalize(demangled: str) -> str | None:
    """The `slick::` function a demangled symbol names, or None when it is
    not one (std code, test-local helpers, data)."""
    name = _CLONE.sub("", _ABI_TAG.sub("", demangled.strip()))
    name = _strip_nested(name, "<", ">")
    # Test-local helpers live in anonymous namespaces; a library template
    # instantiated over one of their types has lost that in its arguments.
    name = name.replace("(anonymous namespace)", "{anonymous}")
    name = _strip_nested(name, "(", ")")
    name = _QUALIFIERS.sub("", name).strip()
    # Drop the return type (and prefixes such as "non-virtual thunk to "):
    # the function name is the last token, except that a conversion
    # operator ("...::operator bool") keeps its type.
    conversion = re.search(r"\S*operator \S.*$", name)
    name = conversion.group(0) if conversion else name.split()[-1]
    if not name.startswith("slick::"):
        return None
    if any(marker in name for marker in SKIP_MARKERS):
        return None
    return name


def parse_nm(text: str) -> set[str]:
    """Normalized slick:: function names in one `nm -C --defined-only`
    listing."""
    names: set[str] = set()
    for line in text.splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3 or len(parts[1]) != 1:
            continue
        if parts[1] not in FUNCTION_TYPES:
            continue
        name = normalize(parts[2])
        if name is not None:
            names.add(name)
    return names


@dataclass
class AllowEntry:
    line: int
    pattern: re.Pattern[str]
    reason: str
    used: bool = False


def parse_allow(text: str, where: str) -> tuple[list[AllowEntry], list[str]]:
    """Allow entries and the errors in their syntax (no reason, unknown
    category, bad regex)."""
    entries: list[AllowEntry] = []
    errors: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        regex, sep, reason = line.partition(" # ")
        regex, reason = regex.strip(), reason.strip()
        if not sep or not reason:
            errors.append(f"{where}:{lineno}: allow entry without a reason")
            continue
        category = reason.split(":", 1)[0].strip()
        if category not in CATEGORIES and not ITEM_RE.match(category):
            errors.append(f"{where}:{lineno}: unknown category '{category}' "
                          f"(use one of {', '.join(CATEGORIES)}, or "
                          f"'item N')")
            continue
        try:
            pattern = re.compile(regex)
        except re.error as e:
            errors.append(f"{where}:{lineno}: bad regex: {e}")
            continue
        entries.append(AllowEntry(lineno, pattern, reason))
    return entries, errors


def check(non_test: set[str], test: set[str], entries: list[AllowEntry],
          where: str) -> tuple[list[str], list[str]]:
    """(uncovered test-only names, stale allow entries)."""
    findings = []
    for name in sorted(test - non_test):
        covered = False
        for entry in entries:
            if entry.pattern.fullmatch(name):
                entry.used = True
                covered = True
        if not covered:
            findings.append(name)
    stale = [f"{where}:{e.line}: allow entry matches no test-only name: "
             f"{e.pattern.pattern}" for e in entries if not e.used]
    return findings, stale


def _is_executable(path: Path) -> bool:
    if not path.is_file() or not os.access(path, os.X_OK):
        return False
    with path.open("rb") as f:
        return f.read(4) == b"\x7fELF"


def _binaries(root: Path, subdirs: tuple[str, ...]) -> list[Path]:
    found = []
    for sub in subdirs:
        base = root / sub
        if not base.is_dir():
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames if d != "CMakeFiles"]
            found += [Path(dirpath) / f for f in filenames
                      if _is_executable(Path(dirpath) / f)]
    return sorted(found)


def _nm(nm: str, binary: Path) -> str:
    return subprocess.run([nm, "-C", "--defined-only", str(binary)],
                          check=True, capture_output=True, text=True).stdout


def collect(args: argparse.Namespace) -> tuple[set[str], set[str], str]:
    """(non-test names, test names, a one-line summary of the inputs)."""
    non_test: set[str] = set()
    test: set[str] = set()
    if args.dumps:
        sides = {"nontest": non_test, "test": test}
        counts = {}
        for side, names in sides.items():
            files = sorted((args.dumps / side).glob("*.nm"))
            counts[side] = len(files)
            for f in files:
                names |= parse_nm(f.read_text())
        return non_test, test, (f"{counts['nontest']} non-test and "
                                f"{counts['test']} test dumps")
    non_bins = _binaries(args.build, NON_TEST_DIRS)
    if args.bench_build:
        bench = args.bench_build / "slick_bench"
        if not _is_executable(bench):
            raise FileNotFoundError(f"no slick_bench in {args.bench_build}")
        non_bins.append(bench)
    test_bins = _binaries(args.build, TEST_DIRS)
    if not non_bins or not test_bins:
        raise FileNotFoundError(f"no bench/example/tool or no test "
                                f"binaries under {args.build}")
    for b in non_bins:
        non_test |= parse_nm(_nm(args.nm, b))
    for b in test_bins:
        test |= parse_nm(_nm(args.nm, b))
    return non_test, test, (f"{len(non_bins)} non-test and "
                            f"{len(test_bins)} test binaries")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--build", type=Path,
                     help="an -O0 -fno-inline build of the repository")
    src.add_argument("--dumps", type=Path,
                     help="saved nm -C output: DIR/{nontest,test}/*.nm")
    ap.add_argument("--bench-build", type=Path,
                    help="an -O0 -fno-inline build of benchmark/")
    ap.add_argument("--allow", type=Path,
                    default=Path(__file__).with_name("test_only_allow.txt"))
    ap.add_argument("--nm", default="nm")
    ap.add_argument("--list", action="store_true",
                    help="print every test-only name, allowed or not")
    args = ap.parse_args(argv)

    try:
        non_test, test, inputs = collect(args)
        if args.list:
            print("\n".join(sorted(test - non_test)))
            return 0
        allow_text = args.allow.read_text()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"test-only-symbols: {e}", file=sys.stderr)
        return 2
    entries, errors = parse_allow(allow_text, str(args.allow))
    findings, stale = check(non_test, test, entries, str(args.allow))
    for name in findings:
        print(f"test-only: {name}")
    for message in errors + stale:
        print(message)
    print(f"test-only-symbols: {inputs}; {len(non_test)} names outside "
          f"tests, {len(test)} in tests, {len(test - non_test)} test-only; "
          f"{len(findings)} finding(s), {len(errors) + len(stale)} allow "
          f"error(s)", file=sys.stderr)
    return 1 if findings or errors or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
