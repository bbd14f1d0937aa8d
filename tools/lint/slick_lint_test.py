#!/usr/bin/env python3
"""Tests for slick_lint.py: exact findings + exit codes over the seeded
fixture corpus, plus a clean run over the real tree. Run from anywhere:

    python3 tools/lint/slick_lint_test.py          # or via ctest: slick_lint
"""

import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
LINT = HERE / "slick_lint.py"
FIXTURES = HERE / "fixtures"
# A small tree with consumer dirs, for the tree-level test-only-module
# rule (the main corpus has none, so the rule skips it).
MODULES = FIXTURES / "modules"

EXPECTED_FIXTURE_FINDINGS = [
    ("src/banned_calls.cc", 10, "banned-call"),
    ("src/banned_calls.cc", 14, "banned-call"),
    ("src/banned_calls.cc", 18, "banned-call"),
    ("src/guarded_header.h", 1, "pragma-once"),
    ("src/net/bad_connection.h", 12, "atomic-alignas"),
    ("src/net/bad_connection.h", 22, "relaxed-justified"),
    ("src/runtime/bad_atomics.h", 12, "atomic-alignas"),
    ("src/runtime/bad_atomics.h", 26, "atomic-memory-order"),
    ("src/runtime/bad_atomics.h", 27, "atomic-memory-order"),
    ("src/runtime/bad_atomics.h", 28, "atomic-memory-order"),
    ("src/runtime/bad_atomics.h", 32, "relaxed-justified"),
    # split_atomics.h regression-pins the regex fixes: `->` on a
    # pointer-to-atomic and calls whose paren/args continue on the next
    # line were false negatives of the original single-line `\.` pattern.
    ("src/runtime/split_atomics.h", 12, "atomic-memory-order"),
    ("src/runtime/split_atomics.h", 17, "atomic-memory-order"),
    ("src/runtime/split_atomics.h", 23, "atomic-memory-order"),
]


def run_lint(*args):
    return subprocess.run(
        [sys.executable, str(LINT), *args],
        capture_output=True, text=True, check=False)


def parse(stdout):
    out = []
    for line in stdout.splitlines():
        loc, rest = line.split(": [", 1)
        path, lineno = loc.rsplit(":", 1)
        rule = rest.split("]", 1)[0]
        out.append((path, int(lineno), rule))
    return out


class FixtureCorpus(unittest.TestCase):
    def test_exact_findings_and_exit_code(self):
        proc = run_lint("--root", str(FIXTURES))
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertEqual(parse(proc.stdout), EXPECTED_FIXTURE_FINDINGS)
        self.assertIn("14 finding(s)", proc.stderr)

    def test_clean_file_exits_zero(self):
        proc = run_lint("--root", str(FIXTURES),
                        "src/telemetry/clean_counters.h")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(proc.stdout, "")

    def test_single_violating_file(self):
        proc = run_lint("--root", str(FIXTURES), "src/guarded_header.h")
        self.assertEqual(proc.returncode, 1)
        self.assertEqual(parse(proc.stdout),
                         [("src/guarded_header.h", 1, "pragma-once")])

    def test_test_only_modules(self):
        # Reached from a library .cc, an example and transitively through
        # src/: clean. The umbrella and tests/ keep nothing alive, a
        # bench-local "common.h" shadows src/common.h, and an allow comment
        # anywhere in the header suppresses the rule.
        proc = run_lint("--root", str(MODULES))
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertEqual(parse(proc.stdout), [
            ("src/common.h", 1, "test-only-module"),
            ("src/orphan.h", 1, "test-only-module"),
        ])
        # Only scanned headers are reported; reachability still covers
        # the whole tree.
        proc = run_lint("--root", str(MODULES), "src/core/deep.h")
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_missing_explicit_path_is_usage_error(self):
        proc = run_lint("--root", str(FIXTURES), "src/does_not_exist.h")
        self.assertEqual(proc.returncode, 2)
        self.assertIn("no such path", proc.stderr)


class RealTree(unittest.TestCase):
    def test_repo_is_clean(self):
        """The acceptance gate: src/ (and friends) lint clean."""
        proc = run_lint("--root", str(REPO))
        self.assertEqual(proc.returncode, 0,
                         "repo must lint clean:\n" + proc.stdout)

    def test_fixture_corpus_is_excluded_from_default_scan(self):
        # The default scan includes tools/ — the seeded violations under
        # tools/lint/fixtures must not leak into it (previous test passing
        # already implies this; this pins the reason).
        proc = run_lint("--root", str(REPO), "tools")
        self.assertEqual(proc.returncode, 0, proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
