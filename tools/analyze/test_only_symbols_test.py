#!/usr/bin/env python3
"""Fixture self-test for test_only_symbols.py over canned `nm -C` output.

nm_fixtures/{nontest,test}/*.nm stand in for the binaries of an -O0 build;
allow_ok.txt covers every test-only name but one, and allow_bad.txt holds
one of each allow-list error.

    python3 tools/analyze/test_only_symbols_test.py
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "nm_fixtures"
sys.path.insert(0, str(HERE))
import test_only_symbols as tos  # noqa: E402


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "test_only_symbols.py"), *args],
        capture_output=True, text=True)


class Normalize(unittest.TestCase):
    CASES = {
        # Template arguments and parameters go; every instantiation of a
        # member reads the same.
        "slick::runtime::ShardWorker<slick::core::SlickDequeInv<slick::ops::"
        "Sum>, slick::runtime::SpscRing>::Run()":
            "slick::runtime::ShardWorker::Run",
        # Return types go, including slick:: ones.
        "slick::R<int> slick::f<int>(slick::R<int>)": "slick::f",
        "void slick::window::BulkSlide<A>(A&, double const*, unsigned long)":
            "slick::window::BulkSlide",
        # Qualifiers, ABI tags and clone suffixes go.
        "slick::A::size() const": "slick::A::size",
        "slick::telemetry::ToJson[abi:cxx11](slick::X const&)":
            "slick::telemetry::ToJson",
        "slick::A::f() [clone .cold]": "slick::A::f",
        # Operators keep their symbol; conversions keep their type.
        "slick::util::operator<<(std::ostream&, slick::A const&)":
            "slick::util::operator<<",
        "bool slick::a<(unsigned long)3>::operator< <int>(int)":
            "slick::a::operator<",
        "slick::A<int>::operator()(int) const": "slick::A::operator()",
        "slick::A::operator bool() const": "slick::A::operator bool",
        "slick::foo(int)::{lambda(int)#1}::operator()(int) const":
            "slick::foo::{lambda#1}::operator()",
        "non-virtual thunk to slick::X::~X()": "slick::X::~X",
        # A library template over a test-local type is still library code.
        "slick::runtime::ParallelShardedEngine<slick::(anonymous namespace)"
        "::GatedSum>::query()": "slick::runtime::ParallelShardedEngine::query",
    }
    NOT_LIBRARY = (
        "std::vector<slick::X, std::allocator<slick::X> >::push_back("
        "slick::X const&)",
        "slick::window::Timed<long>* std::copy<slick::window::Timed<long>*>("
        "slick::window::Timed<long>*)",
        "slick::(anonymous namespace)::Helper::Run()",
        "slick::model::ScheduleExplorer::Explore()",
        "main",
    )

    def test_library_names(self):
        for raw, want in self.CASES.items():
            with self.subTest(raw=raw):
                self.assertEqual(tos.normalize(raw), want)

    def test_non_library_names(self):
        for raw in self.NOT_LIBRARY:
            with self.subTest(raw=raw):
                self.assertIsNone(tos.normalize(raw))

    def test_parse_nm_keeps_functions_only(self):
        text = ("0000000000001000 W slick::A::f()\n"
                "0000000000002000 V vtable for slick::A\n"
                "0000000000003000 B slick::g_counter\n"
                "0000000000004000 T slick::B::g(int)\n")
        self.assertEqual(tos.parse_nm(text), {"slick::A::f", "slick::B::g"})


class Fixtures(unittest.TestCase):
    def test_uncovered_name_is_the_only_finding(self):
        proc = run("--dumps", str(FIXTURES),
                   "--allow", str(FIXTURES / "allow_ok.txt"))
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertEqual(
            proc.stdout.splitlines(),
            ["test-only: slick::runtime::ParallelShardedEngine::DebugDump"])
        self.assertIn("2 non-test and 1 test dumps", proc.stderr)
        self.assertIn("6 test-only; 1 finding(s), 0 allow error(s)",
                      proc.stderr)

    def test_list_prints_every_test_only_name(self):
        proc = run("--dumps", str(FIXTURES), "--list")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(proc.stdout.split(), [
            "slick::ops::Min::combine",
            "slick::ops::Min::identity",
            "slick::runtime::ParallelShardedEngine::DebugDump",
            "slick::runtime::ParallelShardedEngine::InjectWorkerKill",
            "slick::util::operator<",
            "slick::window::NaiveWindow::PeekAt",
        ])

    def test_clean_when_every_name_is_covered(self):
        allow = (FIXTURES / "allow_ok.txt").read_text()
        allow += ("slick::runtime::ParallelShardedEngine::DebugDump"
                  "  # item 19: a dump hook only tests call\n")
        entries, errors = tos.parse_allow(allow, "allow")
        self.assertEqual(errors, [])
        non_test, test, _ = tos.collect(
            argparse.Namespace(dumps=FIXTURES))
        self.assertEqual(tos.check(non_test, test, entries, "allow"), ([], []))

    def test_allow_list_errors(self):
        proc = run("--dumps", str(FIXTURES),
                   "--allow", str(FIXTURES / "allow_bad.txt"))
        self.assertEqual(proc.returncode, 1)
        errors = [line.split(": ", 1)[1] for line in proc.stdout.splitlines()
                  if not line.startswith("test-only: ")]
        self.assertEqual(len(errors), 4, proc.stdout)
        self.assertEqual(errors[0], "allow entry without a reason")
        self.assertTrue(errors[1].startswith("unknown category 'convenience'"))
        self.assertTrue(errors[2].startswith("bad regex"))
        self.assertEqual(errors[3], "allow entry matches no test-only name: "
                                    "slick::runtime::Unused::\\w+")

    def test_missing_build_is_usage_error(self):
        proc = run("--build", str(FIXTURES / "no_such_build"))
        self.assertEqual(proc.returncode, 2)


if __name__ == "__main__":
    unittest.main()
