"""Unit tests of compare.py on synthetic result files.

Run from benchmark/: python3 -m unittest -v test_compare
"""

import json
import os
import tempfile
import unittest

import compare

SPEC = {"end_to_end": [
    {"name": "throughput_tps", "unit": "tuples/s", "better": "higher", "bound": 0.10},
    {"name": "latency_p50_ns", "unit": "ns", "better": "lower", "bound": 0.15},
]}


def write_runs(directory, workload, values, failed=0, traced=False):
    """One result file per seed; `values` maps metric -> list (one per seed)."""
    n = len(next(iter(values.values())))
    for seed in range(n):
        result = {
            "correct": failed == 0, "attempted": 100, "failed": failed,
            "info": {"workload": workload, "seed": str(seed),
                     "traced": "1" if traced else "0"},
            "metrics": {m: {"value": v[seed], "unit": "x"} for m, v in values.items()},
        }
        name = f"{workload}-seed{seed}-trace{int(traced)}.json"
        with open(os.path.join(directory, name), "w") as f:
            json.dump(result, f)


def steady(center, n=10, jitter=0.01):
    """n values within ±jitter of center, alternating around it."""
    return [center * (1 + jitter * ((i % 5) - 2) / 2) for i in range(n)]


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.parent = os.path.join(self.tmp.name, "parent")
        self.change = os.path.join(self.tmp.name, "change")
        os.makedirs(self.parent)
        os.makedirs(self.change)

    def tearDown(self):
        self.tmp.cleanup()

    def rows(self):
        rows = compare.compare(compare.load_results([self.parent]),
                               compare.load_results([self.change]), SPEC)
        return {(r["workload"], r["metric"]): r for r in rows}

    def test_clear_gain_in_both_directions(self):
        write_runs(self.parent, "w", {"throughput_tps": steady(100.0),
                                      "latency_p50_ns": steady(50.0)})
        write_runs(self.change, "w", {"throughput_tps": steady(120.0),
                                      "latency_p50_ns": steady(40.0)})
        rows = self.rows()
        self.assertEqual(rows[("w", "throughput_tps")]["verdict"], "gain")
        self.assertEqual(rows[("w", "latency_p50_ns")]["verdict"], "gain")

    def test_gain_needs_ten_pairs(self):
        write_runs(self.parent, "w", {"throughput_tps": steady(100.0, n=9),
                                      "latency_p50_ns": steady(50.0, n=9)})
        write_runs(self.change, "w", {"throughput_tps": steady(120.0, n=9),
                                      "latency_p50_ns": steady(50.0, n=9)})
        self.assertEqual(self.rows()[("w", "throughput_tps")]["verdict"], "unchanged")

    def test_gain_needs_nine_in_ten_wins(self):
        parent = steady(100.0)
        change = [p * 1.05 for p in parent]
        change[0] = parent[0] * 0.99
        change[1] = parent[1] * 0.99
        write_runs(self.parent, "w", {"throughput_tps": parent,
                                      "latency_p50_ns": steady(50.0)})
        write_runs(self.change, "w", {"throughput_tps": change,
                                      "latency_p50_ns": steady(50.0)})
        row = self.rows()[("w", "throughput_tps")]
        self.assertEqual(row["wins"], 8)
        self.assertEqual(row["verdict"], "unchanged")

    def test_gain_needs_medians_apart_by_more_than_parent_iqr(self):
        # Every pair wins, but by less than the parent's own spread.
        parent = steady(100.0, jitter=0.06)
        change = [p + 0.5 for p in parent]
        write_runs(self.parent, "w", {"throughput_tps": parent,
                                      "latency_p50_ns": steady(50.0)})
        write_runs(self.change, "w", {"throughput_tps": change,
                                      "latency_p50_ns": steady(50.0)})
        row = self.rows()[("w", "throughput_tps")]
        self.assertEqual(row["wins"], 10)
        self.assertEqual(row["verdict"], "unchanged")

    def test_more_failures_void_a_gain(self):
        write_runs(self.parent, "w", {"throughput_tps": steady(100.0),
                                      "latency_p50_ns": steady(50.0)})
        write_runs(self.change, "w", {"throughput_tps": steady(130.0),
                                      "latency_p50_ns": steady(50.0)}, failed=1)
        self.assertNotEqual(self.rows()[("w", "throughput_tps")]["verdict"], "gain")

    def test_regression_past_the_bound(self):
        write_runs(self.parent, "w", {"throughput_tps": steady(100.0),
                                      "latency_p50_ns": steady(50.0)})
        write_runs(self.change, "w", {"throughput_tps": steady(85.0),
                                      "latency_p50_ns": steady(60.0)})
        rows = self.rows()
        self.assertEqual(rows[("w", "throughput_tps")]["verdict"], "regression")
        self.assertEqual(rows[("w", "latency_p50_ns")]["verdict"], "regression")

    def test_worse_within_the_bound_is_unchanged(self):
        write_runs(self.parent, "w", {"throughput_tps": steady(100.0),
                                      "latency_p50_ns": steady(50.0)})
        write_runs(self.change, "w", {"throughput_tps": steady(95.0),
                                      "latency_p50_ns": steady(55.0)})
        rows = self.rows()
        self.assertEqual(rows[("w", "throughput_tps")]["verdict"], "unchanged")
        self.assertEqual(rows[("w", "latency_p50_ns")]["verdict"], "unchanged")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        write_runs(self.parent, "w", {"throughput_tps": noisy,
                                      "latency_p50_ns": steady(50.0)})
        write_runs(self.change, "w", {"throughput_tps": [v * 0.8 for v in noisy],
                                      "latency_p50_ns": steady(50.0)})
        self.assertEqual(self.rows()[("w", "throughput_tps")]["verdict"], "unresolved")

    def test_noisy_but_every_change_run_better_is_resolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        write_runs(self.parent, "w", {"throughput_tps": noisy,
                                      "latency_p50_ns": steady(50.0)})
        write_runs(self.change, "w", {"throughput_tps": [v + 100.0 for v in noisy],
                                      "latency_p50_ns": steady(50.0)})
        self.assertNotEqual(self.rows()[("w", "throughput_tps")]["verdict"], "unresolved")

    def test_pairs_by_seed_and_skips_traced_runs(self):
        write_runs(self.parent, "w", {"throughput_tps": steady(100.0),
                                      "latency_p50_ns": steady(50.0)})
        write_runs(self.change, "w", {"throughput_tps": steady(100.0, n=4),
                                      "latency_p50_ns": steady(50.0, n=4)})
        write_runs(self.change, "v", {"throughput_tps": [1.0] * 3,
                                      "latency_p50_ns": [1.0] * 3}, traced=True)
        rows = self.rows()
        self.assertEqual(rows[("w", "throughput_tps")]["pairs"], 4)
        self.assertNotIn(("v", "throughput_tps"), rows)


if __name__ == "__main__":
    unittest.main()
