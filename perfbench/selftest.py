"""Checks of the benchmark's own machinery.

Run from the root of a checkout::

    python3 perfbench/selftest.py

No workload runs; this takes a second or two.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import ledger as checks  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _fig8_tables():
    return json.loads((HERE / "refs" / "fig8_seed1.json").read_text())


class FailureCounting(unittest.TestCase):
    def test_each_failure_is_counted_once(self):
        ledger = checks.Ledger()
        reference = _fig8_tables()

        # One operation that raises.
        def boom():
            raise RuntimeError("injected")

        ledger.run("raises", boom, lambda result: None)
        # One request shed with 429.
        ledger.http("shed", 429, {"error": "queue full"}, lambda r: None)
        # One served result corrupted after the fact.
        result = {"experiment": "fig10", "results": [{"rows": [[1.5]]}]}
        digests = {"k": checks.digest(result)}
        corrupted = {"experiment": "fig10", "results": [{"rows": [[1.6]]}]}
        ledger.http("corrupt", 200, {"state": "completed",
                                     "result": corrupted},
                    loadgen.result_check(digests, "k"))
        # One correct operation of each path.
        ledger.http("fine", 200, {"state": "completed", "result": result},
                    loadgen.result_check(digests, "k"))
        ledger.run("fig8", lambda: reference,
                   lambda tables: checks.check_fig8(tables, reference))

        self.assertEqual(ledger.attempted, 5)
        self.assertEqual(ledger.failed, 3)
        self.assertEqual(ledger.failures, {"raised": 1, "timeout": 0,
                                           "shed": 1, "cancelled": 0,
                                           "wrong": 1})

    def test_fig8_check_catches_a_changed_row(self):
        reference = _fig8_tables()
        tables = json.loads(json.dumps(reference))
        tables["fig8a"]["rows"][0][1] *= 1.001
        self.assertIsNotNone(checks.check_fig8(tables, reference))
        self.assertIsNone(checks.check_fig8(reference, reference))
        # Seed-independent: AMAT components must sum to the total.
        tables = json.loads(json.dumps(reference))
        tables["fig8b"]["rows"][0][3] += 1.0
        self.assertIsNotNone(checks.check_fig8(tables, None))

    def test_cancelled_and_timeout_kinds(self):
        ledger = checks.Ledger()
        ledger.http("c", 200, {"state": "cancelled"}, lambda r: None)

        def late():
            raise TimeoutError("deadline")

        ledger.run("t", late, lambda r: None)
        self.assertEqual(ledger.failures["cancelled"], 1)
        self.assertEqual(ledger.failures["timeout"], 1)


class Schedule(unittest.TestCase):
    def test_round_covers_every_pair_once_with_a_quarter_repeats(self):
        subs = loadgen.schedule(7, 1)
        fresh = [(s.experiment, s.workload) for s in subs if not s.repeat]
        self.assertEqual(sorted(fresh), sorted(
            (e, w) for e in loadgen.EXPERIMENTS for w in loadgen.WORKLOADS))
        self.assertEqual(sum(s.repeat for s in subs), len(subs) // 4)
        per_seed = [sum(1 for s in subs if not s.repeat and s.seed == seed)
                    for seed in loadgen.SCENARIO_SEEDS]
        self.assertEqual(per_seed, [6, 6, 6, 6])

    def test_no_pair_meets_a_seed_twice_across_rounds(self):
        fresh = [s.key for s in loadgen.schedule(11, 4) if not s.repeat]
        self.assertEqual(len(fresh), len(set(fresh)))

    def test_same_seed_same_schedule(self):
        self.assertEqual(loadgen.schedule(3, 2), loadgen.schedule(3, 2))
        self.assertNotEqual(loadgen.schedule(3, 1), loadgen.schedule(4, 1))

    def test_every_scenario_has_a_reference_digest(self):
        digests = json.loads((HERE / "refs" / "serve_digests.json")
                             .read_text())
        for seed in range(20):
            for sub in loadgen.schedule(seed, 4):
                self.assertIn(sub.key, digests)


class Statistics(unittest.TestCase):
    def test_tail_is_highest_percentile_with_ten_beyond(self):
        values = [float(v) for v in range(32)]
        value, percentile = run.tail(values)
        self.assertEqual(value, 21.0)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(percentile, 68.75)
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0))


class Tracing(unittest.TestCase):
    def test_self_time_excludes_children(self):
        spans = [
            {"pid": 1, "id": 1, "parent": 0, "start": 0.0, "end": 10.0},
            {"pid": 1, "id": 2, "parent": 1, "start": 1.0, "end": 4.0},
            {"pid": 1, "id": 3, "parent": 1, "start": 5.0, "end": 7.0},
            {"pid": 2, "id": 1, "parent": 0, "start": 0.0, "end": 1.0},
        ]
        tracer.with_self_times(spans)
        self.assertEqual([s["self"] for s in spans], [5.0, 3.0, 2.0, 1.0])

    def test_spans_of_a_forked_worker_reach_the_parent(self):
        with tempfile.TemporaryDirectory() as trace_dir:
            active = tracer.Tracer(Path(trace_dir))
            task = active.wrap("runner.task", lambda: sum(range(1000)))

            def worker():
                task()
                os._exit(0)  # like a pool worker: atexit never runs

            fork = multiprocessing.get_context("fork")
            child = fork.Process(target=active.wrap("runner.worker", worker))
            child.start()
            child.join(10)
            self.assertFalse(child.is_alive())
            spans = tracer.load_spans(Path(trace_dir))
        self.assertEqual([s["name"] for s in spans], ["runner.task"])
        self.assertEqual(spans[0]["pid"], child.pid)


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match_the_benchmark_file(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         layers.UNITS)
        for metric in spec["end_to_end"]:
            self.assertEqual(metric["unit"], run.E2E_UNITS[metric["name"]])


if __name__ == "__main__":
    unittest.main()
