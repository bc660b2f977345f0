#!/usr/bin/env python3
"""Tests of the layer benchmark itself.

    python3 layerbench/test_layerbench.py      # builds the benchmark first

Short runs of every workload in both modes assert that the verdict carries
every metric BENCHMARK.json declares for the mode, with its unit, and that
the output check passes. Three planted faults on the paced workloads, a bid
sent after its slot closed, a decision that never reaches its client and
a decision the leader publishes twice, must each be counted as a failure
and named, not absorbed.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PACED = ["wire_paced_k2", "cluster_burst_k2"]
# Every workload the binary runs, declared in BENCHMARK.json or not.
WORKLOADS = sorted({w["name"] for w in SPEC["workloads"]} | set(PACED)
                   | {"cluster_replay_k2"})


def run(workload, trace=0, *extra):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "layerbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        verdict, err = run(workload, trace)
        self.assertEqual(set(verdict),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(verdict["correct"], err[-3000:])
        self.assertEqual(verdict["failed"], 0)
        self.assertGreaterEqual(verdict["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(verdict["metrics"]),
                         {m["name"] for m in declared})
        for metric in declared:
            got = verdict["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, metric["name"])

    def test_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0)

    def test_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 1)


class PlantedFaults(unittest.TestCase):
    def check(self, plant, named):
        for workload in PACED:
            with self.subTest(workload=workload):
                verdict, err = run(workload, 0, "--plant", plant)
                self.assertFalse(verdict["correct"])
                # A late bid is also answered after later bids of its
                # source, so it may count as out of order too.
                self.assertGreaterEqual(verdict["failed"], 1)
                self.assertIn(named, err)

    def test_late_bid_is_a_failure(self):
        self.check("late", "late=1")

    def test_dropped_reply_is_a_failure(self):
        self.check("drop_reply", "lost=1")

    def test_duplicated_decision_is_a_failure(self):
        self.check("duplicate", "duplicated=1")


if __name__ == "__main__":
    unittest.main()
