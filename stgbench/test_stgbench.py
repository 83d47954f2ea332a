#!/usr/bin/env python3
"""Tests for the benchmark itself. Run from the repository root:

    python3 stgbench/test_stgbench.py

Builds the stgbench binary through run.py, then checks that the seeded serve-mix
generator is deterministic, that every workload, at its real size, passes a
one-second run with no failed operation, and that the metric names each run
prints are exactly the sets BENCHMARK.json declares.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BINARY = os.path.join(run.BUILD_DIR, "stgbench")


def print_mix(*args):
    return subprocess.run([BINARY, "--print-mix", *args], check=True,
                          capture_output=True, text=True).stdout.splitlines()


def short_run(workload, trace):
    """One run with --seconds 1: each workload stops at its minimum number
    of repeats or passes."""
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


class StgbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_serve_mix_is_deterministic_per_seed(self):
        first = print_mix("--seed", "5")
        self.assertEqual(len(first), 1500)
        self.assertEqual(first, print_mix("--seed", "5"))
        self.assertNotEqual(first, print_mix("--seed", "6"))
        self.assertNotEqual(first, print_mix("--seed", "5", "--pass", "1"))
        kinds = {json.loads(line)["kind"] for line in first}
        self.assertEqual(kinds, {"run", "campaign"})

    def test_declared_workloads_are_the_runnable_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))

    def test_short_run_of_every_workload(self):
        for metrics_key, trace in (("end_to_end", 0), ("per_layer", 1)):
            declared = {m["name"]: m["unit"] for m in self.spec[metrics_key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, out, err = short_run(workload, trace)
                    self.assertEqual(code, 0, err[-2000:])
                    result = json.loads(out[-1])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)  # error_rate = 0
                    printed = {k: v["unit"]
                               for k, v in result["metrics"].items()}
                    self.assertEqual(printed, declared)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
