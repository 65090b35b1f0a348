"""Smoke test of the benchmark at tiny input sizes.

It checks that every metric BENCHMARK.json names is emitted, with its
unit, on every workload in both modes, that no verb fails, and that the
benchmark refuses to run where there are no latprof sources.  Run it from
the repository root (it takes about half a minute):

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.05"
SEED = 3


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            cls.spec = json.load(handle)

    def check_mode(self, trace: int, kind: str):
        want = {m["name"]: m["unit"] for m in self.spec[kind]}
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload):
                proc = run_bench(workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                line = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(line["correct"], proc.stdout)
                self.assertEqual(line["failed"], 0)
                self.assertGreaterEqual(line["attempted"], 1)
                got = {name: entry["unit"] for name, entry in line["metrics"].items()}
                self.assertEqual(got, want)
                for entry in line["metrics"].values():
                    self.assertIsInstance(entry["value"], (int, float))
                results = os.path.join(
                    ROOT, ".perfbench-work", "results",
                    f"{workload}-seed{SEED}-trace{trace}.json")
                with open(results, encoding="utf-8") as handle:
                    report = json.load(handle)
                self.assertEqual(report["failed_frac"], 0)
                self.assertTrue(report["inputs"])

    def test_end_to_end_metrics(self):
        self.check_mode(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check_mode(1, "per_layer")

    def test_refuses_without_sources(self):
        work = os.path.join(ROOT, ".perfbench-work")
        os.makedirs(work, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=work)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(self.spec["workloads"][0]["name"], 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
