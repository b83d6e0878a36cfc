"""Tests of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

The file name keeps these tests out of the package's own pytest run; they
spawn interpreters and take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import run

TINY = {
    "census-even": {"k": 2, "n": 8, "frozen": None},
    "census-odd-cli": {"k": 3, "n": 9, "frozen": None},
    "lemmas": {"k": 2, "n": 8},
    "shelling": {"k": 3, "n": 9},
}


class BenchmarkTest(unittest.TestCase):
    def setUp(self) -> None:
        run.OUT_DIR.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(dir=run.OUT_DIR))

    def tearDown(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def test_metric_names_and_units_match_the_declaration(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(declared, run.END_TO_END_UNITS)
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(declared, run.per_layer_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        out = run.measure("census-even", 1, 0.05, self.work, TINY["census-even"])
        self.assertEqual(set(out["metrics"]), set(run.END_TO_END_UNITS))
        self.assertTrue(all(v > 0 for v in out["metrics"].values()), out["metrics"])

    def test_wrong_frozen_digest_fails_every_item(self):
        params = {"k": 2, "n": 8, "frozen": ["0" * 64] * 8}
        out = run.measure("census-even", 1, 0.05, self.work, params)
        self.assertGreater(out["attempted"], 0)
        self.assertEqual(out["failed"], out["attempted"])
        params = dict(TINY["census-odd-cli"], frozen={"manifest": "0" * 64, "files": []})
        out = run.measure("census-odd-cli", 1, 0.05, self.work, params)
        self.assertEqual(out["failed"], out["attempted"])

    def test_tracing_keeps_outputs_and_self_times_fit_the_wall_time(self):
        units = run.per_layer_units()
        for workload, params in TINY.items():
            with self.subTest(workload=workload):
                out = run.trace(workload, 3, self.work, params)
                self.assertEqual(out["failed"], 0, out["errors"])
                self.assertTrue(out["digests"])
                # a fixed set of items: the whole census, or TRACE_ITEMS items
                if workload == "census-even":
                    self.assertEqual(out["metrics"]["construct.sew.calls"], len(out["digests"]))
                elif workload != "census-odd-cli":
                    self.assertEqual(len(out["digests"]), run.TRACE_ITEMS)
                self.assertEqual(out["digests"], out["untraced_digests"])
                self.assertEqual(set(out["metrics"]), set(units))
                layers = out["metrics"]
                self_sum = sum(v for k, v in layers.items()
                               if k.endswith(".self_s") and not k.startswith("trace."))
                self.assertGreater(self_sum, 0)
                self.assertLessEqual(self_sum, layers["trace.wall_s"])

    def test_worker_stuck_in_setup_is_stopped(self):
        # the full-size lemma set-up enumerates 9k antichains, far longer than this
        saved, run.CHILD_TIMEOUT_S = run.CHILD_TIMEOUT_S, 0.3
        try:
            t0 = time.perf_counter()
            with self.assertRaises(run.HarnessError):
                run.spawn("setup", "lemmas", {"seed": 1}, self.work)
            self.assertLess(time.perf_counter() - t0, 5)
        finally:
            run.CHILD_TIMEOUT_S = saved

    def test_readme_probe_reports_every_command_line(self):
        lines = run.probe(self.work)
        self.assertEqual(len(lines), 9)
        self.assertTrue(all(isinstance(ln["exit"], int) for ln in lines))

    def test_refuses_to_run_without_the_package(self):
        bare = self.work / "bare"
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "lemmas", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
