"""Self-test of the benchmark harness, on smoke-sized grids.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload with every correctness check, traced and untraced,
checks that the reported metrics match BENCHMARK.json, that the computed
counts repeat exactly across two runs, that the tracer restores every
function it wrapped, and that the command fails cleanly without sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (sets the BLAS thread cap before numpy loads)

run.cap_blas_threads()
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
EXACT_UNITS = ("count", "GFLOP", "MB")


def smoke(workload, trace, seed=5):
    # seconds=0 runs the warm-up task and one round (two when traced)
    return run.run(workload, seed, 0.0, trace, True, ROOT, emit=lambda line: None)


class SmokeRuns(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        self.assertEqual(set(WORKLOADS), {w["name"] for w in SPEC["workloads"]})

    def test_untraced_runs_pass_and_report_end_to_end_metrics(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result = smoke(name, 0)
                self.assertTrue(result["correct"], result)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 2)
                metrics = result["metrics"]
                self.assertEqual(
                    {k: v["unit"] for k, v in metrics.items()}, END_TO_END
                )
                for key, entry in metrics.items():
                    self.assertTrue(math.isfinite(entry["value"]), key)
                    self.assertGreater(entry["value"], 0.0, key)

    def test_traced_counts_repeat_exactly(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first, second = smoke(name, 1), smoke(name, 1)
                self.assertTrue(first["correct"] and second["correct"])
                units = {k: v["unit"] for k, v in first["metrics"].items()}
                self.assertEqual(units, PER_LAYER)
                for key, unit in units.items():
                    if unit in EXACT_UNITS:
                        self.assertEqual(
                            first["metrics"][key]["value"],
                            second["metrics"][key]["value"],
                            key,
                        )

    def test_layers_show_on_their_workloads(self):
        expect = {
            "distill-bound": ("distill.blur_gflop", "distill.conditional_self_s"),
            "distill-fidelity": ("distill.window_pairs", "monotones.fidelity_calls"),
            "states-io": ("grids.csv_write_mb", "fock.wigner_from_fock_s", "cli.self_s"),
            "two-mode": ("symplectic.corner_gathers", "symplectic.apply_s"),
        }
        for name, keys in expect.items():
            metrics = smoke(name, 1)["metrics"]
            for key in keys:
                self.assertGreater(metrics[key]["value"], 0.0, (name, key))
            if name != "two-mode":
                self.assertEqual(metrics["symplectic.apply_s"]["value"], 0.0)

    def test_tracer_restores_wrapped_functions(self):
        from wigsim import distill, grids, monotones

        before = (distill.log_negativity, grids.integrate_samples, monotones.log_negativity)
        smoke("distill-bound", 1)
        after = (distill.log_negativity, grids.integrate_samples, monotones.log_negativity)
        self.assertEqual(before, after)
        self.assertFalse(hasattr(distill.log_negativity, "__wrapped__"))


class CommandLine(unittest.TestCase):
    def test_last_line_is_the_result_object(self):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "two-mode",
             "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(out.returncode, 0, out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix="perfbench-selftest-") as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "two-mode",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170,
            )
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
