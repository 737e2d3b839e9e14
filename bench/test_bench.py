"""Self-test of the benchmark harness.

    python3 -m unittest discover -s bench -p "test_*.py"

Runs short benchmark processes and checks the result contract, the
traced metric table, that a planted defect (the library's documented
``mul-drop-cross`` mutant) raises the failed share above zero on every
workload, and that a checkout without ``src/`` is refused.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# cli-oneshot runs by name although BENCHMARK.json does not declare it.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["cli-oneshot"]


def run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    return proc, result


def bench(workload, *extra, seconds="1", trace="0"):
    return run("--workload", workload, "--seed", "3", "--seconds", seconds, "--trace", trace, *extra)


class ResultContract(unittest.TestCase):
    def assert_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload_is_correct_and_prints_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc, result = bench(w)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assert_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"], proc.stdout.splitlines()[-2])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced_run_prints_every_per_layer_metric(self):
        proc, result = bench("algebra-mix", seconds="3", trace="1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assert_metrics(result, SPEC["per_layer"])
        self.assertTrue(result["correct"])
        self.assertTrue((ROOT / ".bench_out" / "spans-algebra-mix.csv").is_file())


class PlantedDefect(unittest.TestCase):
    def test_mul_drop_cross_raises_the_failed_share(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc, result = bench(w, "--mutant", "mul-drop-cross")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"] / result["attempted"], 0.0)


class MissingSource(unittest.TestCase):
    def test_refuses_a_directory_without_the_library(self):
        scratch = ROOT / ".bench_out"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path, ignore=shutil.ignore_patterns("__pycache__"))
            proc, result = run("--workload", "algebra-mix", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
