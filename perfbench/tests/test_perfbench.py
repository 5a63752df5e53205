"""The benchmark's own tests: smoke-size runs of every workload, the
correctness gate on injected defects, and the compare tool's verdicts.

    python3 -m unittest discover -s perfbench/tests -v

Run from the root of a checkout; the first test builds pmbench.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
OUT = os.path.join(ROOT, ".bench_out", "tests")
SMOKE_SCALE = "0.05"

sys.path.insert(0, PERFBENCH)
import compare  # noqa: E402
from run import WORKLOADS  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra, seed=7):
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--scale", SMOKE_SCALE, "--out-dir", OUT,
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


class SmokeRuns(unittest.TestCase):
    def check_metrics(self, workload, trace, section):
        proc, result = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in spec()[section]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name in want:
            # The human-readable lines name every metric with its unit.
            self.assertIn(f"{name} = ", proc.stdout)
        return proc

    def test_every_workload_prints_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(w, 0, "end_to_end")

    def test_every_workload_prints_every_per_layer_metric_and_spans(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_metrics(w, 1, "per_layer")
                spans = os.path.join(OUT, f"{w}-7.trace.json")
                with open(spans) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(events)
                for e in events:
                    self.assertTrue({"span", "parent", "run_id"} <= set(e["args"]))

    def test_result_record_carries_the_shared_header(self):
        run("convoy-8", 0)
        with open(os.path.join(OUT, "results", "convoy-8-seed7-trace0.json")) as f:
            header = json.load(f)["header"]
        for field in ("commit", "build_type", "compiler", "nproc", "kernel",
                      "seed", "samples"):
            self.assertIn(field, header)
        self.assertEqual(header["build_type"], "Release")


class CorrectnessGate(unittest.TestCase):
    def test_corrupted_trace_is_a_typed_counted_failure(self):
        proc, result = run("convoy-8", 0, "--fault", "corrupt-trace")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("typed TraceError", proc.stdout)
        self.assertIn("failed_frac = ", proc.stdout)

    def test_wrong_expected_count_trips_the_gate(self):
        proc, result = run("dense-fanin", 0, "--fault", "wrong-count")
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 4)  # every path, at least once
        self.assertIn("!= oracle", proc.stdout)


def record(workload, seed, **metrics):
    return {"header": {"workload": workload, "trace": 0, "seed": seed,
                       "build_type": "Release", "compiler": "c", "nproc": 4,
                       "seconds": 20, "scale": 1.0},
            "failed": 0,
            "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}


class CompareVerdicts(unittest.TestCase):
    METRIC = {"name": "m", "unit": "x", "better": "higher", "bound": 0.1}

    def verdict(self, base, change):
        won = sum(c > b for b, c in zip(base, change))
        lost = sum(c < b for b, c in zip(base, change))
        return compare.verdict(self.METRIC, base, change, won, lost, len(base),
                               self.METRIC["bound"], False)

    def test_verdicts(self):
        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        self.assertEqual(self.verdict(base, [v * 1.2 for v in base]), "improved")
        self.assertEqual(self.verdict(base, [v * 0.8 for v in base]), "worse")
        self.assertEqual(self.verdict(base, [v * 0.99 for v in base]),
                         "within bound")
        noisy = [60, 140, 70, 130, 100, 80, 120, 90, 110, 100]
        self.assertEqual(self.verdict(noisy, list(reversed(noisy))), "unresolved")

    def test_directories_pair_by_seed(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            for seed in range(10):
                for d, v in ((a, 100 + seed % 3), (b, 130 + seed % 3)):
                    with open(os.path.join(d, f"r{seed}.json"), "w") as f:
                        json.dump(record("convoy-8", seed, offline_states_per_s=v), f)
            out = subprocess.run(
                [sys.executable, os.path.join(PERFBENCH, "compare.py"), a, b],
                capture_output=True, text=True, cwd=ROOT)
            self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
            self.assertIn("offline_states_per_s", out.stdout)
            self.assertIn("10/10", out.stdout)
            self.assertIn("improved", out.stdout)


if __name__ == "__main__":
    unittest.main()
