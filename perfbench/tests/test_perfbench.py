#!/usr/bin/env python3
"""Self-tests of the natix-tsp benchmark.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark through run.py, then runs every workload at a small
size: results must be correct and name exactly the metrics (and units) of
BENCHMARK.json, and a planted fault must make `failed` non-zero.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = ["load", "query", "update", "serve"]
# The issue's end-to-end names, printed on the line of figures before the
# result (the result itself holds the generic names of BENCHMARK.json).
FIGURES = {
    "load": ["load.nodes_per_s", "load.space_amp"],
    "query": ["query.p50_ms", "query.p95_ms"],
    "update": ["update.ops_per_s", "update.op_p50_us", "update.op_p99_us",
               "update.bytes_per_op", "update.recover_ms"],
    "serve": ["serve.writer_ops_per_s", "serve.write_p99_us",
              "serve.reader_queries_per_s"],
}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace=0, extra=(), figures=False):
    """Returns the result object, or (figures line, result) if `figures`."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "0.1", *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"{cmd} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    return (json.loads(lines[-2]), result) if figures else result


def expected_metrics(kind):
    return {m["name"]: m["unit"] for m in spec()[kind]}


class PerfbenchTest(unittest.TestCase):
    def check_result(self, result, kind):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected_metrics(kind))

    def test_smoke_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                info, result = run(workload, figures=True)
                self.check_result(result, "end_to_end")
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                for name in FIGURES[workload] + ["error_rate"]:
                    self.assertIn(name, info["figures"])
                self.assertEqual(info["figures"]["error_rate"], 0)

    def test_smoke_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(run(workload, trace=1), "per_layer")

    def test_planted_fault_is_reported(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run(workload, extra=["--plant-fault"])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in spec()["workloads"]], WORKLOADS)


if __name__ == "__main__":
    unittest.main()
