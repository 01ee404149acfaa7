"""Smoke test of the benchmark at a tiny size (one replication per cell).

    python3 -m unittest perfbench/test_smoke.py

Checks that every workload emits exactly the metric names and units declared
in BENCHMARK.json, in both modes, and that the correctness gate and the audit
replay reject tampered output.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402


def run_bench(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--runs", "1"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)


class MetricNames(unittest.TestCase):
    def test_every_workload_emits_the_declared_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            declared = json.load(fh)
        spec = bench.load_spec()
        self.assertEqual([w["name"] for w in declared["workloads"]],
                         list(spec["workloads"]))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in declared[key]}
            for workload in spec["workloads"]:
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)


class Gate(unittest.TestCase):
    def setUp(self):
        os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="smoke-", dir=os.path.join(HERE, "_work"))
        self.addCleanup(shutil.rmtree, self.work, ignore_errors=True)
        cell = {"protocols": ["mca"], "terminations": ["controlled"], "nodes": [3],
                "channels": [10], "similarity": [2], "pr": ["off"], "runs": 3,
                "fix_topology": False}
        config = os.path.join(self.work, "grid.txt")
        with open(config, "w") as fh:
            fh.write(bench.grid_config("smoke", cell))
        result = bench.run_sweep("sweep", config, 1, 1, self.work, "smoke")
        self.runs_text, self.agg_text = result["runs_text"], result["agg_text"]

    def tamper(self, column, value):
        lines = self.runs_text.splitlines()
        at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        header = lines[at].split(",")
        row = lines[at + 1].split(",")
        row[header.index(column)] = value
        lines[at + 1] = ",".join(row)
        return "\n".join(lines) + "\n"

    def test_accepts_real_output_and_audit_replays_it(self):
        self.assertEqual(len(bench.gate(self.runs_text, self.agg_text, 3)), 3)
        bench.audit_sample(self.runs_text, 1, self.work)

    def test_rejects_wrong_controlled_rows(self):
        for column, value in (("ctm", "90.0000"), ("ttr_policy", "0.5000"),
                              ("completed", "maybe")):
            with self.subTest(column=column):
                with self.assertRaises(bench.GateError):
                    bench.gate(self.tamper(column, value), self.agg_text, 3)

    def test_rejects_missing_rows(self):
        with self.assertRaises(bench.GateError):
            bench.gate(self.runs_text, self.agg_text, 4)

    def test_audit_rejects_a_row_that_does_not_replay(self):
        with self.assertRaises(bench.GateError):
            bench.audit_sample(self.tamper("ttr_n1", "12345.0000"), 1, self.work)


class EmptyCheckout(unittest.TestCase):
    def test_fails_without_the_program(self):
        os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "_work"))
        self.addCleanup(shutil.rmtree, bare, ignore_errors=True)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = run_bench("hot20-high", 0, cwd=bare,
                         script=os.path.join(bare, "perfbench", "run.py"))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
