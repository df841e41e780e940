#!/usr/bin/env python3
"""Self-check of the benchmark: runs every workload of BENCHMARK.json once at
tiny size (run.py --smoke, one second), untraced and traced, and fails if a
named end-to-end or per-layer metric is missing, is not a finite number, or
carries another unit than BENCHMARK.json gives it.

    python3 perfbench/test_smoke.py        # from the root of the source tree

Takes about a minute on a 4-core machine after the first build.
"""
import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        proc, result = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr[-3000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got.get("unit"), m["unit"], m["name"])
            self.assertIsInstance(got.get("value"), (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])


def add_cases():
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            name = f"test_{w['name']}_trace{trace}"
            setattr(SmokeTest, name,
                    lambda self, w=w["name"], t=trace: self.check(w, t))


add_cases()

if __name__ == "__main__":
    unittest.main()
