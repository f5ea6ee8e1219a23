"""Tiny-scale smoke run of every workload, untraced and traced.

Asserts that each run is correct and prints every metric BENCHMARK.json
names, with its unit, both as a "metric" line and in the final JSON object.

    PERFBENCH_BINARY=<build>/spider_perfbench python3 -m unittest test_smoke

Without PERFBENCH_BINARY the runs go through perfbench/run.py, which builds
the binary first.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BINARY = os.environ.get("PERFBENCH_BINARY")


def run(workload, trace, seed=3):
    with tempfile.TemporaryDirectory() as workdir:
        if BINARY:
            cmd = [BINARY, "--workdir", workdir]
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py")]
        cmd += ["--workload", workload, "--seed", str(seed), "--seconds",
                "0.5", "--trace", str(trace), "--scale", "tiny"]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=600, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1]), proc.stderr


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace, expected):
        lines, result, stderr = run(workload, trace)
        self.assertTrue(result["correct"], stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in expected}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, unit in want.items():
            value = result["metrics"][name]["value"]
            self.assertIsInstance(value, (int, float))
            printed = [l for l in lines
                       if l.startswith(f"metric {workload} {name} = ")]
            self.assertEqual(len(printed), 1, name)
            self.assertTrue(printed[0].endswith(f" {unit}"), printed[0])
        return result["metrics"]

    def test_end_to_end_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                m = self.check(w["name"], 0, SPEC["end_to_end"])
                for name in ("setup_s", "payments_per_s", "peak_rss_mb",
                             "success_ratio", "success_volume"):
                    self.assertGreater(m[name]["value"], 0, name)
                self.assertLessEqual(m["success_ratio"]["value"], 1)

    def test_per_layer_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                m = self.check(w["name"], 1, SPEC["per_layer"])
                v = {name: metric["value"] for name, metric in m.items()}
                # The timed child spans and the sim layer's self time add up
                # to the traced simulation phase.
                parts = (v["routing.plan_s"] + v["transport.hook_s"] +
                         v["sim.self_s"] + v["observer.hook_s"] +
                         v["workload.parse_s"])
                self.assertAlmostEqual(parts, v["sim.phase_s"], places=6)
                self.assertGreater(v["sim.self_s"], 0)
                self.assertGreater(v["routing.plans"], 0)
                self.assertGreater(v["trace.overhead_x"], 0)


if __name__ == "__main__":
    unittest.main()
