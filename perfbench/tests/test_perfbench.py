"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

They build the driver the way run.py does (first run: about a minute) and
run one-second sessions of every workload.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def run(workload, seed, trace, seconds=1):
    """Runs the benchmark; returns (provenance/detail line, result line)."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if done.returncode != 0:
        raise AssertionError(f"run.py failed ({done.returncode}):\n{done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class MetricNamesTest(unittest.TestCase):
    def test_names_and_units_are_well_formed_and_unique(self):
        names = [w["name"] for w in BENCH["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for m in BENCH[group]:
                names.append(m["name"])
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


class EveryMetricEmittedTest(unittest.TestCase):
    def check(self, workload, trace):
        declared = {m["name"]: m["unit"]
                    for m in BENCH["per_layer" if trace else "end_to_end"]}
        stamp, result = run(workload, seed=1, trace=trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], stamp["detail"]["failures"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], declared[name], name)
            self.assertIsInstance(m["value"], (int, float), name)
            if not trace:
                self.assertGreater(m["value"], 0, name)
        prov = stamp["provenance"]
        for key in ("source_sha256", "build", "nproc", "seed", "params",
                    "launch_samples", "chunks",
                    "wall_launch_ms_tail_percentile"):
            self.assertIn(key, prov)
        self.assertEqual(stamp["detail"]["error_frac"], 0)
        raw = stamp["detail"]["raw"]
        self.assertGreater(raw["reference_samples"], 0)
        self.assertGreater(raw["reference_ms_p10"], 0)
        if not trace:
            # launch_ms_scaled is the 10th percentile of the chunk ratios
            # (launch cost in units of the reference) times 2.5 ms.
            self.assertGreaterEqual(prov["chunks"], 1)
            self.assertLessEqual(result["metrics"]["launch_ms_scaled"]["value"],
                                 raw["chunk_ratio_p50"] * 2.5 + 1e-9)

    def test_every_workload_emits_every_metric(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


class SeedTest(unittest.TestCase):
    def test_seed_changes_inputs_but_not_hotspot_paper_counters(self):
        a_stamp, a = run("hotspot-paper", seed=1, trace=0)
        b_stamp, b = run("hotspot-paper", seed=2, trace=0)
        self.assertNotEqual(a_stamp["detail"]["input_digest"],
                            b_stamp["detail"]["input_digest"])
        self.assertEqual(a_stamp["detail"]["deterministic"],
                         b_stamp["detail"]["deterministic"])
        for name in ("sim_s", "p2p_mb"):
            self.assertEqual(a["metrics"][name], b["metrics"][name])


if __name__ == "__main__":
    unittest.main()
