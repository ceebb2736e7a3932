#!/usr/bin/env python3
"""Self-test of the campaign benchmark, in smoke mode (two trials per cell).

    python3 perfbench/test_bench.py

Checks that every end-to-end and per-layer metric of BENCHMARK.json is
printed with its unit on every workload, that no check fails on the current
code at the default seed, that a corrupted reference row is reported as a
failure, and that the traced run's counts repeat exactly.
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Per-layer metrics that must repeat exactly at a fixed seed on a
# one-worker workload.
EXACT = ("fault.llfi.trials", "fault.pinfi.trials", "checkpoint.snapshots",
         "checkpoint.stride", "checkpoint.hit_rate", "checkpoint.delta_share",
         "checkpoint.mean_restored_pages", "checkpoint.skipped_minstr",
         "vm.minstr_executed", "x86.minstr_executed", "suffix.minstr.benign",
         "suffix.minstr.sdc", "suffix.minstr.crash", "suffix.minstr.hang",
         "suffix.benign_share", "obs.events_written")


def bench(workload, trace, *extra):
    """Runs one smoke run; returns (stdout lines, parsed result line)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"run.py failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, wanted):
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in wanted))
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_end_to_end_metrics_and_no_errors(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = bench(workload, 0)
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertTrue(any(l.startswith("error_rate") and " 0 ratio" in l
                                    for l in lines))
                self.assertTrue(any(l.startswith("config: ") for l in lines))

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, result = bench(workload, 1)
                self.check_metrics(result, SPEC["per_layer"])
                self.assertTrue(result["correct"])

    def test_traced_counts_repeat(self):
        _, first = bench("prop_observed", 1)
        _, second = bench("prop_observed", 1)
        for name in EXACT:
            self.assertEqual(first["metrics"][name]["value"],
                             second["metrics"][name]["value"], name)

    def test_corrupted_reference_row_fails(self):
        scratch = ROOT / ".bench_build" / "selftest"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        rows = (HERE / "reference" / "fig3_transient.smoke.csv").read_text()
        rows = rows.splitlines(keepends=True)
        fields = rows[3].split(",")
        fields[5] = str(int(fields[5]) + 1)  # the row's trial count
        rows[3] = ",".join(fields)
        corrupt = scratch / "corrupt.csv"
        corrupt.write_text("".join(rows))
        _, result = bench("fig3_transient", 0, "--reference", str(corrupt))
        shutil.rmtree(scratch, ignore_errors=True)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
