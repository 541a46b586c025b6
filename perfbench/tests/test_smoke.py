#!/usr/bin/env python3
"""Tiny-size end-to-end runs of the benchmark command.

  * every workload, untraced and traced, prints a last line whose metrics
    are exactly the ones BENCHMARK.json declares, each with its unit, and
    passes its output checks;
  * the digits workloads repeat their accuracy and work counters (spikes,
    sparse.*, presentations) exactly for one seed and differ for another;
  * in a directory holding only BENCHMARK.json and perfbench/ the command
    fails without printing a result.

    python3 perfbench/tests/test_smoke.py     (builds the runner if needed)
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import analysis  # noqa: E402
import run  # noqa: E402

SECONDS = 1


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_metric_with_its_unit(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = bench("--workload", workload, "--seed", "3",
                                 "--seconds", str(SECONDS), "--trace",
                                 str(trace))
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in self.spec[key]}
                    self.assertEqual(set(result["metrics"]), set(declared))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], declared[name])
                        self.assertIsInstance(metric["value"], (int, float))
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            # Ladder rungs of a 1 s run last 40 ms, so one
                            # stall can fail every rung; the rate may be 0.
                            if name != "max_rps_at_slo":
                                self.assertGreater(metric["value"], 0, name)

    def test_seed_determinism(self):
        binary = run.build()
        for workload in ("digits_wta", "digits_stacked"):
            with self.subTest(workload=workload):
                a = analysis.determinism_counts(
                    run.drive(binary, workload, 3, SECONDS, True))
                b = analysis.determinism_counts(
                    run.drive(binary, workload, 3, SECONDS, True))
                c = analysis.determinism_counts(
                    run.drive(binary, workload, 4, SECONDS, True))
                self.assertIn("present.output_spikes", a)
                self.assertIn("graph.presentations", a)
                if workload == "digits_wta":
                    self.assertIn("sparse.synapses_touched", a)
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)

    def test_fails_without_the_sources(self):
        bare = os.path.join(run.BUILD, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "perfbench"))
            done = bench("--workload", "digits_wta", "--seed", "1",
                         "--seconds", "20", "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
