"""Tests of the benchmark itself: golden digests and traced-run attribution.

    python3 -m unittest discover -s perfbench/tests -v

Builds the bench binary through run.py's own build step if needed, then runs
single reps of every workload.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402  (perfbench/run.py)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
GOLDEN = json.loads((run.HERE / "golden.json").read_text())


def setUpModule():
    run.build()


class GoldenDigests(unittest.TestCase):
    def test_two_golden_seeds_per_workload(self):
        for w in WORKLOADS:
            self.assertEqual(len(GOLDEN.get(w, {})), 2, w)
            for digests in GOLDEN[w].values():
                self.assertEqual(len(digests), run.INPUTS_PER_SEED, w)

    def test_reps_match_golden(self):
        for w in WORKLOADS:
            for seed in GOLDEN[w]:
                for input_seed, digest in run.golden_digests(w, int(seed)).items():
                    with self.subTest(workload=w, input_seed=input_seed):
                        rep = run.run_rep(w, input_seed)
                        self.assertEqual(rep["errors"], [])
                        self.assertEqual(rep["failed_ops"], 0)
                        self.assertEqual(rep["digest"], digest)

    def test_mismatch_fails_every_op(self):
        w = WORKLOADS[0]
        expected = run.golden_digests(w, 1)
        rep = run.run_rep(w, run.input_seed(1, 0))
        errors, attempted, failed = run.check_outputs([rep], expected)
        self.assertEqual((errors, failed), ([], 0))
        wrong = {seed: "0" * 16 for seed in expected}
        errors, attempted, failed = run.check_outputs([rep], wrong)
        self.assertTrue(errors)
        self.assertEqual(failed, attempted)

    def test_reps_that_disagree_fail(self):
        w = WORKLOADS[0]
        rep = run.run_rep(w, 2)
        other = dict(rep, digest="f" * 16)
        errors, attempted, failed = run.check_outputs([rep, other], {})
        self.assertTrue(errors)
        self.assertGreater(failed, 0)


class TracedAttribution(unittest.TestCase):
    def test_spans_cover_the_timed_phase(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rep = run.run_rep(w, 1, traced=True)
                self.assertGreaterEqual(rep["layers"]["bench.attributed_share"], 0.95)
                self.assertIn("other", rep["self_shares"])
                self.assertAlmostEqual(sum(rep["self_shares"].values()), 1.0, places=3)
                self.assertTrue(set(rep["layers"]) <= names, set(rep["layers"]) - names)

    def test_traced_run_reports_every_per_layer_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = subprocess.run(
                    SPEC["command"] + ["--workload", w, "--seed", "1", "--seconds", "1",
                                       "--trace", "1"],
                    cwd=run.ROOT, capture_output=True, text=True, timeout=600)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                out = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                self.assertEqual(set(out["metrics"]),
                                 {m["name"] for m in SPEC["per_layer"]})
                self.assertGreaterEqual(out["metrics"]["bench.attributed_share"]["value"],
                                        0.95)


if __name__ == "__main__":
    unittest.main()
