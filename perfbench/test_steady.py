"""Tests for steady.py: quartile math, spreads and the A-B verdicts.

Run with:  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import io
import json
import os
import statistics
import tempfile
import unittest

import steady


class QuartileMath(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, med, q3 = steady.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, statistics.median(values))

    def test_known_quartiles_and_spread(self):
        # Exclusive method on 1..9: q1 = 2.5, q3 = 7.5.
        values = [float(v) for v in range(1, 10)]
        self.assertEqual(steady.quartiles(values), (2.5, 5.0, 7.5))
        self.assertAlmostEqual(steady.spread(values), 1.0)
        self.assertAlmostEqual(steady.max_deviation(values), 0.8)

    def test_single_run_has_no_spread(self):
        self.assertEqual(steady.quartiles([2.0]), (2.0, 2.0, 2.0))
        self.assertEqual(steady.spread([2.0]), 0.0)

    def test_verdict_thresholds(self):
        self.assertEqual(steady.verdict(0.02, 0.1), "steady")
        self.assertEqual(steady.verdict(0.05, 0.1), "ok")
        self.assertEqual(steady.verdict(0.2, 0.1), "NOISY")
        self.assertEqual(steady.verdict(0.2, None), "")


class ABVerdicts(unittest.TestCase):
    def test_change_is_signed_by_direction(self):
        self.assertAlmostEqual(steady.change(1.0, 1.2, "lower"), 0.2)
        self.assertAlmostEqual(steady.change(100.0, 80.0, "higher"), 0.2)
        self.assertAlmostEqual(steady.change(1.0, 0.9, "lower"), -0.1)

    def test_ab_verdicts(self):
        self.assertEqual(steady.ab_verdict(0.3, 0.2, 0.01), "WORSE")
        self.assertEqual(steady.ab_verdict(0.05, 0.1, 0.2), "unresolved")
        self.assertEqual(steady.ab_verdict(-0.2, 0.1, 0.05), "better")
        self.assertEqual(steady.ab_verdict(0.01, 0.1, 0.05), "same")


def fake_run(workload, seed, seq_s):
    fp = {"fingerprint": {"workload": workload, "seed": seed}}
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {"seq_s": {"value": seq_s, "unit": "s"}}}
    return json.dumps(fp) + "\n" + json.dumps(result) + "\n"


class SavedRuns(unittest.TestCase):
    SPEC = {"end_to_end": [{"name": "seq_s", "unit": "s", "better": "lower", "bound": 0.1}],
            "per_layer": []}

    def write(self, directory, seq_values):
        for seed, v in enumerate(seq_values):
            path = os.path.join(directory, f"w-seed{seed}.json")
            with open(path, "w") as f:
                f.write(fake_run("w", seed, v))

    def test_summary_and_ab_over_saved_runs(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            self.write(a, [1.00, 1.01, 0.99, 1.00, 1.02])
            self.write(b, [1.30, 1.31, 1.29, 1.30, 1.32])
            out = io.StringIO()
            self.assertEqual(steady.summary(a, self.SPEC, out), 0)
            self.assertIn("steady", out.getvalue())
            out = io.StringIO()
            self.assertEqual(steady.ab(a, b, self.SPEC, out), 1)
            self.assertIn("WORSE", out.getvalue())
            self.assertEqual(steady.ab(a, a, self.SPEC, io.StringIO()), 0)

    def test_noisy_setup_counts_against_the_exit_status(self):
        spec = {"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower",
                                "bound": 0.1}], "per_layer": []}
        with tempfile.TemporaryDirectory() as a:
            for seed, v in enumerate([1.0, 1.5, 2.0, 2.5, 3.0]):
                result = {"correct": True, "attempted": 1, "failed": 0,
                          "metrics": {"setup_s": {"value": v, "unit": "s"}}}
                with open(os.path.join(a, f"w-seed{seed}.json"), "w") as f:
                    f.write(json.dumps(result) + "\n")
            out = io.StringIO()
            self.assertEqual(steady.summary(a, spec, out), 1)
            self.assertIn("NOISY", out.getvalue())

    def test_parse_output_takes_the_last_two_lines(self):
        fp, result = steady.parse_output("noise\n" + fake_run("w", 3, 0.5))
        self.assertEqual(fp["seed"], 3)
        self.assertEqual(result["metrics"]["seq_s"]["value"], 0.5)


if __name__ == "__main__":
    unittest.main()
