"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import os
import sys
import unittest
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import harness  # noqa: E402
import wl_cli  # noqa: E402
from tracer import Tracer  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p90_needs_a_hundred_samples(self):
        self.assertEqual(harness.samples_beyond(100, 90.0), 10)
        self.assertTrue(harness.enough_beyond_p90(100))
        self.assertEqual(harness.samples_beyond(99, 90.0), 9)
        self.assertFalse(harness.enough_beyond_p90(99))
        self.assertTrue(harness.enough_beyond_p90(145))

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(harness.nearest_rank(values, 50.0), 50)
        self.assertEqual(harness.nearest_rank(values, 90.0), 90)
        self.assertEqual(harness.nearest_rank([7], 90.0), 7)

    def test_quartile_spread(self):
        self.assertAlmostEqual(harness.quartile_spread([10.0] * 10), 0.0)
        self.assertGreater(harness.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 0.5)


class SelfTime(unittest.TestCase):
    def make(self, times):
        ticks = iter(times)
        tracer = Tracer(clock=lambda: next(ticks))
        tracer.enabled = True
        return tracer

    def test_children_are_subtracted_from_the_parent(self):
        # outer 0..10 calls inner 2..5 and a counted op 6..7
        tracer = self.make([0.0, 2.0, 5.0, 6.0, 7.0, 10.0])
        inner = tracer.wrap("linalg", "rref", lambda rows: None)
        op = tracer.wrap("field", "FieldElement.__mul__", lambda: None, span=False)

        def body():
            inner([])
            op()

        tracer.wrap("semilinear", "SemilinearModule.decompose", body)()
        self.assertEqual(tracer.self_s["semilinear"], 6.0)
        self.assertEqual(tracer.self_s["linalg"], 3.0)
        self.assertEqual(tracer.self_s["field"], 1.0)
        self.assertEqual(tracer.counts["field.mul_calls"], 1)
        self.assertEqual(tracer.counts["linalg.rref_calls"], 1)
        outer_span, inner_span = tracer.spans
        self.assertEqual(outer_span[:4], ["SemilinearModule.decompose", 0.0, 10.0, -1])
        self.assertEqual(inner_span[:4], ["rref", 2.0, 5.0, 0])

    def test_same_layer_nesting_adds_up_to_the_layer_total(self):
        tracer = self.make([0.0, 1.0, 4.0, 9.0])
        inner = tracer.wrap("poly", "divide", lambda: SimpleNamespace(is_zero=True))
        tracer.wrap("poly", "groebner_basis", lambda: inner())()
        self.assertEqual(tracer.self_s["poly"], 9.0)
        self.assertEqual(tracer.times["poly.divide_s"], 3.0)
        self.assertEqual(tracer.metrics()["poly.spair_zero_ratio"], 1.0)

    def test_an_error_counts_once_per_layer(self):
        tracer = self.make([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])

        def fail():
            raise KeyError("x")

        low = tracer.wrap("semilinear", "SemilinearModule.apply", fail)
        mid = tracer.wrap("semilinear", "SemilinearModule.decompose", lambda: low())
        top = tracer.wrap("crystal", "jordan_holder", lambda: mid())
        with self.assertRaises(KeyError):
            top()
        self.assertEqual(dict(tracer.errors["semilinear"]), {"KeyError": 1})
        self.assertEqual(dict(tracer.errors["crystal"]), {"KeyError": 1})
        self.assertEqual(tracer.self_s["crystal"] + tracer.self_s["semilinear"], 5.0)

    def test_disabled_tracer_only_forwards(self):
        tracer = Tracer(clock=lambda: 1 / 0)
        self.assertEqual(tracer.wrap("field", "embed", lambda x: x + 1)(1), 2)
        self.assertEqual(tracer.spans, [])


class Calibration(unittest.TestCase):
    def test_latency_is_scaled_to_the_reference_probe_time(self):
        # every probe run takes 2 ms: the machine runs at half the reference speed
        ticks = iter(range(0, 1000, 2))
        calibration = harness.Calibration(clock=lambda: next(ticks) * 1e-3)
        self.assertAlmostEqual(calibration.last, 2e-3)
        self.assertAlmostEqual(calibration.scale(), harness.PROBE_REF_S / 2e-3)


class Checker(unittest.TestCase):
    def task(self, **kw):
        return harness.Task(id="t", kind="k", prepare=lambda: None, **kw)

    def test_matching_answer_passes(self):
        task = self.task(ref=harness.digest([1, 2]))
        self.assertIsNone(harness.verdict(task, [1, 2], None))

    def test_corrupted_answer_is_flagged(self):
        task = self.task(ref=harness.digest([1, 2]))
        self.assertIn("differs from reference", harness.verdict(task, [1, 3], None))

    def test_property_failure_is_flagged(self):
        task = self.task(prop=lambda answer: None if answer > 0 else "negative")
        self.assertEqual(harness.verdict(task, -1, None), "negative")

    def test_unexpected_exception_is_flagged(self):
        task = self.task(ref=harness.digest(1))
        self.assertIn("unexpected KeyError", harness.verdict(task, None, KeyError("m")))

    def test_unexpected_exit_code_is_flagged(self):
        answer = wl_cli.Answer(1, "Traceback ...")
        task = self.task(canon=wl_cli.Answer.canon, prop=wl_cli.check_exit(2))
        self.assertEqual(
            harness.verdict(task, answer, None), "unexpected exit code 1 (expected 2)"
        )

    def test_error_exit_needs_a_structured_error(self):
        task = self.task(prop=wl_cli.check_exit(2))
        good = wl_cli.Answer(2, '{"error": {"detail": "d", "kind": "usage"}}')
        self.assertIsNone(harness.verdict(task, good, None))
        bare = wl_cli.Answer(2, "")
        self.assertIn("without JSON", harness.verdict(task, bare, None))

    def test_another_correct_basis_has_the_same_digest(self):
        one = [[1, 1, 0], [0, 1, 1]]
        other = [[1, 0, 1], [0, 1, 1]]  # the same plane in F_2^3
        self.assertEqual(checks.fp_rref(one, 2), checks.fp_rref(other, 2))
        self.assertNotEqual(checks.fp_rref(one, 2), checks.fp_rref([[1, 0, 0], [0, 1, 0]], 2))

    def test_cli_output_is_compared_in_canonical_form(self):
        entry = {"argv": ["poly-enum-compatible"]}
        first = wl_cli.Answer(0, '{"count": 2, "ideals": [["x"], ["y"]]}')
        second = wl_cli.Answer(0, '{"count": 2, "ideals": [["y"], ["x"]]}')
        canon = wl_cli.canon_for(entry)
        self.assertEqual(canon(first), canon(second))

    def test_run_task_times_only_the_call(self):
        task = self.task(ref=harness.digest(3))
        task.prepare = lambda: lambda: 3
        result = harness.run_task(task, 0)
        self.assertIsNone(result.failure)
        self.assertEqual(result.digest, harness.digest(3))
        self.assertGreaterEqual(result.seconds, 0.0)

    def test_known_defects_are_expected_failures(self):
        bad = self.task(ref=harness.digest(1))
        defect = self.task(ref=harness.digest(1), known_defect="fails when recorded")
        summary = harness.Summary([
            harness.Result(bad, 0.1, "boom"),
            harness.Result(defect, 0.1, "boom"),
            harness.Result(bad, 0.1, None),
        ])
        expected, unexpected = summary.failures()
        self.assertEqual(len(expected), 1)
        self.assertEqual(len(unexpected), 1)
        self.assertAlmostEqual(summary.end_to_end(1.0, 1.0)["failed_ratio"], 2 / 3)


class Contract(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        import json
        import run

        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units())


if __name__ == "__main__":
    unittest.main()
