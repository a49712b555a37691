#!/usr/bin/env python3
"""Tests for benchmark/run.py's statistics and output checks (stdlib unittest).

Covers median and quartiles, the percentile sample rule, bound direction,
the failed-job count behind fail_ratio, the pass budget, the nonzero exit on
a digest mismatch, and calibrate.py's spread.  No build and no runner
process: main() runs against canned passes.

    python3 benchmark/test_run.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import calibrate  # noqa: E402
import run  # noqa: E402


def job(i, ok=True, work=10, job_ms=1.0):
    return {"id": f"j{i}", "ok": ok, "work": work, "messages": 5, "crashes": 1,
            "rounds": "7", "job_ms": job_ms, "setup_ms": 0.25}


def a_pass(jobs):
    return {"workload": "w", "seed": 1, "traced": False, "peak_rss_mb": 12.5,
            "jobs": list(jobs)}


class StatisticsTest(unittest.TestCase):
    def test_quartiles_are_the_statistics_module_cut_points(self):
        self.assertEqual(run.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9]), (2.5, 5, 7.5))

    def test_median_of_even_sample(self):
        self.assertEqual(run.quartiles([4, 1, 3, 2])[1], 2.5)

    def test_single_sample_is_its_own_quartiles(self):
        self.assertEqual(run.quartiles([3.0]), (3.0, 3.0, 3.0))

    def test_percentile_interpolates_between_samples(self):
        self.assertAlmostEqual(run.percentile(list(range(1, 101)), 90), 90.1)
        self.assertEqual(run.percentile([1, 3], 50), 2)
        self.assertEqual(run.percentile([7.5], 90), 7.5)

    def test_tail_needs_ten_samples_beyond_it(self):
        self.assertTrue(run.tail_supported(100, 90))
        self.assertFalse(run.tail_supported(99, 90))
        self.assertTrue(run.tail_supported(1000, 99))
        self.assertFalse(run.tail_supported(999, 99))
        self.assertTrue(run.tail_supported(20, 50))
        self.assertFalse(run.tail_supported(1, 90))

    def test_pass_metrics(self):
        m = run.pass_metrics(a_pass([job(0, job_ms=1000.0), job(1, job_ms=3000.0)]))
        self.assertEqual(m["wall_s"], 4.0)
        self.assertEqual(m["setup_s"], 0.0005)
        self.assertEqual(m["peak_rss_mb"], 12.5)
        self.assertEqual(m["job_ms_p50"], 2000.0)
        self.assertAlmostEqual(m["job_ms_p90"], 2800.0)


class BoundTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertTrue(run.regressed(100, 110.5, 0.1, "lower"))
        self.assertFalse(run.regressed(100, 109, 0.1, "lower"))
        self.assertFalse(run.regressed(100, 50, 0.1, "lower"))

    def test_higher_is_better(self):
        self.assertTrue(run.regressed(100, 89, 0.1, "higher"))
        self.assertFalse(run.regressed(100, 91, 0.1, "higher"))
        self.assertFalse(run.regressed(100, 150, 0.1, "higher"))


class FailedJobsTest(unittest.TestCase):
    def test_clean_passes(self):
        passes = [a_pass([job(0), job(1)]) for _ in range(3)]
        self.assertEqual(run.failed_jobs(passes), 0)

    def test_unverified_job_fails_in_every_pass(self):
        passes = [a_pass([job(0), job(1, ok=False)]) for _ in range(3)]
        self.assertEqual(run.failed_jobs(passes), 3)

    def test_row_that_differs_from_the_first_pass(self):
        passes = [a_pass([job(0), job(1)]), a_pass([job(0), job(1, work=11)])]
        self.assertEqual(run.failed_jobs(passes), 1)

    def test_digest_mismatch_fails_the_whole_pass(self):
        rows = [job(0), job(1)]
        passes = [a_pass(rows), a_pass(rows)]
        self.assertEqual(run.failed_jobs(passes, run.digest(rows)), 0)
        self.assertEqual(run.failed_jobs(passes, "0" * 64), 4)

    def test_digest_covers_every_row_field(self):
        base = run.digest([job(0)])
        for field, value in (("id", "x"), ("ok", False), ("work", 9), ("messages", 6),
                             ("crashes", 2), ("rounds", "8")):
            changed = dict(job(0), **{field: value})
            self.assertNotEqual(run.digest([changed]), base, field)
        self.assertEqual(run.digest([dict(job(0), job_ms=99.0)]), base)


class RunPassesTest(unittest.TestCase):
    def run_passes(self, seconds, pass_s, trace=0):
        clock = [0.0]

        def fake_pass(workload, seed, traced):
            clock[0] += pass_s
            return dict(a_pass([job(0)]), traced=traced)

        with mock.patch.object(run, "run_pass", side_effect=fake_pass), \
                mock.patch.object(run.time, "monotonic", lambda: clock[0]):
            state = run.run_passes(["w"], 1, trace, seconds)
        return state["w"], clock[0]

    def test_default_is_a_warmup_and_fixed_passes(self):
        s, _ = self.run_passes(None, 1.0)
        self.assertEqual((len(s["warmup"]), len(s["untraced"])), (1, run.DEFAULT_PASSES))

    def test_seconds_budget_includes_the_warmup(self):
        s, elapsed = self.run_passes(5, 1.0)
        self.assertEqual((len(s["warmup"]), len(s["untraced"])), (1, 4))
        self.assertEqual(elapsed, 5.0)

    def test_budget_stops_before_a_pass_that_would_overrun(self):
        _, elapsed = self.run_passes(10, 3.0)
        self.assertEqual(elapsed, 9.0)

    def test_a_pass_longer_than_the_budget_still_runs_once(self):
        s, _ = self.run_passes(1, 3.0)
        self.assertEqual((len(s["warmup"]), len(s["untraced"])), (1, 1))

    def test_trace_alternates_under_a_budget(self):
        s, _ = self.run_passes(7, 1.0, trace=1)
        self.assertEqual((len(s["untraced"]), len(s["traced"])), (3, 3))


class CalibrateTest(unittest.TestCase):
    def test_seed_range(self):
        self.assertEqual(calibrate.parse_seeds("3-5"), [3, 4, 5])
        self.assertEqual(calibrate.parse_seeds("7"), [7])

    def test_spread_is_iqr_over_median(self):
        self.assertEqual(calibrate.spread([1, 2, 3, 4, 5, 6, 7, 8, 9]), (5, 1.0))

    def test_summary_per_workload_and_metric(self):
        spec = {"end_to_end": [{"name": "wall_s"}]}
        runs = {"w": [{"wall_s": v} for v in (2.0, 2.0, 2.0, 2.0)]}
        self.assertEqual(calibrate.summarize(runs, spec),
                         {"w": {"wall_s": {"median": 2.0, "iqr": 0.0, "spread": 0.0}}})


class MainTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)
        self.rows = [job(0, job_ms=10.0), job(1, job_ms=20.0)]

    def main(self, digests, passes=None):
        reference = os.path.join(self.dir.name, "reference.json")
        with open(reference, "w") as f:
            json.dump({"seed": 1, "digests": digests}, f)
        out = io.StringIO()
        with mock.patch.object(run, "build"), \
                mock.patch.object(run, "run_pass", return_value=a_pass(self.rows),
                                  side_effect=passes), \
                mock.patch.object(run, "REFERENCE", reference), \
                mock.patch.object(run, "OUT", self.dir.name), \
                contextlib.redirect_stdout(out):
            code = run.main(["--workload", "d_agree", "--seed", "1"])
        return code, json.loads(out.getvalue().strip().splitlines()[-1])

    def test_matching_digest_exits_zero(self):
        code, result = self.main({"d_agree": run.digest(self.rows)})
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"], 2 * (1 + run.DEFAULT_PASSES))  # with the warm-up
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["metrics"]["wall_s"], {"value": 0.03, "unit": "s"})

    def test_reported_value_is_the_lower_quartile_of_timed_passes(self):
        walls_ms = iter([900.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0])  # warm-up first
        rows = [job(0)]
        code, result = self.main({"d_agree": run.digest(rows)},
                                 passes=lambda *_: a_pass([job(0, job_ms=next(walls_ms))]))
        self.assertEqual(code, 0)
        self.assertAlmostEqual(result["metrics"]["wall_s"]["value"], 0.02)

    def test_digest_mismatch_exits_nonzero(self):
        code, result = self.main({"d_agree": "0" * 64})
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
