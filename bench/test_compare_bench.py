#!/usr/bin/env python3
"""Tests for bench/compare_bench.py (stdlib unittest, no dependencies).

Covers the one mode end to end: the matched-row diff and its --threshold
(on wall_ms, with the 1 ms absolute guard, and on units/s), one-sided
rows, multi-document arrays, the rows/timing.rows join, the timing
section's peak_rss_mb, rollups summed over matched rows only, the
missing-timing error, the abort census (alone
for one report, after the diff for two), the rejected legacy flags, and a
self-diff of the committed BENCH_scale.json.  Run directly or via CTest
(compare_bench_test).
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "compare_bench.py")
COMMITTED = os.path.join(HERE, os.pardir, "BENCH_scale.json")


def row(row_id, wall_ms, rep=0, ups=None, violation="", extra=None):
    """One repetition; group and protocol follow the bench's id layout
    (<group>/<faults>, the group ending in the protocol)."""
    parts = row_id.split("/")
    return {"id": row_id, "rep": rep, "group": "/".join(parts[:-1]),
            "protocol": parts[-2], "violation": violation, "extra": extra or {},
            "wall_ms": wall_ms, "units_per_sec": ups}


def report(experiment, rows, timed=True, peak_rss_mb=None):
    """One dowork_bench document, with the --timing section unless timed
    is False; peak_rss_mb, when given, is the section's process peak."""
    keys = ("id", "group", "protocol", "rep", "violation", "extra")
    doc = {"experiment": experiment, "rows": [{k: r[k] for k in keys} for r in rows]}
    if timed:
        timing = []
        for r in rows:
            t = {"id": r["id"], "rep": r["rep"], "wall_ms": r["wall_ms"]}
            if r["units_per_sec"] is not None:
                t["units_per_sec"] = r["units_per_sec"]
            timing.append(t)
        doc["timing"] = {"rows": timing}
        if peak_rss_mb is not None:
            doc["timing"]["peak_rss_mb"] = peak_rss_mb
    return doc


def rollup(stdout, key):
    """(base ms, cur ms, speedup) of one rollup line."""
    m = re.search(rf"^{re.escape(key)} +([\d.]+) +([\d.]+) +([\d.]+)x$", stdout, re.M)
    assert m, f"no rollup line for {key!r} in:\n{stdout}"
    return tuple(float(g) for g in m.groups())


class CompareBenchTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def run_script(self, *args):
        return subprocess.run([sys.executable, SCRIPT, *args],
                              capture_output=True, text=True)

    def diff(self, base_rows, cur_rows, *flags, experiment="scale"):
        base = self.write("b.json", report(experiment, base_rows))
        cur = self.write("c.json", report(experiment, cur_rows))
        return self.run_script(base, cur, *flags)

    # --- two reports: the row diff -----------------------------------------

    def test_matched_rows_print_speedups_and_rollups(self):
        r = self.diff([row("t=64/A/none", 20.0), row("t=64/B/none", 10.0)],
                      [row("t=64/A/none", 10.0), row("t=64/B/none", 10.0)],
                      "--threshold", "2.0")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        # One convention: > 1 is better, so a row that halved reads 2.00x.
        self.assertRegex(r.stdout, r"scale/t=64/A/none/0 +20\.000 +10\.000 +-10\.000 +2\.00x")
        self.assertEqual(rollup(r.stdout, "scale/t=64/A"), (20.0, 10.0, 2.0))
        self.assertEqual(rollup(r.stdout, "scale/B"), (10.0, 10.0, 1.0))
        self.assertEqual(rollup(r.stdout, "scale"), (30.0, 20.0, 1.5))
        self.assertIn("scale: 0/2 rows aborted", r.stdout)

    def test_row_regression_fails_threshold(self):
        r = self.diff([row("t=64/A/none", 10.0)], [row("t=64/A/none", 35.0)],
                      "--threshold", "2.0")
        self.assertEqual(r.returncode, 1, r.stdout)
        self.assertIn("1 row(s) more than 2.0x slower", r.stdout)

    def test_sub_millisecond_rows_cannot_trip_threshold(self):
        # 10x slower but the absolute delta is under 1 ms: scheduler noise,
        # not a regression.
        r = self.diff([row("t=64/A/none", 0.05)], [row("t=64/A/none", 0.5)],
                      "--threshold", "2.0")
        self.assertEqual(r.returncode, 0, r.stdout)

    def test_without_threshold_slow_rows_exit_zero(self):
        r = self.diff([row("t=64/A/none", 1.0)], [row("t=64/A/none", 100.0)])
        self.assertEqual(r.returncode, 0, r.stdout)

    def test_units_per_sec_diff_and_threshold(self):
        base = [row("sim/t=16/A/none", 5.0), row("live/t=16/A/none", 9.0, ups=1000.0)]
        up = self.diff(base, [row("sim/t=16/A/none", 5.0),
                              row("live/t=16/A/none", 9.0, ups=2000.0)],
                       "--threshold", "1.5", experiment="live_throughput")
        self.assertEqual(up.returncode, 0, up.stdout + up.stderr)
        self.assertRegex(up.stdout, r"live/t=16/A/none/0 .*1\.00x +\[ +1000\.0 +2000\.0 +2\.00x\]")
        self.assertNotRegex(up.stdout, r"sim/t=16/A/none/0 .*\[")
        # Same wall clock, but throughput fell 3x: a breach under 2x.
        down = self.diff([row("live/t=16/A/none", 9.0, ups=3000.0)],
                         [row("live/t=16/A/none", 9.0, ups=1000.0)],
                         "--threshold", "2.0", experiment="live_throughput")
        self.assertEqual(down.returncode, 1, down.stdout)
        self.assertIn("(or lower units/s)", down.stdout)

    def test_one_sided_rows_are_listed_but_never_fail(self):
        r = self.diff([row("t=64/A/none", 5.0), row("t=64/B/none", 5.0)],
                      [row("t=64/A/none", 5.0), row("t=128/A/none", 99.0)],
                      "--threshold", "1.1")
        self.assertEqual(r.returncode, 0, r.stdout)
        self.assertIn("only in baseline: scale/t=64/B/none/0", r.stdout)
        self.assertIn("only in current:  scale/t=128/A/none/0", r.stdout)

    def test_list_of_documents_is_accepted(self):
        docs = [report("scale", [row("t=64/A/none", 1.0)]),
                report("protocol_a", [row("n=16t/A/none", 2.0)])]
        base = self.write("b.json", docs)
        cur = self.write("c.json", docs)
        r = self.run_script(base, cur, "--threshold", "1.5")
        self.assertEqual(r.returncode, 0, r.stdout)
        self.assertEqual(rollup(r.stdout, "protocol_a"), (2.0, 2.0, 1.0))
        self.assertEqual(rollup(r.stdout, "scale"), (1.0, 1.0, 1.0))

    def test_filtered_current_rolls_up_over_matched_rows_only(self):
        # A CI step may re-time one row against the committed full sweep:
        # every rollup must sum the same rows on both sides, not the whole
        # baseline against the filtered current.
        base = self.write("b.json", [
            report("scale", [row("t=64/A/none", 10.0), row("t=64/B/none", 30.0),
                             row("t=128/A/none", 40.0)]),
            report("live_throughput", [row("live/t=16/A/none", 5.0, ups=10.0)]),
        ])
        cur = self.write("c.json", report("scale", [row("t=64/A/none", 5.0)]))
        r = self.run_script(base, cur)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertEqual(rollup(r.stdout, "scale/t=64/A"), (10.0, 5.0, 2.0))
        self.assertEqual(rollup(r.stdout, "scale/A"), (10.0, 5.0, 2.0))
        self.assertEqual(rollup(r.stdout, "scale"), (10.0, 5.0, 2.0))
        self.assertNotRegex(r.stdout, r"^(scale/t=64/B|scale/B|live_throughput) ")
        self.assertIn("only in baseline: scale/t=128/A/none/0", r.stdout)
        self.assertIn("only in baseline: live_throughput/live/t=16/A/none/0", r.stdout)

    def test_missing_timing_on_a_two_report_diff_is_an_error(self):
        base = self.write("b.json", report("scale", [row("t=64/A/none", 1.0)], timed=False))
        cur = self.write("c.json", report("scale", [row("t=64/A/none", 1.0)]))
        r = self.run_script(base, cur)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("no 'timing' section", r.stderr)

    def test_timing_peak_rss_is_accepted_on_either_side(self):
        # dowork_bench --timing closes the section with the process's peak
        # RSS; the diff joins rows only, so a report with it diffs against
        # one without it (an older committed baseline).
        base = self.write("b.json", report("scale", [row("t=64/D/none", 4.0)]))
        cur = self.write("c.json", report("scale", [row("t=64/D/none", 2.0)],
                                          peak_rss_mb=8.812))
        for args in ((base, cur), (cur, base), (cur,)):
            r = self.run_script(*args)
            self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertEqual(rollup(self.run_script(base, cur).stdout, "scale"), (4.0, 2.0, 2.0))

    def test_timing_rows_must_match_rows_by_id_and_rep(self):
        doc = report("scale", [row("t=64/A/none", 1.0), row("t=64/B/none", 1.0)])
        doc["timing"]["rows"].reverse()
        path = self.write("c.json", doc)
        r = self.run_script(path, path)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("does not match row t=64/A/none rep 0", r.stderr)

    def test_aborted_row_in_current_fails_the_diff(self):
        aborted = row("t=64/A/none", 1.0, violation="run aborted: watchdog",
                      extra={"abort_detail": "cause=watchdog proc=3 round=7"})
        fails = self.diff([row("t=64/A/none", 1.0)], [aborted])
        self.assertEqual(fails.returncode, 1, fails.stdout)
        self.assertIn("scale: 1/1 rows aborted (watchdog=1)", fails.stdout)
        # An abort that only the baseline had is history, not a failure.
        passes = self.diff([aborted], [row("t=64/A/none", 1.0)])
        self.assertEqual(passes.returncode, 0, passes.stdout)

    def test_committed_artifact_diffs_cleanly_against_itself(self):
        r = self.run_script(COMMITTED, COMMITTED, "--threshold", "1.0")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        with open(COMMITTED) as f:
            docs = json.load(f)
        n_rows = sum(len(d["rows"]) for d in docs)
        ratios = re.findall(r"(\d+\.\d+)x", r.stdout)
        # Every row, every units/s column and every rollup reads 1.00x.
        self.assertGreater(len(ratios), n_rows)
        self.assertEqual(set(ratios), {"1.00"})
        self.assertNotIn("only in", r.stdout)

    # --- one report: the abort census --------------------------------------

    def census(self, doc):
        return self.run_script(self.write("r.json", doc))

    def test_census_of_a_clean_report_exits_zero(self):
        r = self.census(report("differential", [row("socket/det-t16/A/none", 1.0)],
                               timed=False))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertEqual(r.stdout, "differential: 0/1 rows aborted\n")

    def test_census_buckets_by_cause_and_exits_one(self):
        r = self.census(report("differential", [
            row("socket/det-t16/A/none", 1.0, violation="run aborted: worker hang",
                extra={"abort_detail": "cause=watchdog proc=3 round=7"}),
            row("socket/det-t16/B/none", 1.0, violation="run aborted: worker hang",
                extra={"abort_detail": "cause=watchdog proc=1 round=2"}),
            row("socket/det-t16/C/none", 1.0, violation="run aborted: worker 4 exited",
                extra={"abort_detail": "cause=worker-eof pid=123 round=5"}),
            # Rows without the abort_detail column still carry the "run
            # aborted:" violation prefix; they bucket as unknown.
            row("socket/det-t16/D/none", 1.0, violation="run aborted: watchdog"),
            row("socket/det-t16/E/none", 1.0),
        ], timed=False))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("differential: 4/5 rows aborted "
                      "(unknown=1, watchdog=2, worker-eof=1)", r.stdout)
        self.assertIn("differential/socket/det-t16/A/none rep 0: "
                      "cause=watchdog proc=3 round=7", r.stdout)
        self.assertIn("differential/socket/det-t16/D/none rep 0: "
                      "run aborted: watchdog", r.stdout)

    def test_census_accepts_multi_experiment_arrays(self):
        r = self.census([
            report("smoke", [row("sync/A/none", 1.0)]),
            report("differential", [row("socket/det-t16/A/none", 1.0,
                                        violation="run aborted: spawn",
                                        extra={"abort_detail": "cause=spawn proc=2"})]),
        ])
        self.assertEqual(r.returncode, 1)
        self.assertIn("smoke: 0/1 rows aborted", r.stdout)
        self.assertIn("differential: 1/1 rows aborted (spawn=1)", r.stdout)

    # --- command line -------------------------------------------------------

    def test_help_lists_only_threshold_and_legacy_flags_are_rejected(self):
        r = self.run_script("--help")
        self.assertEqual(r.returncode, 0)
        options = r.stdout.split("options:")[-1]
        self.assertEqual(set(re.findall(r"--[a-z-]+", options)), {"--help", "--threshold"})
        path = self.write("r.json", report("smoke", []))
        for flag in ("--timing", "--throughput", "--aborts"):
            bad = self.run_script(path, path, flag)
            self.assertEqual(bad.returncode, 2, flag)
            self.assertIn("unrecognized arguments", bad.stderr)

    def test_more_than_two_reports_is_an_error(self):
        path = self.write("r.json", report("smoke", []))
        r = self.run_script(path, path, path)
        self.assertEqual(r.returncode, 2)
        self.assertIn("at most two reports", r.stderr)


if __name__ == "__main__":
    unittest.main()
