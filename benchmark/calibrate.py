#!/usr/bin/env python3
"""Calibrate the benchmark: ten runs per workload, one seed each.

    python3 benchmark/calibrate.py [--seeds 1-10] [--reverse] [--label NAME]

Runs `python3 benchmark/run.py --workload W --seed N --seconds S --trace 0`,
with S the run_seconds of BENCHMARK.json, once per seed and workload.  The
workloads take turns (in reverse BENCHMARK.json order with --reverse).  Then
it prints each end-to-end metric's median over the runs and its spread, the
interquartile range as a share of the median, beside the metric's bound.
The last line is the set as one JSON object, to be appended to the
`calibration` list of benchmark/reference.json.

Exit status 1 if a run fails or prints no result, or if a spread other than
setup_s's is past its bound.  A full set of three workloads takes about
eighteen minutes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    """(median, IQR / median) with the quartiles of statistics.quantiles(n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}


def summarize(runs, spec):
    """{workload: {metric: {median, iqr, spread}}} over each workload's runs."""
    out = {}
    for w, metrics in runs.items():
        out[w] = {}
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in metrics]
            med, share = spread(values)
            out[w][m["name"]] = {"median": med, "iqr": share * med, "spread": share}
    return out


def main(argv=None):
    with open(SPEC) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                        help="a seed or an inclusive range, e.g. 1-10")
    parser.add_argument("--reverse", action="store_true", help="workloads in reverse order")
    parser.add_argument("--label", default="set")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds for quartiles")
    order = [w["name"] for w in spec["workloads"]]
    if args.reverse:
        order.reverse()

    runs = {w: [] for w in order}
    failed = False
    for seed in args.seeds:
        for w in order:
            metrics = one_run(w, seed, spec["run_seconds"])
            if metrics is None:
                print(f"{w} seed {seed}: run failed", file=sys.stderr)
                failed = True
                continue
            runs[w].append(metrics)
            print(f"{w} seed {seed}: " + ", ".join(f"{k} {v:.6g}" for k, v in metrics.items()),
                  flush=True)
    if failed:
        return 1

    summary = summarize(runs, spec)
    for w in order:
        for m in spec["end_to_end"]:
            s = summary[w][m["name"]]
            verdict = ("past bound" if s["spread"] > m["bound"] else
                       "within bound" if s["spread"] > m["bound"] / 3 else "within a third")
            print(f"{w} {m['name']} median {s['median']:.6g} {m['unit']}  spread "
                  f"{s['spread']:.3f} of bound {m['bound']}: {verdict}")
            if s["spread"] > m["bound"] and m["name"] != "setup_s":
                failed = True
    print(json.dumps({
        "label": args.label,
        "when": time.strftime("%Y-%m-%dT%H:%MZ", time.gmtime()),
        "order": order,
        "seeds": [args.seeds[0], args.seeds[-1]],
        "runs_per_workload": len(args.seeds),
        "workloads": {w: {name: {"median": s["median"], "iqr": s["iqr"]}
                          for name, s in summary[w].items()} for w in order},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
