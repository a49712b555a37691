#!/usr/bin/env python3
"""The repository benchmark: three fixed workloads timed end to end, plus a
traced run that splits each job across the library's layers.

    python3 benchmark/run.py [--seed N] [--workload NAME]... [--trace [0|1]]
                             [--seconds S]

Builds the pass runner (benchmark/dowork_perf.cpp) into benchmark/build/,
then runs passes: each pass is one fresh runner process that runs every job
of one workload once, one job at a time.  Workloads take turns, pass by
pass.  Each workload starts with an untimed warm-up pass; then, without
--seconds, it gets 7 timed passes, and with it, it takes passes for about S
seconds, warm-up included.  --trace adds traced passes (one, or every other
pass under --seconds) and reports the per-layer metrics instead of the
end-to-end ones.

Every metric is printed as `workload metric value unit`, followed by its
median, upper quartile and sample count over the run's passes; the value is
their lower quartile (see REPORTED).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The full result,
with every pass, goes to benchmark/build/out/result.json, and each traced
workload's spans to benchmark/build/out/trace_<workload>.json.

Outputs are checked: every job must verify, every pass must repeat the
first pass's rows, traced rows must match untraced rows, and at the seed
recorded in benchmark/reference.json each workload's row digest must match
the one recorded there.  A job that fails any check counts as failed, and
any failure makes the exit status 1.  See benchmark/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(BUILD, "out")
RUNNER = os.path.join(BUILD, "dowork_perf")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE = os.path.join(HERE, "reference.json")

DEFAULT_PASSES = 7
# The statistic a run reports for each metric: the lower quartile of its
# passes.  Other tenants of a shared host only ever add time, in bursts that
# can cover a third of a run; the lower quartile follows the program's own
# cost through them, where the median follows the bursts.
REPORTED = "q1"
PASS_TIMEOUT_S = 150
BUILD_JOBS = "2"


class PassError(Exception):
    """A runner process failed outright (not a job inside it)."""


# --- statistics ---------------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, pct):
    """The pct-th percentile (1..99) by linear interpolation between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_supported(count, pct):
    """A percentile is reported as a tail only with >= 10 samples beyond it."""
    return count * (100 - pct) >= 10 * 100


def regressed(base, value, bound, better):
    """True when `value` is worse than `base` by more than `bound` (a share)."""
    if better == "lower":
        return value > base * (1 + bound)
    return value < base * (1 - bound)


# --- rows and checks ------------------------------------------------------------

def row_key(row):
    return (row["id"], bool(row["ok"]), row["work"], row["messages"], row["crashes"],
            row["rounds"])


def digest(rows):
    """sha256 over each job's (id, ok, work, messages, crashes, rounds), in order."""
    h = hashlib.sha256()
    for row in rows:
        h.update(("\t".join(str(int(v) if isinstance(v, bool) else v) for v in row_key(row))
                  + "\n").encode())
    return h.hexdigest()


def failed_jobs(passes, expected_digest=None):
    """Number of failed (pass, job) results.

    A job fails when it did not verify or when its row differs from the
    first pass's row.  A pass whose digest differs from `expected_digest`
    fails every job.
    """
    reference = [row_key(j) for j in passes[0]["jobs"]]
    failed = 0
    for p in passes:
        jobs = p["jobs"]
        if expected_digest is not None and digest(jobs) != expected_digest:
            failed += len(jobs)
            continue
        failed += sum(1 for i, j in enumerate(jobs)
                      if not j["ok"] or i >= len(reference) or row_key(j) != reference[i])
    return failed


def pass_metrics(p):
    """The end-to-end metrics of one untraced pass."""
    job_ms = [j["job_ms"] for j in p["jobs"]]
    return {
        "wall_s": sum(job_ms) / 1e3,
        "setup_s": sum(j["setup_ms"] for j in p["jobs"]) / 1e3,
        "peak_rss_mb": p["peak_rss_mb"],
        "job_ms_p50": percentile(job_ms, 50),
        "job_ms_p90": percentile(job_ms, 90),
    }


def summarize(per_pass, names):
    """{name: {q1, median, q3, n}} over passes, for each metric in `names`."""
    out = {}
    for name in names:
        values = [m[name] for m in per_pass]
        q1, med, q3 = quartiles(values)
        out[name] = {"q1": q1, "median": med, "q3": q3, "n": len(values)}
    return out


# --- build and passes -----------------------------------------------------------

def build():
    """Configure and build the runner (a no-op when up to date); exit 2 on failure."""
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "--target", "dowork_perf", "-j", BUILD_JOBS]):
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as e:
            sys.exit(f"benchmark: cannot run {cmd[0]}: {e}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"benchmark: build step failed: {' '.join(cmd)}", file=sys.stderr)
            sys.exit(2)


def run_pass(workload, seed, traced):
    """One runner process: one pass over the workload's jobs."""
    os.makedirs(OUT, exist_ok=True)
    cmd = [RUNNER, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--trace", os.path.join(OUT, f"trace_{workload}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassError(f"{workload}: pass exceeded {PASS_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload}: runner exited {proc.returncode}: {proc.stderr.strip()}")
    try:
        return json.loads(lines[-1])
    except ValueError as e:
        raise PassError(f"{workload}: unreadable runner output: {e}")


def run_passes(workloads, seed, trace, seconds):
    """{workload: {"warmup": [...], "untraced": [...], "traced": [...]}}.

    Workloads take turns.  Each starts with one warm-up pass, which is checked
    but not timed: first passes after a pause run measurably slower.  Under
    `seconds`, a workload stops before a pass that would, at its passes'
    mean duration so far, end past its budget; the warm-up counts toward it.
    """
    state = {w: {"warmup": [], "untraced": [], "traced": [], "spent": 0.0} for w in workloads}

    def wants(s):
        if not s["untraced"] or (trace and not s["traced"]):
            return True
        if seconds is None:
            return len(s["untraced"]) < DEFAULT_PASSES
        done = len(s["warmup"]) + len(s["untraced"]) + len(s["traced"])
        return s["spent"] * (done + 1) / done <= seconds

    while True:
        pending = [w for w in workloads if wants(state[w])]
        if not pending:
            return state
        for w in pending:
            s = state[w]
            start = time.monotonic()
            if not s["warmup"]:
                s["warmup"].append(run_pass(w, seed, False))
            else:
                traced = bool(trace and s["untraced"] and len(s["traced"]) <
                              (len(s["untraced"]) if seconds is not None else 1))
                s["traced" if traced else "untraced"].append(run_pass(w, seed, traced))
            s["spent"] += time.monotonic() - start


# --- report ---------------------------------------------------------------------

def load_json(path):
    with open(path) as f:
        return json.load(f)


def evaluate(workload, runs, seed, reference, spec):
    """Everything reported about one workload."""
    untraced, traced = runs["untraced"], runs["traced"]
    expected = (reference.get("digests", {}).get(workload)
                if reference.get("seed") == seed else None)
    passes = runs["warmup"] + untraced + traced
    result = {
        "passes": len(untraced),
        "traced_passes": len(traced),
        "jobs_per_pass": len(untraced[0]["jobs"]),
        "attempted": sum(len(p["jobs"]) for p in passes),
        "failed": failed_jobs(passes, expected),
        "digest": digest(untraced[0]["jobs"]),
        "expected_digest": expected,
    }
    per_pass = [pass_metrics(p) for p in untraced]
    result["metrics"] = summarize(per_pass, [m["name"] for m in spec["end_to_end"]])
    result["per_pass"] = per_pass
    if traced:
        layers = [dict(p["layers"]) for p in traced]
        untraced_wall = result["metrics"]["wall_s"][REPORTED]
        for p, m in zip(traced, layers):
            m["trace.overhead"] = (sum(j["job_ms"] for j in p["jobs"]) / 1e3) / untraced_wall - 1
        result["layers"] = summarize(layers, [m["name"] for m in spec["per_layer"]])
    return result


def print_table(workload, summary, metrics, calibration):
    for m in metrics:
        s = summary[m["name"]]
        value = s[REPORTED]
        line = (f"{workload} {m['name']} {value:.6g} {m['unit']}"
                f"  (median {s['median']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
        base = calibration.get(m["name"])
        if base is not None and "bound" in m:
            change = value / base["median"] - 1 if base["median"] else 0.0
            verdict = ("beyond bound" if regressed(base["median"], value, m["bound"],
                                                   m["better"]) else "within bound")
            line += f"  [calibration {base['median']:.6g}: {change:+.1%}, {verdict}]"
        print(line)


def main(argv=None):
    spec = load_json(SPEC)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload, in BENCHMARK.json order")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add traced passes and report the per-layer metrics")
    parser.add_argument("--seconds", type=float,
                        help="measure each workload for this long instead of 7 passes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workloads = list(dict.fromkeys(args.workload or names))
    reference = load_json(REFERENCE) if os.path.exists(REFERENCE) else {}
    calibration_sets = reference.get("calibration", [])
    calibration = calibration_sets[-1]["workloads"] if calibration_sets else {}

    build()
    try:
        runs = run_passes(workloads, args.seed, args.trace, args.seconds)
    except PassError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 1

    results = {w: evaluate(w, runs[w], args.seed, reference, spec) for w in workloads}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {}
    for w in workloads:
        r = results[w]
        print_table(w, r["metrics"], spec["end_to_end"], calibration.get(w, {}))
        jobs = r["jobs_per_pass"]
        if not tail_supported(jobs, 90):
            print(f"{w} note: job_ms_p90 is over {jobs} job(s) per pass, fewer than the "
                  f"100 a p90 needs")
        print(f"{w} fail_ratio {r['failed'] / r['attempted']:.6g} ratio"
              f"  ({r['failed']} of {r['attempted']} jobs)")
        if r["expected_digest"] is not None and r["expected_digest"] != r["digest"]:
            print(f"{w} digest {r['digest']} differs from reference {r['expected_digest']}")
        shown = spec["per_layer"] if args.trace else spec["end_to_end"]
        summary = r["layers"] if args.trace else r["metrics"]
        if args.trace:
            print_table(w, summary, shown, {})
        prefix = "" if len(workloads) == 1 else w + "."
        for m in shown:
            metrics[prefix + m["name"]] = {"value": summary[m["name"]][REPORTED], "unit": m["unit"]}

    result = {
        "seed": args.seed,
        "order": workloads,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "workloads": results,
    }
    with open(os.path.join(OUT, "result.json"), "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
