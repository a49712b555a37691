#!/usr/bin/env python3
"""Diff two dowork_bench --timing JSON reports row by row.

Usage:
    bench/compare_bench.py [BASELINE.json] CURRENT.json [--threshold X]

A report is one dowork_bench document or a JSON array of them.  Each
document's rows[i] is joined with its timing.rows[i] (the two must agree on
id and rep), so every repetition carries its experiment, group, protocol,
wall_ms, units_per_sec (live rows only) and abort state.  Rows are matched
across the two reports by (experiment, id, rep).  The section's other key,
peak_rss_mb (the process's peak over the whole document), is not per row
and is not diffed here; CI's memory guard reads it.

With two reports the script prints, in order:
  * the matched rows: wall_ms on both sides and, where both sides measured
    it, units/s;
  * group, protocol and experiment rollups, summed over the matched rows
    only -- both sides always sum the same rows, so a filtered CURRENT
    diffs cleanly against a full-sweep BASELINE;
  * the rows present on only one side (listed, never a failure: sweeps
    legitimately grow);
  * the abort census of CURRENT (below).
Every ratio reads the same way: greater than 1 is better (baseline /
current for milliseconds, current / baseline for units/s).

With one report the script prints only that report's abort census: per
experiment, the rows that ended in a structured abort (a watchdog firing,
a worker dying, ...), bucketed by the cause= key of their abort_detail
extra (an abort without one counts as "unknown"), then each aborted row.
The census needs only the deterministic rows, so a report generated
without --timing works; CI runs it to triage a failed socket-row step.

Exit status is 1 when CURRENT has an aborted row, or, under --threshold X,
when a matched row is more than X times slower than its baseline and at
least 1 ms slower (so sub-ms rows cannot trip on scheduler noise), or its
units/s fell by more than X times.  Otherwise 0.  Timing is machine-
dependent by nature, so CI runs the diff advisorily against the committed
BENCH_scale.json: treat a breach as a prompt to look, not proof of a
regression.
"""

import argparse
import json
import sys


def abort_of(row):
    """(cause, detail) for a row whose run aborted, else None."""
    detail = row.get("extra", {}).get("abort_detail")
    violation = row.get("violation", "")
    if detail is None and not violation.startswith("run aborted:"):
        return None
    for pair in (detail or "").split():
        if pair.startswith("cause="):
            return pair[len("cause="):], detail
    return "unknown", detail or violation


def load(path, need_timing):
    """{(experiment, id, rep): row} over every document of one report."""
    with open(path, "rb") as f:
        doc = json.load(f)
    rows = {}
    for d in doc if isinstance(doc, list) else [doc]:
        exp = d.get("experiment", "?")
        det = d.get("rows")
        if det is None:
            sys.exit(f"{path}: no 'rows' section -- not a dowork_bench report")
        timing = (d.get("timing") or {}).get("rows")
        if timing is None:
            if need_timing:
                sys.exit(f"{path}: {exp} has no 'timing' section -- "
                         "generate with dowork_bench --timing")
            timing = [{}] * len(det)
        if len(timing) != len(det):
            sys.exit(f"{path}: {exp} has {len(det)} rows but "
                     f"{len(timing)} timing rows")
        for r, t in zip(det, timing):
            if t and (t["id"], t["rep"]) != (r["id"], r["rep"]):
                sys.exit(f"{path}: {exp} timing row {t['id']} rep {t['rep']} "
                         f"does not match row {r['id']} rep {r['rep']}")
            rows[(exp, r["id"], r["rep"])] = {
                "experiment": exp, "group": r["group"], "protocol": r["protocol"],
                "wall_ms": t.get("wall_ms"), "units_per_sec": t.get("units_per_sec"),
                "abort": abort_of(r)}
    return rows


def better(base, cur):
    """base / cur: > 1 means cur is smaller (pass rates swapped)."""
    if cur > 0:
        return base / cur
    return 1.0 if base == 0 else float("inf")


def name(key):
    return "/".join(map(str, key))


def diff(base, cur, threshold):
    """Print the matched-row table, rollups and one-sided rows; return the
    number of threshold breaches."""
    matched = sorted(set(base) & set(cur))
    regressions = []
    if matched:
        width = max(len(name(k)) for k in matched)
        print(f"{'row':<{width}}  {'base ms':>10}  {'cur ms':>10}  {'delta':>9}"
              f"  speedup  [{'base u/s':>12}  {'cur u/s':>12}  speedup]")
    for key in matched:
        b, c = base[key], cur[key]
        bm, cm = b["wall_ms"], c["wall_ms"]
        line = (f"{name(key):<{width}}  {bm:>10.3f}  {cm:>10.3f}  {cm - bm:>+9.3f}"
                f"  {better(bm, cm):6.2f}x")
        slow = threshold is not None and cm > threshold * bm and cm - bm >= 1.0
        bu, cu = b["units_per_sec"], c["units_per_sec"]
        if bu is not None and cu is not None:
            line += f"  [{bu:>12.1f}  {cu:>12.1f}  {better(cu, bu):6.2f}x]"
            slow = slow or (threshold is not None and bu > threshold * cu)
        print(line)
        if slow:
            regressions.append(line)

    for level, fields in (("group", ("experiment", "group")),
                          ("protocol", ("experiment", "protocol")),
                          ("experiment", ("experiment",))):
        sums = {}
        for key in matched:
            k = name(base[key][f] for f in fields)
            b, c = sums.get(k, (0.0, 0.0))
            sums[k] = (b + base[key]["wall_ms"], c + cur[key]["wall_ms"])
        if not sums:
            continue
        width = max(len(k) for k in sums)
        print(f"\n{'per ' + level:<{width}}  {'base ms':>10}  {'cur ms':>10}  speedup")
        for k, (b, c) in sums.items():
            print(f"{k:<{width}}  {b:>10.3f}  {c:>10.3f}  {better(b, c):6.2f}x")

    for key in sorted(set(base) - set(cur)):
        print(f"only in baseline: {name(key)}")
    for key in sorted(set(cur) - set(base)):
        print(f"only in current:  {name(key)}")

    if regressions:
        print(f"\n{len(regressions)} row(s) more than {threshold}x slower "
              "(or lower units/s) than baseline:")
        for line in regressions:
            print(f"  {line}")
    return len(regressions)


def census(rows):
    """Print the per-experiment abort census; return the aborted-row count."""
    totals, causes, aborted = {}, {}, []
    for key, row in rows.items():
        exp = key[0]
        totals[exp] = totals.get(exp, 0) + 1
        if row["abort"] is None:
            continue
        cause, detail = row["abort"]
        buckets = causes.setdefault(exp, {})
        buckets[cause] = buckets.get(cause, 0) + 1
        aborted.append(f"  {exp}/{key[1]} rep {key[2]}: {detail}")
    for exp in sorted(totals):
        buckets = causes.get(exp, {})
        summary = ", ".join(f"{c}={n}" for c, n in sorted(buckets.items()))
        print(f"{exp}: {sum(buckets.values())}/{totals[exp]} rows aborted"
              + (f" ({summary})" if summary else ""))
    for line in aborted:
        print(line)
    return len(aborted)


def main():
    ap = argparse.ArgumentParser(
        usage="%(prog)s [BASELINE] CURRENT [--threshold X]",
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("reports", nargs="+", metavar="REPORT", help=argparse.SUPPRESS)
    ap.add_argument("--threshold", type=float, default=None, metavar="X",
                    help="exit 1 when a matched row is more than X times slower "
                         "(and >= 1 ms slower) or its units/s fell more than X times")
    args = ap.parse_args()
    if len(args.reports) > 2:
        ap.error("at most two reports: [BASELINE] CURRENT")

    failed = 0
    if len(args.reports) == 2:
        base = load(args.reports[0], need_timing=True)
        cur = load(args.reports[1], need_timing=True)
        failed = diff(base, cur, args.threshold)
        print()
    else:
        cur = load(args.reports[0], need_timing=False)
    failed += census(cur)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
