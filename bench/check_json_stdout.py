#!/usr/bin/env python3
"""Checks that `dowork_bench ... --json -` writes exactly one JSON document
to stdout, with the human tables on stderr.

    python3 bench/check_json_stdout.py ./build/dowork_bench --experiment smoke --json -

Runs the given command, fails on a nonzero exit, on stdout that is not one
JSON document, or on an empty stderr (the tables must still be printed).
Run via CTest (bench_json_stdout).
"""

import json
import subprocess
import sys


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    proc = subprocess.run(argv[1:], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print(f"command exited {proc.returncode}", file=sys.stderr)
        return 1
    try:
        json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        print(f"stdout is not one JSON document: {e}", file=sys.stderr)
        print(proc.stdout[:2000], file=sys.stderr)
        return 1
    if "===" not in proc.stderr:
        print("no tables on stderr", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
