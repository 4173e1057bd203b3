#!/usr/bin/env python3
"""Check that the benchmark's exact counts repeat exactly.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py [--seed N] [--workload NAME ...]

For each workload it runs the benchmark twice with one seed and once with
the next seed, each run short, in both modes.  Two runs with the same seed
must give bit-identical values for the counts that do not depend on
timing; the other seed must change them.  Exits 1 when either fails.
"""

import argparse
import json
import subprocess
import sys

EXACT = {
    "0": ["eval_ratio", "size_ratio"],
    "1": ["dataflow.visits", "core.insertions", "core.deletions"],
}
WORKLOADS = ["solve-large", "fleet-small", "edit-delta"]


def run(workload, seed, trace):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", trace],
        capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])["metrics"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    ok = True
    for workload in args.workload or WORKLOADS:
        for trace, names in EXACT.items():
            a = run(workload, args.seed, trace)
            b = run(workload, args.seed, trace)
            c = run(workload, args.seed + 1, trace)
            for name in names:
                va, vb, vc = (m[name]["value"] for m in (a, b, c))
                repeat = va == vb
                moves = va != vc
                ok &= repeat and moves
                print(f"{workload:12s} {name:18s} seed {args.seed}: {va!r} {vb!r} "
                      f"({'repeats' if repeat else 'DIFFERS'}); seed {args.seed + 1}: {vc!r} "
                      f"({'changes' if moves else 'UNCHANGED'})")
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
