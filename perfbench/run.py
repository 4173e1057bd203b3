#!/usr/bin/env python3
"""Build the LCM service benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 10 --trace 0

It builds `perfbench/bench.exe` and the `lcmopt` server it drives with
dune, then runs the benchmark.  The last line of standard output is the
result object; a traced run (`--trace 1`) also writes its spans under
`.perfbench/`.  Temporary files (dune's, the shard router's sockets) go
to `.perfbench/tmp`, so nothing is written outside the checkout.  See
perfbench/README.md.
"""

import os
import subprocess
import sys

BENCH = "_build/default/perfbench/bench.exe"
LCMOPT = "_build/default/bin/lcmopt.exe"
SPANS = ".perfbench"


def pin():
    """Run the benchmark and every server it starts on one CPU.

    A closed loop keeps one process busy at a time; on one CPU its
    hand-offs between client, router and worker never wait for another
    CPU to wake up, which on a shared virtual machine is the largest
    source of run-to-run spread."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        print("perfbench: run from the root of a full checkout (dune-project, lib/, bin/)",
              file=sys.stderr)
        return 2
    tmp = os.path.join(SPANS, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=os.path.abspath(tmp))
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/lcmopt.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # Relative, so the router's socket paths stay short wherever the
    # checkout is; the benchmark and its children run from its root.
    env["TMPDIR"] = tmp
    run = subprocess.run([BENCH, *argv, "--lcmopt", LCMOPT, "--out", SPANS], env=env,
                         preexec_fn=pin)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
