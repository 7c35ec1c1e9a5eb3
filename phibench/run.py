#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 phibench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to _build/ (the dune
cache is disabled, so nothing is written outside the checkout); build
output goes to standard error, and the benchmark's own standard output,
whose last line is the JSON result, passes through unchanged.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "phibench", "phibench.exe")


def arg(argv, name):
    """The value after flag [name], or None."""
    return argv[argv.index(name) + 1] if name in argv[:-1] else None

# How long a serial workload stays on one CPU before it moves to the next.
HOP_S = 0.7


def run_serial(cmd, cpus):
    """Run a serial workload, moving it from CPU to CPU every HOP_S.

    On a shared virtual machine one virtual CPU can run markedly slower
    than another for a minute at a time (its host core is busy with a
    neighbour).  The benchmark keeps the best time of every slice of
    work over its rounds; rounds that visit every CPU let that best come
    from whichever CPU was quiet, instead of from the one CPU the
    process happened to start on.
    """
    # Start on the last CPU: CPU 0 of a small VM takes the interrupts.
    proc = subprocess.Popen(cmd, preexec_fn=lambda: os.sched_setaffinity(0, {cpus[-1]}))
    k = 0
    while True:
        try:
            return proc.wait(timeout=HOP_S)
        except subprocess.TimeoutExpired:
            k += 1
            try:
                os.sched_setaffinity(proc.pid, {cpus[(k - 1) % len(cpus)]})
            except OSError:
                pass


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("phibench: dune-project and lib/ not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ".", "phibench/phibench.exe"],
                           env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("phibench: build failed", file=sys.stderr)
        return 1
    argv = sys.argv[1:]
    cmd = [EXE] + argv
    # A run that uses more than one domain keeps every CPU it is given: the
    # traced parking_lot_pdes run times the lot at 2 domains against 1.
    parallel = arg(argv, "--workload") == "parking_lot_pdes" and arg(argv, "--trace") == "1"
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if parallel or len(cpus) < 2:
        return subprocess.run(cmd).returncode
    return run_serial(cmd, cpus)


if __name__ == "__main__":
    sys.exit(main())
