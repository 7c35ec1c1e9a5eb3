#!/usr/bin/env python3
"""Run-to-run steadiness of the benchmark's end-to-end metrics.

    python3 phibench/steady.py --runs 10 --seconds 15 [--workload W ...] [--first-seed N]

Runs each workload once per seed (seeds first-seed .. first-seed+runs-1),
untraced, one process at a time, and prints for every end-to-end metric
its median and its quartile spread (Q3 - Q1) / median, with the
quartiles of statistics.quantiles(values, n=4), next to the metric's
bound from BENCHMARK.json.  Exits 1 when a run fails or reports
incorrect output.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()
    ok = True
    for w in args.workload or names:
        values = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {out.returncode}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: incorrect ({result['failed']} failed)", file=sys.stderr)
                ok = False
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        for m, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[m] / 3 else "  <-- over a third of the bound"
            print(f"{w:18s} {m:16s} median {med:14.6g}  spread {spread:7.4f}  "
                  f"bound {bounds[m]:.2f}{flag}")
            print("    " + " ".join(f"{v:.6g}" for v in vs))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
