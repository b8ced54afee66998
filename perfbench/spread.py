#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each workload and reports, per
metric, the median and the distance between the first and third
quartile as a share of the median, next to the metric's bound in
BENCHMARK.json.  Run from the repository root:

    python3 perfbench/spread.py --workloads long_seq,hot_shard --seeds 1-10

--out FILE appends every run's result line (as JSON) to FILE, so two sets
of runs can be compared with perfbench/compare.py.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.strip().splitlines()[-1]
            result = json.loads(last)
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED", file=sys.stderr)
                ok = False
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "result": result}) + "\n")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None and spread > bound:
                flag = "  OVER BOUND"
                ok = False
            elif bound is not None and spread > bound / 3:
                flag = "  over a third of the bound"
            print(f"  {workload:14s} {name:22s} median {med:12.6g}  "
                  f"spread {spread:7.2%}  bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
