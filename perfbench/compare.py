#!/usr/bin/env python3
"""Compare two sets of benchmark runs metric by metric.

Each input is a JSON-lines file written by `perfbench/spread.py --out`
(one run per line).  For every workload and metric it prints both
medians and the change, judged by the unit and better-direction that
BENCHMARK.json records for the metric (end-to-end and per-layer alike),
never by the metric's name.  An end-to-end metric whose median is worse
by more than its bound is a regression; the exit code is 1 if any is.

    python3 perfbench/compare.py parent.jsonl change.jsonl
"""

import json
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                for name, m in row["result"]["metrics"].items():
                    runs.setdefault((row["workload"], name), []).append(m["value"])
    return runs


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    a, b = load(sys.argv[1]), load(sys.argv[2])
    regressions = 0
    for key in sorted(set(a) | set(b)):
        workload, name = key
        m = meta.get(name)
        if m is None or key not in a or key not in b:
            print(f"{workload:14s} {name:34s} only in one set")
            continue
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        change = (mb - ma) / ma if ma else float("nan")
        worse = change if m["better"] == "lower" else -change
        verdict = "better" if worse < 0 else ("same" if worse == 0 else "worse")
        bound = m.get("bound")
        if bound is not None and worse > bound:
            verdict = f"REGRESSION (bound {bound:.0%})"
            regressions += 1
        print(f"{workload:14s} {name:34s} {ma:12.6g} -> {mb:12.6g} "
              f"{m['unit']:8s} {change:+8.2%}  {m['better']} is better: {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
