"""Median, quartiles and spread of end-to-end metrics over many runs.

    python3 perfbench/summarize.py perfbench/out/*-trace0.json

Reads the records run.py writes, groups them by workload and prints, per
metric, the number of runs, the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread: the distance between
the quartiles as a share of the median.  Compare these spreads with the
bounds in BENCHMARK.json.
"""

import argparse
import json
import statistics
import sys


def summarize(records):
    by_workload = {}
    for rec in records:
        if rec["context"]["trace"]:
            continue
        runs = by_workload.setdefault(rec["context"]["workload"], {})
        for name, value in rec["metrics"].items():
            runs.setdefault(name, []).append(value)
    out = {}
    for workload, metrics in sorted(by_workload.items()):
        for name, values in metrics.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            out.setdefault(workload, {})[name] = {
                "runs": len(values), "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("records", nargs="+")
    args = ap.parse_args(argv)
    records = []
    for path in args.records:
        with open(path) as fh:
            records.append(json.load(fh))
    summary = summarize(records)
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            print("%-15s %-12s runs %2d  median %10.4f  q1 %10.4f  q3 %10.4f  spread %.4f"
                  % (workload, name, s["runs"], s["median"], s["q1"], s["q3"], s["spread"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
