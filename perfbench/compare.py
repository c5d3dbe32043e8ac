#!/usr/bin/env python3
"""Compare two sets of run records written by run.py.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds run records (the *.json files run.py writes to
perfbench/out), for example the runs of a parent commit and of a change.
For every workload and metric, the comparison prints each side's median
and quartiles, and the change of the median as a share of the base
median. An end-to-end metric that got worse by more than its bound in
BENCHMARK.json is flagged, and the exit status is then 1.

Runs on another backend, Python version or CPU count measure another
machine, so the comparison is refused (exit status 2) when the records
disagree on any of them.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARABLE = ("backend", "python", "cpu_count")


def load(directory):
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if "metadata" in record and "metrics" in record:
            records.append(record)
    return records


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("error: both directories need run records", file=sys.stderr)
        return 2
    machines = {tuple(r["metadata"][k] for k in COMPARABLE) for r in base + new}
    if len(machines) > 1:
        print(f"error: runs differ in {COMPARABLE}: {sorted(machines)}; not comparable",
              file=sys.stderr)
        return 2
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        for m in json.loads(spec.read_text())["end_to_end"]:
            bounds[m["name"]] = (m["better"], m["bound"])

    status = 0
    groups = sorted({(r["workload"], r["trace"]) for r in base} & {(r["workload"], r["trace"]) for r in new})
    for workload, trace in groups:
        sides = [[r for r in rs if (r["workload"], r["trace"]) == (workload, trace)] for rs in (base, new)]
        print(f"{workload} (trace {trace}): {len(sides[0])} base runs, {len(sides[1])} new runs")
        for name, first in sides[0][0]["metrics"].items():
            b = summary([r["metrics"][name]["value"] for r in sides[0]])
            n = summary([r["metrics"][name]["value"] for r in sides[1] if name in r["metrics"]])
            change = (n[1] - b[1]) / b[1] if b[1] else float("nan")
            verdict = ""
            if name in bounds:
                better, bound = bounds[name]
                worse = change > bound if better == "lower" else change < -bound
                if worse:
                    verdict = f"  WORSE than bound {bound:g}"
                    status = 1
            print(f"  {name:<30} base {b[1]:>12.6g} [{b[0]:.6g}, {b[2]:.6g}]  "
                  f"new {n[1]:>12.6g} [{n[0]:.6g}, {n[2]:.6g}]  "
                  f"{change:+8.1%} {first['unit']}{verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
