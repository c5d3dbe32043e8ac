#!/usr/bin/env python3
"""Write perfbench/ref_seconds.json: the frozen copy's time for each slot
or stratum of every workload, and its cold set-up time per workload.

    python3 perfbench/calibrate.py

run.py reports an operation's time as its live/copy time ratio times the
copy's seconds pinned here for the operation's stratum. A stratum's time
is the median over its pool members of each member's fastest run, so a
seed's choice of members does not move the metrics; only the ratios do.
These pins fix the scale of every timing metric and nothing else. They
are made once, on the machine that defined the benchmark, and made again
only by a change to the benchmark, never by a change to the library.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "tests"), str(BENCH_DIR)]

import dilates_ref  # noqa: E402
import dilates_ref.cli  # noqa: E402
from bruteforce import naive_dilate_sum  # noqa: E402

import run  # noqa: E402
import workloads as w  # noqa: E402

REPEATS = 5
SETUP_SAMPLES = 9


def stratum_seconds():
    """Median over each stratum's members of the fastest of REPEATS runs.
    The repeats go round all ops, so a slow stretch of the host hits one
    repeat of many ops."""
    pins = json.loads((BENCH_DIR / "pins.json").read_text())
    ops = []
    for workload in run.WORKLOADS:
        for member in [0] if workload == "probe" else range(w.MEMBERS):
            ops += w.build_ops(workload, 0, dilates_ref, dilates_ref.cli, pins,
                               naive_dilate_sum, member=member)
    best = {}
    for _ in range(REPEATS):
        for op in ops:
            out, seconds = run.timed(op.call)
            if isinstance(out, Exception):
                raise SystemExit(f"{op.key}: {type(out).__name__}: {out}")
            best[op.key] = min(seconds, best.get(op.key, seconds))
    members = {}
    for op in ops:
        members.setdefault(op.stratum, []).append(best[op.key])
    return {stratum: statistics.median(times) for stratum, times in members.items()}


def setup_seconds(workload):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only", "--reference",
           "--workload", workload]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def main():
    pinned = {
        "machine": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "setup": {workload: setup_seconds(workload) for workload in run.WORKLOADS},
        "strata": stratum_seconds(),
    }
    run.REF_SECONDS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned['strata'])} stratum times and {len(pinned['setup'])} set-up times "
          f"to {run.REF_SECONDS}")


if __name__ == "__main__":
    main()
