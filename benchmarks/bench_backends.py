#!/usr/bin/env python3
"""Compare the compiled kernels against the pure-Python fallback.

Workloads:
  merge   pairwise sumset of two 400-element sets with values up to 10^9
  bitset  |2A + 3A| for 250 random elements drawn from [0, 10^6]

The search is not compared: it keeps its node values in Python ints and
calls no kernel per node, so both backends run the same search code.

Usage: python benchmarks/bench_backends.py [--quick]
"""

import argparse
import random
import time

from dilates import backend_name, use_backend
from dilates.backend import available_backends, fold_size, sumset


def timed(fn, reps):
    fn()  # warmup
    t0 = time.perf_counter()
    for _ in range(reps):
        out = fn()
    return (time.perf_counter() - t0) / reps, out


def workload_merge(rng):
    a = tuple(sorted(rng.sample(range(10**9), 400)))
    b = tuple(sorted(rng.sample(range(10**9), 400)))
    return lambda: len(sumset(a, b))


def workload_bitset(rng):
    elems = tuple(sorted(rng.sample(range(10**6), 250)))
    terms = ((2, elems), (3, elems))
    return lambda: fold_size(terms)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller workloads")
    args = parser.parse_args()

    backends = available_backends()
    if backends == ("pure",):
        print("compiled kernels unavailable; nothing to compare")

    rng = random.Random(99)
    workloads = [
        ("merge", workload_merge(rng), 5 if args.quick else 20),
        ("bitset", workload_bitset(rng), 20 if args.quick else 100),
    ]

    print(f"{'workload':<10} " + " ".join(f"{name:>14}" for name in backends)
          + ("   speedup" if len(backends) > 1 else ""))
    for label, fn, reps in workloads:
        times = {}
        values = set()
        for name in backends:
            prior = use_backend(name)
            try:
                per_call, value = timed(fn, reps)
            finally:
                use_backend(prior)
            times[name] = per_call
            values.add(value)
        if len(values) != 1:
            raise AssertionError(f"{label}: backends disagree: {values}")
        row = f"{label:<10} " + " ".join(
            f"{times[name] * 1e3:>11.3f} ms" for name in backends
        )
        if len(backends) > 1:
            row += f"   x{times['pure'] / times['compiled']:.1f}"
        print(row)
    print(f"(active backend at import: {backend_name()}; results verified equal)")


if __name__ == "__main__":
    main()
