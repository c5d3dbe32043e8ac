#!/usr/bin/env python3
"""Write perfbench/pins.json: the expected output of every pool member.

    python3 perfbench/pin.py

Pins are made once, at the commit that defines the benchmark, and made
again only by a change to the benchmark that alters the pools; a change to
the library must reproduce them. Before a sum is pinned it is checked
against tests/bruteforce.py where brute force is affordable, and its size
must equal the number of elements it materializes. Both sign variants of
every search slot must give the same minimum and witnesses.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH_DIR)]

import dilates  # noqa: E402
import dilates.cli  # noqa: E402
from bruteforce import naive_dilate_sum  # noqa: E402

import workloads as w  # noqa: E402

PIN_NAIVE_LIMIT = 200_000


def search_pins():
    pins = {}
    for slot in range(len(w.SEARCH_SLOTS)):
        results = []
        for member in (0, 1):
            code, out, err = w.run_cli(dilates.cli, w.search_argv(*w.search_member(slot, member)))
            if code != 0:
                raise SystemExit(f"search slot {slot}: exit {code}: {err}")
            payload = json.loads(out)["results"]
            results.append({k: payload[k] for k in ("minimum", "witnesses", "total_witnesses")})
        if results[0] != results[1]:
            raise SystemExit(f"search slot {slot}: sign variants disagree")
        coeffs, n, range_max = w.search_member(slot, 0)
        for wit in results[0]["witnesses"]:
            problem = w.witness_problem(
                wit, coeffs, n, range_max, results[0]["minimum"], naive_dilate_sum
            )
            if problem:
                raise SystemExit(f"search slot {slot}: {problem}")
        pins[str(slot)] = {k: results[0][k] for k in ("minimum", "total_witnesses")}
    return pins


def check_pins():
    pins = {}
    for stratum in range(len(w.CHECK_STRATA)):
        for member in range(w.MEMBERS):
            elems, k = w.check_member(stratum, member)
            reports = dilates.check_suite(dilates.IntSet(elems), k)
            pins[f"{stratum}:{member}"] = w.digest(w.records_json(reports))
    return pins


def sum_pins():
    pins = {}
    for stratum in range(len(w.SUM_STRATA)):
        for member in range(w.MEMBERS):
            _, elems, coeffs = w.sum_member(stratum, member)
            a, spec = dilates.IntSet(elems), dilates.DilateSpec(coeffs)
            key = f"{stratum}:{member}"
            try:
                total = dilates.dilate_sum(a, spec).elements
            except dilates.ArithmeticRangeError:
                try:
                    dilates.dilate_sum_size(a, spec)
                except dilates.ArithmeticRangeError:
                    pins[key] = {"refused": True}
                    continue
                raise SystemExit(f"sum {key}: refused only when materialized")
            if dilates.dilate_sum_size(a, spec) != len(total):
                raise SystemExit(f"sum {key}: size differs from the materialized count")
            if len(elems) ** len(coeffs) <= PIN_NAIVE_LIMIT:
                if list(total) != naive_dilate_sum(elems, coeffs):
                    raise SystemExit(f"sum {key}: differs from brute force")
            pins[key] = {"size": len(total), "digest": w.elements_digest(total)}
    return pins


def main():
    pins = {
        "search-mixed": search_pins(),
        "check": check_pins(),
        "sum": sum_pins(),
    }
    (BENCH_DIR / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {BENCH_DIR / 'pins.json'}")


if __name__ == "__main__":
    main()
