"""Command-line interface: sums, inequality checks, search, probe tables.

Every subcommand prints one JSON payload with top-level keys "command",
"params", "results"; `check` and `probe` can emit CSV instead. Identical
inputs produce byte-identical payloads. Exit codes: 0 success, 1 a
verified inequality failed (for `ap`, the exact size disagreed with the
fold), 2 usage or input error, 3 arithmetic range error.
"""

import argparse
import csv
import functools
import json
import sys

from .bounds import ap_recompute, ap_size, check_suite
from .errors import (
    ArithmeticRangeError,
    DilatesError,
)
from .intset import DilateSpec, IntSet, dilate_sum
from .search import SearchConfig, conjecture_probe, min_dilate_sum


def _parse_ints(text, flag):
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}")


def _parse_set(text):
    values = _parse_ints(text, "--set")
    if len(values) != len(set(values)):
        raise ValueError(f"--set contains duplicate elements: {text!r}")
    return IntSet(values)


def _parse_coeffs(text):
    return DilateSpec(tuple(_parse_ints(text, "--coeffs")))


def _emit_json(command, params, results):
    payload = {"command": command, "params": params, "results": results}
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _emit_csv(header, rows):
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    writer.writerows(rows)


def _cmd_sum(args):
    a = _parse_set(args.set)
    spec = _parse_coeffs(args.coeffs)
    total = dilate_sum(a, spec)
    _emit_json(
        "sum",
        {"set": list(a.elements), "coeffs": list(spec.coefficients)},
        {"size": len(total), "elements": list(total.elements)},
    )
    return 0


_REPORT_COLUMNS = ("statement_id", "hypotheses_met", "lhs", "rhs", "slack", "verdict")


def _cmd_check(args):
    a = _parse_set(args.set)
    reports = check_suite(a, args.k)
    records = [r.to_record() for r in reports]
    if args.csv:
        _emit_csv(
            _REPORT_COLUMNS,
            [
                ["" if rec[c] is None else rec[c] for c in _REPORT_COLUMNS]
                for rec in records
            ],
        )
    else:
        _emit_json("check", {"set": list(a.elements), "k": args.k}, {"reports": records})
    return 1 if any(r.verdict == "fails" for r in reports) else 0


def _cmd_search(args):
    config = SearchConfig(
        spec=_parse_coeffs(args.coeffs),
        cardinality=args.n,
        range_max=args.range,
        reflection_quotient=not args.no_reflect,
    )
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    result = min_dilate_sum(config)
    results = result.to_payload()
    results["caveats"] = []
    if result.touches_range:
        results["caveats"].append(
            f"a witness touches range_max={args.range}; the minimum is relative "
            "to [0, range_max] and may drop for larger ranges"
        )
    _emit_json(
        "search",
        {
            "coeffs": list(config.spec.coefficients),
            "n": args.n,
            "range": args.range,
            "reflection_quotient": config.reflection_quotient,
            "threads": args.threads,
        },
        results,
    )
    return 0


def _cmd_probe(args):
    if args.n_from > args.n_to:
        raise ValueError("--n-from must not exceed --n-to")
    spec = _parse_coeffs(args.coeffs)
    rows = conjecture_probe(spec, range(args.n_from, args.n_to + 1), args.range)
    caveats = [
        f"witness for n={row.cardinality} touches range_max={args.range}"
        for row in rows
        if row.touches_range
    ]
    if args.csv:
        _emit_csv(
            ("n", "minimum", "deficiency", "witness"),
            [
                (
                    row.cardinality,
                    row.minimum,
                    row.deficiency,
                    " ".join(str(x) for x in row.witness.elements),
                )
                for row in rows
            ],
        )
        # The table stays pure CSV; its caveats go to stderr.
        for caveat in caveats:
            print(f"caveat: {caveat}", file=sys.stderr)
        return 0
    _emit_json(
        "probe",
        {
            "coeffs": list(spec.coefficients),
            "n_from": args.n_from,
            "n_to": args.n_to,
            "range": args.range,
        },
        {
            "rows": [
                {
                    "n": row.cardinality,
                    "minimum": row.minimum,
                    "deficiency": row.deficiency,
                    "witness": list(row.witness.elements),
                    "total_witnesses": row.total_witnesses,
                }
                for row in rows
            ],
            "caveats": caveats,
        },
    )
    return 0


def _cmd_ap(args):
    value = ap_size(args.n, args.k)
    recomputed = ap_recompute(args.n, args.k)
    matches = value == recomputed
    _emit_json(
        "ap",
        {"n": args.n, "k": args.k},
        {"value": value, "recomputed": recomputed, "matches": matches},
    )
    return 0 if matches else 1


# argparse reads a value that starts with "-" as an option, so a list whose
# first value is negative needs the "=" form.
_SET_HELP = "comma-separated integers; write --set=-5,1 when the first is negative"
_COEFFS_HELP = (
    "comma-separated nonzero coefficients; write --coeffs=-3,2 when the first is negative"
)


# Built on the first main() call, not at import, and kept for the process:
# building it costs about 1 ms. The subcommands look up the library
# functions when they run, so rebinding those still takes effect.
@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dilates",
        description="Exact dilate-sum arithmetic, inequality checks, and extremal search.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sum", help="compute a dilate sum and print it")
    p.add_argument("--set", required=True, help=_SET_HELP)
    p.add_argument("--coeffs", required=True, help=_COEFFS_HELP)
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("check", help="run every inequality checker on a set")
    p.add_argument("--set", required=True, help=_SET_HELP)
    p.add_argument("--k", required=True, type=int, help="odd prime")
    p.add_argument("--csv", action="store_true", help="CSV output instead of JSON")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("search", help="exact minimum of a dilate-sum size")
    p.add_argument("--coeffs", required=True, help=_COEFFS_HELP)
    p.add_argument("--n", required=True, type=int, help="cardinality")
    p.add_argument("--range", required=True, type=int, help="elements drawn from [0, range]")
    p.add_argument("--no-reflect", action="store_true")
    p.add_argument(
        "--threads", type=int, default=1,
        help="accepted and echoed in params.threads; has no effect",
    )
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("probe", help="minimum/deficiency table over cardinalities")
    p.add_argument("--coeffs", required=True, help=_COEFFS_HELP)
    p.add_argument("--n-from", required=True, type=int)
    p.add_argument("--n-to", required=True, type=int)
    p.add_argument("--range", required=True, type=int)
    p.add_argument("--csv", action="store_true", help="CSV output instead of JSON")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser(
        "ap", help="exact |2P+kP| of the progression {0..n-1}, checked against the fold"
    )
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--k", required=True, type=int)
    p.set_defaults(func=_cmd_ap)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; ``argv`` defaults to ``sys.argv[1:]``."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ArithmeticRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DilatesError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
