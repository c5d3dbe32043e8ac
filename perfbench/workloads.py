"""The four workloads: seeded inputs, the operations run on them, and the
checks on their outputs.

A workload is a fixed list of operations, one "pass". The harness repeats
passes in a closed loop: one client, each call made only after the
previous one returned.

Inputs for `search-mixed`, `check` and `sum` come from pinned pools. Each
slot (search) or stratum (check, sum) fixes an input's shape: coefficients,
cardinality, span, k, class counts. It has MEMBERS variants generated from
the stratum's own fixed seed, and the expected output of every member is
pinned in pins.json. The run's --seed picks one member per stratum and the
order of the operations. The shape fixes the cost, so a pass costs about
the same on every seed, while each seed still hands the library different
inputs. The library sees only the generated inputs.
"""

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

MEMBERS = 8

# The ROADMAP's headline table. Its input is the same on every seed.
PROBE_ARGV = ["probe", "--coeffs", "2,3", "--n-from", "2", "--n-to", "8", "--range", "26"]
PROBE_COEFFS = (2, 3)
PROBE_RANGE = 26
PROBE_DEFICIENCIES = {2: 6, 3: 7, 4: 8, 5: 7, 6: 8, 7: 7, 8: 8}

# (coefficients, n, range). A slot's members are the spec and its negation:
# the dilate sums of -Z are the negated sums of Z, so both have the same
# minimum, witnesses and search tree, hence the same pins and cost.
SEARCH_SLOTS = [
    ((-3, 2), 7, 22),
    ((-5, 3), 6, 24),
    ((-2, 5), 6, 24),
    ((1, -3), 7, 24),
    ((-4, 5), 5, 26),
    ((-3, 4), 6, 22),
    ((2, -3, 5), 8, 30),
    ((1, 2, 4), 9, 34),
    ((2, -3, 7), 7, 28),
    ((-1, 3, 4), 8, 30),
    ((1, -2, 4), 8, 30),
    ((2, 3, -5), 7, 26),
]
SEARCH_THREADS = 2

# (kind, |A|, span, k, residues mod k, classes mod k^2 per residue).
# "uniform" sets are drawn uniformly from [0, span]. "faithful" sets meet
# a few classes mod k and, in each, fewer than k classes mod k^2, so the
# faithful-component checks run. "semifull" sets meet every class mod k^2
# within each of a few classes mod k, so the semi-full case of
# full_semifull_bound applies. Class counts are fixed per stratum because
# they set the cost.
CHECK_STRATA = [
    ("uniform", 50, 10**3, 3, None, None),
    ("uniform", 50, 10**5, 13, None, None),
    ("uniform", 100, 10**4, 5, None, None),
    ("uniform", 100, 10**6, 7, None, None),
    ("uniform", 200, 10**3, 11, None, None),
    ("uniform", 200, 10**5, 3, None, None),
    ("uniform", 300, 10**4, 13, None, None),
    ("uniform", 300, 10**6, 5, None, None),
    ("uniform", 400, 10**3, 7, None, None),
    ("uniform", 400, 10**5, 11, None, None),
    ("uniform", 600, 10**4, 3, None, None),
    ("uniform", 600, 10**5, 13, None, None),
    ("faithful", 50, 10**4, 5, 2, 2),
    ("faithful", 100, 10**6, 3, 2, 2),
    ("faithful", 200, 10**4, 7, 3, 3),
    ("faithful", 200, 10**5, 13, 3, 4),
    ("faithful", 300, 10**5, 11, 3, 5),
    ("faithful", 400, 10**4, 3, 2, 2),
    ("faithful", 500, 10**5, 5, 3, 3),
    ("faithful", 600, 10**5, 11, 4, 5),
    ("semifull", 50, 10**4, 3, 2, 3),
    ("semifull", 100, 10**5, 5, 3, 5),
    ("semifull", 150, 10**6, 13, 2, 13),
    ("semifull", 200, 10**4, 7, 3, 7),
    ("semifull", 300, 10**6, 3, 2, 3),
    ("semifull", 400, 10**5, 11, 3, 11),
    ("semifull", 500, 10**4, 13, 3, 13),
    ("semifull", 600, 10**5, 5, 4, 5),
    ("uniform", 80, 10**3, 5, None, None),
    ("uniform", 120, 10**4, 11, None, None),
    ("uniform", 150, 10**3, 13, None, None),
    ("uniform", 250, 10**4, 7, None, None),
    ("uniform", 350, 10**3, 3, None, None),
    ("uniform", 500, 10**3, 5, None, None),
    ("faithful", 80, 10**4, 7, 2, 3),
    ("faithful", 120, 10**5, 3, 2, 2),
    ("faithful", 150, 10**4, 11, 3, 4),
    ("faithful", 250, 10**4, 5, 2, 3),
    ("faithful", 350, 10**4, 13, 3, 5),
    ("semifull", 80, 10**4, 5, 2, 5),
    ("semifull", 120, 10**4, 11, 2, 11),
    ("semifull", 250, 10**4, 3, 2, 3),
    ("semifull", 350, 10**4, 7, 3, 7),
    ("semifull", 450, 10**4, 5, 3, 5),
]

# (api, layout, |A|, span, coefficients). "size" calls dilate_sum_size,
# "elems" calls dilate_sum. "dense" sets lie in [0, span] and take the
# bitset route when sized; "wide" sets have values up to 10^12 and always
# take the merge route; "huge" sets have values near 4*10^18, so the
# envelope leaves int64 and the call must be refused. Signs are fixed per
# stratum because they set the order of the fold, and so its cost.
SUM_STRATA = [
    ("size", "dense", 100, 10**3, (2, 3)),
    ("size", "dense", 400, 10**3, (-1, 2, 4)),
    ("size", "dense", 600, 10**3, (2, -3, 5, 7)),
    ("size", "dense", 100, 10**4, (-3, 5)),
    ("size", "dense", 300, 10**4, (2, 3, -5)),
    ("size", "dense", 500, 10**4, (1, -2, 3, -5)),
    ("size", "dense", 100, 10**5, (2, -7)),
    ("size", "dense", 200, 10**5, (1, 3, 7)),
    ("size", "dense", 300, 10**5, (-2, 3)),
    ("size", "dense", 50, 10**6, (2, 3)),
    ("size", "dense", 100, 10**6, (1, -2, 4)),
    ("size", "dense", 150, 10**6, (-3, 5)),
    ("size", "wide", 150, None, (2, 3)),
    ("size", "wide", 300, None, (3, -5)),
    ("size", "wide", 30, None, (-1, 2, 4)),
    ("size", "wide", 45, None, (2, 3, 5)),
    ("size", "wide", 12, None, (1, 2, -3, 5)),
    ("size", "wide", 16, None, (-2, 3, 5, -7)),
    ("elems", "dense", 100, 10**3, (2, -3)),
    ("elems", "dense", 300, 10**3, (1, 2, 4)),
    ("elems", "dense", 200, 10**4, (3, 5)),
    ("elems", "dense", 400, 10**4, (-2, 7)),
    ("elems", "dense", 60, 10**5, (2, -3, 5)),
    ("elems", "dense", 300, 10**6, (2, 3)),
    ("elems", "dense", 20, 10**6, (-1, 2, 3, 5)),
    ("elems", "wide", 100, None, (-2, 3)),
    ("elems", "wide", 250, None, (2, 7)),
    ("elems", "wide", 350, None, (3, -5)),
    ("elems", "wide", 25, None, (1, -2, 4)),
    ("elems", "wide", 40, None, (2, 3, -5)),
    ("elems", "wide", 10, None, (1, 2, 3, 5)),
    ("elems", "wide", 15, None, (2, -3, 5, -7)),
    ("size", "dense", 250, 10**4, (3, -7)),
    ("size", "dense", 80, 10**5, (-1, 2, 5)),
    ("size", "dense", 200, 10**4, (1, 4)),
    ("size", "dense", 400, 10**3, (2, 3, 5, -7)),
    ("size", "wide", 200, None, (2, -5)),
    ("size", "wide", 20, None, (1, 3, -4)),
    ("elems", "dense", 150, 10**4, (2, 5)),
    ("elems", "dense", 40, 10**4, (1, -3, 4)),
    ("elems", "wide", 200, None, (-3, 4)),
    ("elems", "wide", 30, None, (2, 3, 7)),
    ("size", "huge", 40, None, (2, 3)),
    ("elems", "huge", 40, None, (1, -2, 4)),
]
WIDE_MAX = 10**12
HUGE_LOW = 2 * 10**18
HUGE_HIGH = 4 * 10**18

# Sums whose naive cost (product of the term sizes) is at most this are
# also recomputed with tests/bruteforce.py on every run.
NAIVE_LIMIT = 20_000

REFUSED = "refused"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def elements_digest(elements):
    return digest(",".join(map(str, elements)))


def records_json(reports):
    return json.dumps([r.to_record() for r in reports], sort_keys=True)


@dataclass
class Op:
    """One call into the library, with the checks on its output.

    ``stratum`` names the slot or stratum the input was drawn from.
    ``call`` is timed. ``fingerprint`` turns the output into a value that
    later passes, traced or not, must reproduce exactly. ``verify``
    returns None for a correct output, else the reason it is wrong.
    """

    key: str
    stratum: str
    call: Callable[[], object]
    fingerprint: Callable[[object], object]
    verify: Callable[[object], object]


def run_cli(cli, argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _selection(workload, seed, count, member=None):
    """Member index per stratum and the order of operations for a seed."""
    if member is not None:
        return [member] * count, list(range(count))
    rng = random.Random(f"{workload}:{seed}")
    members = [rng.randrange(MEMBERS) for _ in range(count)]
    order = list(range(count))
    rng.shuffle(order)
    return members, order


# ---------------------------------------------------------------- inputs


def search_member(slot, member):
    coeffs, n, range_max = SEARCH_SLOTS[slot]
    if member % 2:
        coeffs = tuple(-c for c in coeffs)
    return coeffs, n, range_max


def search_argv(coeffs, n, range_max):
    return [
        "search",
        "--coeffs=" + ",".join(map(str, coeffs)),
        "--n", str(n),
        "--range", str(range_max),
        "--threads", str(SEARCH_THREADS),
    ]


def _structured(rng, n, span, k, residues, subclasses):
    classes = []
    for r in rng.sample(range(k), residues):
        classes.extend(r + k * s for s in rng.sample(range(k), subclasses))
    width = len(classes)
    blocks = span // (k * k) + 1
    if n < width or n > width * blocks:
        raise ValueError(f"cannot place {n} elements on {width} classes within {span}")
    # One element in every chosen class, so the class counts are exact.
    picks = {i + width * rng.randrange(blocks) for i in range(width)}
    while len(picks) < n:
        picks.add(rng.randrange(width * blocks))
    return sorted(classes[p % width] + k * k * (p // width) for p in picks)


def check_member(stratum, member):
    """(elements, k) of one pool member of the check workload."""
    kind, n, span, k, residues, subclasses = CHECK_STRATA[stratum]
    rng = random.Random(f"check:{stratum}:{member}")
    if kind == "uniform":
        return sorted(rng.sample(range(span + 1), n)), k
    return _structured(rng, n, span, k, residues, subclasses), k


def sum_member(stratum, member):
    """(api, elements, coefficients) of one pool member of the sum workload."""
    api, layout, n, span, coeffs = SUM_STRATA[stratum]
    rng = random.Random(f"sum:{stratum}:{member}")
    if layout == "dense":
        elems = sorted(rng.sample(range(span + 1), n))
    elif layout == "wide":
        elems = sorted(rng.sample(range(WIDE_MAX + 1), n))
    else:
        elems = sorted(rng.sample(range(HUGE_LOW, HUGE_HIGH), n))
    return api, elems, coeffs


def naive_affordable(elems, coeffs):
    return len(elems) ** len(coeffs) <= NAIVE_LIMIT


# ---------------------------------------------------------------- checks


def witness_problem(w, coeffs, n, range_max, minimum, naive_dilate_sum):
    """Why a search witness is wrong, or None.

    A witness must be a canonical member of the searched family (sorted,
    minimum 0, gcd 1, within the range, the reflection representative)
    whose dilate sum, recomputed by brute force, has the reported minimum.
    """
    if len(w) != n or list(w) != sorted(set(w)):
        return f"witness {w} is not a sorted set of {n} elements"
    if w[0] != 0 or w[-1] > range_max or math.gcd(*w) != 1:
        return f"witness {w} is not canonical in [0, {range_max}]"
    if [w[-1] - x for x in reversed(w)] < list(w):
        return f"witness {w} is not its reflection class representative"
    size = len(naive_dilate_sum(w, coeffs))
    if size != minimum:
        return f"witness {w} has brute-force size {size}, not {minimum}"
    return None


def _verify_probe(output, naive_dilate_sum):
    code, out, err = output
    if code != 0:
        return f"exit code {code}: {err.strip()}"
    rows = json.loads(out)["results"]["rows"]
    if [r["n"] for r in rows] != sorted(PROBE_DEFICIENCIES):
        return f"rows for n={[r['n'] for r in rows]}"
    weight = sum(abs(c) for c in PROBE_COEFFS)
    for row in rows:
        n = row["n"]
        deficiency = PROBE_DEFICIENCIES[n]
        if row["deficiency"] != deficiency or row["minimum"] != weight * n - deficiency:
            return f"n={n}: minimum {row['minimum']}, deficiency {row['deficiency']}"
        problem = witness_problem(
            row["witness"], PROBE_COEFFS, n, PROBE_RANGE, row["minimum"], naive_dilate_sum
        )
        if problem:
            return problem
    return None


def _verify_search(output, coeffs, n, range_max, pin, naive_dilate_sum):
    code, out, err = output
    if code != 0:
        return f"exit code {code}: {err.strip()}"
    results = json.loads(out)["results"]
    if results["minimum"] != pin["minimum"]:
        return f"minimum {results['minimum']}, pinned {pin['minimum']}"
    if results["total_witnesses"] != pin["total_witnesses"]:
        return f"{results['total_witnesses']} witnesses, pinned {pin['total_witnesses']}"
    for w in results["witnesses"]:
        problem = witness_problem(w, coeffs, n, range_max, pin["minimum"], naive_dilate_sum)
        if problem:
            return problem
    return None


def _verify_check(output, pinned):
    got = digest(records_json(output))
    return None if got == pinned else f"report digest {got}, pinned {pinned}"


def _verify_sum(output, api, elems, coeffs, pin, naive_dilate_sum):
    if "refused" in pin:
        return None if output == REFUSED else "an out-of-range sum was not refused"
    if output == REFUSED:
        return "an in-range sum was refused"
    if api == "size":
        return None if output == pin["size"] else f"size {output}, pinned {pin['size']}"
    got = output.elements
    if len(got) != pin["size"]:
        return f"{len(got)} elements, pinned {pin['size']}"
    if any(x >= y for x, y in zip(got, got[1:])):
        return "elements are not strictly increasing"
    if elements_digest(got) != pin["digest"]:
        return "element digest differs from the pin"
    if naive_affordable(elems, coeffs) and list(got) != naive_dilate_sum(elems, coeffs):
        return "elements differ from the brute-force sum"
    return None


# ---------------------------------------------------------------- ops


def _sum_fingerprint(out):
    if isinstance(out, int) or out == REFUSED:
        return out
    return len(out.elements), hash(out.elements)


def build_ops(workload, seed, lib, cli, pins, naive_dilate_sum, member=None):
    """The operation list of one pass for ``workload`` on ``seed``.

    ``lib`` and ``cli`` are the imported dilates package and its CLI
    module. Calls look functions up on them at call time, so rebinding a
    function there (as the traced run does) reaches every call. With
    ``member``, every stratum uses that pool member, in stratum order,
    whatever the seed.
    """
    if workload == "probe":
        return [
            Op(
                "probe",
                "probe",
                lambda: run_cli(cli, PROBE_ARGV),
                lambda out: out,
                lambda out: _verify_probe(out, naive_dilate_sum),
            )
        ]

    ops = []
    if workload == "search-mixed":
        members, order = _selection(workload, seed, len(SEARCH_SLOTS), member)
        for slot in order:
            coeffs, n, range_max = search_member(slot, members[slot])
            argv = search_argv(coeffs, n, range_max)
            pin = pins["search-mixed"][str(slot)]
            ops.append(
                Op(
                    f"search:{slot}:{members[slot]}",
                    f"search:{slot}",
                    lambda argv=argv: run_cli(cli, argv),
                    lambda out: out,
                    lambda out, c=coeffs, n=n, r=range_max, p=pin: _verify_search(
                        out, c, n, r, p, naive_dilate_sum
                    ),
                )
            )
    elif workload == "check":
        members, order = _selection(workload, seed, len(CHECK_STRATA), member)
        for stratum in order:
            member = members[stratum]
            elems, k = check_member(stratum, member)
            a = lib.IntSet(elems)
            pinned = pins["check"][f"{stratum}:{member}"]
            ops.append(
                Op(
                    f"check:{stratum}:{member}",
                    f"check:{stratum}",
                    lambda a=a, k=k: lib.check_suite(a, k),
                    records_json,
                    lambda out, p=pinned: _verify_check(out, p),
                )
            )
    elif workload == "sum":
        members, order = _selection(workload, seed, len(SUM_STRATA), member)
        for stratum in order:
            member = members[stratum]
            api, elems, coeffs = sum_member(stratum, member)
            a = lib.IntSet(elems)
            spec = lib.DilateSpec(coeffs)
            fn_name = "dilate_sum_size" if api == "size" else "dilate_sum"

            def call(a=a, spec=spec, fn_name=fn_name):
                try:
                    return getattr(lib, fn_name)(a, spec)
                except lib.ArithmeticRangeError:
                    return REFUSED

            pin = pins["sum"][f"{stratum}:{member}"]
            ops.append(
                Op(
                    f"sum:{stratum}:{member}",
                    f"sum:{stratum}",
                    call,
                    _sum_fingerprint,
                    lambda out, api=api, e=elems, c=coeffs, p=pin: _verify_sum(
                        out, api, e, c, p, naive_dilate_sum
                    ),
                )
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
