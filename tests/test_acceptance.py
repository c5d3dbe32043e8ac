"""Acceptance suite: one test per criterion, each printing one line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute. Every tolerance here is exact integer equality or an
exact integer comparison; nothing is calibrated later.
"""

import math
import random
import time

import pytest

from dilates import (
    DilateSpec,
    IntSet,
    SearchConfig,
    ap_recompute,
    bound_four,
    bound_full_semifull,
    bound_main_large,
    bound_main_small,
    bound_marginal_total,
    bound_basic,
    check_faithful,
    component_count,
    conjecture_probe,
    decompose,
    min_dilate_sum,
)

from dilates.backend import fold_size
from dilates.search import WITNESS_CAP

from bruteforce import naive_canonical_family, naive_fold, naive_minimum


def _finish(name, failures, started, limit, extra=""):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s{', ' + extra if extra else ''})")
    assert not failures, f"{name}: {len(failures)} violation(s): {failures[:10]}"
    assert elapsed < limit, f"{name}: took {elapsed:.2f}s, limit {limit}s"


@pytest.mark.parametrize("k", [3, 5, 7, 11])
def test_criterion_1_progression_exact_value(k):
    """The recomputed |2P + kP| must equal its exact value for n in [2, 200].

    For P = {0..n-1} the exact value has two regimes:

    - n < k: all n^2 sums 2i + kj are distinct. If 2i + kj = 2i' + kj',
      then 2(i - i') = k(j' - j); k is an odd prime, so k divides i - i',
      and |i - i'| < n <= k forces i = i' and then j = j'. The paper's
      closed form overstates this by (k+2)n - 2k - n^2 = (n-2)(k-n).
    - n >= k: the paper's closed form (k+2)n - 2k holds.

    Both regimes give 2k at n = 2.
    """
    started = time.perf_counter()
    failures = []
    for n in range(2, 201):
        expected = n * n if n < k else (k + 2) * n - 2 * k
        actual = ap_recompute(n, k)
        if actual != expected:
            failures.append((n, actual, expected))
    _finish(f"criterion 1 [k={k}] progression exact value", failures, started, 5.0)


def test_criterion_2_exhaustive_soundness_sweep():
    """No checker may report "fails" on any canonical A in [0,14], |A| in [2,5]."""
    started = time.perf_counter()
    failures = []
    coprime_pairs = [(2, 3), (2, 5), (3, 4), (3, 5)]
    checked = 0

    def note(a, rep):
        if rep.verdict == "fails":
            failures.append((tuple(a.elements), rep.statement_id, rep.lhs, rep.rhs))

    for size in range(2, 6):
        for a in map(IntSet, naive_canonical_family(size, 14, reflect=False)):
            checked += 1
            for n, m in coprime_pairs:
                note(a, bound_basic(a, a, n, m))
                note(a, bound_four(a, n, m))
            for k in (3, 5, 7):
                note(a, bound_marginal_total(a, k))
            for residue, block in decompose(a, 3).items():
                if component_count(block, 9) < 3 and component_count(a, 3) >= 2:
                    note(a, check_faithful(a, 3, residue))
            for k in (3, 5):
                note(a, bound_main_small(a, k))
    _finish(
        "criterion 2 exhaustive soundness sweep",
        failures,
        started,
        60.0,
        extra=f"{checked} canonical sets",
    )


def test_criterion_3_equality_witnesses():
    """The four stated equality cases reproduce slack exactly 0."""
    started = time.perf_counter()
    failures = []
    cases = [
        ("four_bound {0,1,3}", bound_four(IntSet([0, 1, 3]), 2, 3), 8, 8),
        ("full {0,1,2}", bound_full_semifull(IntSet([0, 1, 2]), 3), 9, 9),
        ("semifull {0,3,6}", bound_full_semifull(IntSet([0, 3, 6]), 3), 9, 9),
        ("marginal {0,1,2}", bound_marginal_total(IntSet([0, 1, 2]), 3), 6, 6),
    ]
    for label, rep, lhs, rhs in cases:
        if (rep.lhs, rep.rhs, rep.slack, rep.verdict) != (lhs, rhs, 0, "holds"):
            failures.append((label, rep.lhs, rep.rhs, rep.slack, rep.verdict))
    _finish("criterion 3 equality witnesses", failures, started, 5.0)


def test_criterion_4_search_oracle_equivalence():
    """The search agrees with the brute-force oracle everywhere."""
    started = time.perf_counter()
    failures = []
    spec = DilateSpec((2, 3))
    for n in range(1, 5):
        for r in range(n - 1, 13):
            if n == 1 and r > 3:
                continue  # singleton family is range-independent
            result = min_dilate_sum(SearchConfig(spec, n, r))
            expected_min, expected_wits = naive_minimum(spec.coefficients, n, r)
            if (
                result.minimum != expected_min
                or [w.elements for w in result.witnesses] != expected_wits[:WITNESS_CAP]
                or result.total_witnesses != len(expected_wits)
            ):
                failures.append((n, r))
    pinned = min_dilate_sum(SearchConfig(spec, 3, 12))
    if pinned.minimum != 8 or IntSet([0, 1, 3]) not in pinned.witnesses:
        failures.append(("pin", pinned.minimum, pinned.witnesses))
    _finish("criterion 4 search oracle equivalence", failures, started, 30.0)


def test_criterion_5_large_set_bound():
    """|2A+3A| >= 5|A| - 10 for |A| > 216: the 217-term progression plus
    30 random canonical sets from [0, 10^6]."""
    started = time.perf_counter()
    failures = []
    ap = IntSet(range(217))
    strict, cor = bound_main_large(ap, 3)
    if (cor.lhs, cor.rhs, cor.verdict) != (1079, 1075, "holds"):
        failures.append(("progression", cor.lhs, cor.rhs, cor.verdict))

    rng = random.Random(20260808)
    strict_checked = 0
    for i in range(30):
        size = rng.randint(217, 260)
        while True:
            elems = rng.sample(range(1, 10**6 + 1), size - 1)
            if math.gcd(*elems) == 1:
                break
        a = IntSet([0] + elems)
        strict, cor = bound_main_large(a, 3)
        if cor.verdict != "holds":
            failures.append((i, "general", cor.lhs, cor.rhs, cor.verdict))
        if strict.hypotheses_met:
            strict_checked += 1
            if strict.verdict != "holds":
                failures.append((i, "strict", strict.lhs, strict.rhs))

    # random samples are almost always 3-semi-full; add one constructed
    # large set that is not, so the strict branch is always exercised
    skewed = IntSet(x for x in range(703) if x % 9 not in (3, 6))
    strict, cor = bound_main_large(skewed, 3)
    if not strict.hypotheses_met or strict.verdict != "holds":
        failures.append(("constructed", "strict", strict.lhs, strict.rhs))
    else:
        strict_checked += 1
    if cor.verdict != "holds":
        failures.append(("constructed", "general", cor.lhs, cor.rhs))
    _finish(
        "criterion 5 large-set bound",
        failures,
        started,
        10.0,
        extra=f"strict applicable on {strict_checked}/31 sets",
    )


def test_criterion_6_affine_invariance_fuzz():
    """1000 random (A, r, s, u, v): |r*A + s*A| is unchanged by x -> x + v
    and by x -> u*x, each size a direct fold, the base one also checked
    against the brute-force fold."""
    started = time.perf_counter()
    failures = []
    rng = random.Random(1729)
    nonzero = [c for c in range(-9, 10) if c != 0]
    reflected = repeated = 0
    for i in range(1000):
        size = rng.randint(1, 8)
        a = rng.sample(range(-50, 51), size)
        r, s, u = (rng.choice(nonzero) for _ in range(3))
        v = rng.randint(-9, 9)
        sizes = [
            fold_size(((r, b.elements), (s, b.elements)))
            for b in (IntSet(a), IntSet(x + v for x in a), IntSet(u * x for x in a))
        ]
        sizes.append(len(naive_fold([(r, a), (s, a)])))
        if len(set(sizes)) != 1:
            failures.append((i, tuple(sorted(a)), r, s, u, v, sizes))
        reflected += u < 0
        repeated += r == s
    if not (reflected and repeated):
        failures.append(("no case with u < 0 or with r == s", reflected, repeated))
    _finish("criterion 6 affine invariance fuzz", failures, started, 30.0,
            extra=f"u < 0 in {reflected}, r == s in {repeated}")


def test_criterion_7_conjecture_probe_regression():
    """Probe rows for Z={2,3}, R=12 pin (2,4,6) and (3,8,7), with a
    non-progression extremal witness at n=3."""
    started = time.perf_counter()
    failures = []
    rows = conjecture_probe(DilateSpec((2, 3)), range(2, 4), 12)
    got = [(r.cardinality, r.minimum, r.deficiency) for r in rows]
    if got != [(2, 4, 6), (3, 8, 7)]:
        failures.append(("rows", got))
    witness = rows[1].witness
    gaps = {
        witness.elements[i + 1] - witness.elements[i]
        for i in range(len(witness) - 1)
    }
    if len(gaps) == 1:
        failures.append(("witness is a progression", witness))
    if rows[1].minimum >= 9:  # the progression value (3+2)*3 - 2*3
        failures.append(("progression not beaten", rows[1].minimum))
    _finish("criterion 7 conjecture probe regression", failures, started, 10.0)
