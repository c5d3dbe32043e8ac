"""Structured checkers for the dilate-sum inequalities.

Each checker recomputes the relevant sumset exactly and compares it with
the closed-form bound it is supposed to dominate, returning a BoundReport
with a three-valued verdict: "holds", "fails", or "not-applicable" when
the statement's hypotheses are not met. A checker never reports "holds"
for an out-of-hypothesis input; silently passing those would make the
verifier vacuous.

Statement ids:
  basic_bound          |n*A + m*B| >= c_n(B)|A| + c_m(A)|B| - c_m(A)c_n(B)
  four_bound           |n*A + m*A| >= 4|A| - 4 for coprime 2 <= n < m
  full_semifull_bound  |2*A + m*A| >= (m+2)|A| - 2m (m-full case) or
                       (m+2)|A| - 2m*c_m(A) (m-semi-full case), m odd
  marginal_total_bound sum of |M_C| over components >= (c-1)c, c = c_k(A)
  faithful_component   |M_C| >= |C'| for eligible C and all other C'
  main_small_bound     |2*A + k*A| >= (k+2)|A| - 4k^(k-1)
  main_large_strict    |2*A + k*A| >  (k+2)|A| under the structural gates
  main_large_bound     |2*A + k*A| >= (k+2)|A| - k^2 - k + 2 for |A| > 8k^k
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace

from .backend import _fold_guard, fold_size
from .components import (
    _bitmask_route,
    _marginal_guard,
    _reduced_masks,
    _require_odd_prime,
    component_count,
    decompose,
    is_full,
    is_odd_prime,
    is_semi_full,
    marginal_set,
)
from .errors import (
    ArithmeticRangeError,
    DilatesError,
    InvalidModulusError,
)
from .intset import IntSet, canonicalize, _coerce_spec

# Largest odd prime whose bound constants 4*k^(k-1) and 8*k^k both stay
# inside int64; the next prime, 17, does not.
MAX_CONSTANT_PRIME = 13

GE = ">="
GT = ">"
_RELATIONS = {GE: operator.ge, GT: operator.gt}


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality check.

    ``holds`` is None exactly when the hypotheses are not met, in which
    case the verdict is "not-applicable"; otherwise it is ``relation``
    applied to lhs and rhs. ``slack`` is lhs - rhs whenever both sides
    exist. Both are derived, so neither can contradict the sides.
    """

    statement_id: str
    hypotheses_met: bool
    lhs: int | None
    rhs: int | None
    relation: str = GE
    hypotheses: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    @property
    def slack(self) -> int | None:
        if self.lhs is None or self.rhs is None:
            return None
        return self.lhs - self.rhs

    @property
    def holds(self) -> bool | None:
        if not self.hypotheses_met:
            return None
        return _RELATIONS[self.relation](self.lhs, self.rhs)

    @property
    def verdict(self) -> str:
        if not self.hypotheses_met:
            return "not-applicable"
        return "holds" if self.holds else "fails"

    def to_record(self) -> dict:
        return {
            "statement_id": self.statement_id,
            "hypotheses_met": self.hypotheses_met,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "verdict": self.verdict,
            "relation": self.relation,
            "hypotheses": dict(self.hypotheses),
            "detail": dict(self.detail),
        }


def _report(statement_id, relation, lhs, rhs, hypotheses, detail=None, met=None):
    return BoundReport(
        statement_id=statement_id,
        hypotheses_met=all(hypotheses.values()) if met is None else met,
        lhs=lhs,
        rhs=rhs,
        relation=relation,
        hypotheses=hypotheses,
        detail=detail or {},
    )


def _pair_size(n, a: IntSet, m, b: IntSet) -> int:
    return fold_size(((n, a.elements), (m, b.elements)))


def bound_basic(a: IntSet, b: IntSet, n: int, m: int) -> BoundReport:
    """Component-count lower bound for |n*a + m*b| with coprime n, m.

    n and m are coerced with ``operator.index``: a bool counts as 0 or 1,
    and a float raises TypeError.
    """
    n, m = operator.index(n), operator.index(m)
    return _bound_basic(a, b, n, m, lambda: _pair_size(n, a, m, b))


# Each _bound_* core takes ``size``, a zero-argument callable giving the
# |n*a + m*b| its public checker would fold, called at the point where the
# checker folds it, so check_suite can share one fold between checkers.
def _bound_basic(a, b, n, m, size):
    hypotheses = {
        "n_ge_2": n >= 2,
        "m_ge_2": m >= 2,
        "coprime": math.gcd(n, m) == 1,
    }
    if not all(hypotheses.values()):
        return _report("basic_bound", GE, None, None, hypotheses)
    lhs = size()
    b_classes, a_classes = component_count(b, n), component_count(a, m)
    rhs = b_classes * len(a) + a_classes * len(b) - a_classes * b_classes
    return _report("basic_bound", GE, lhs, rhs, hypotheses)


def bound_four(a: IntSet, n: int, m: int) -> BoundReport:
    """|n*a + m*a| >= 4|a| - 4 for coprime integers 2 <= n < m.

    n and m are coerced with ``operator.index``, as in bound_basic.
    """
    n, m = operator.index(n), operator.index(m)
    return _bound_four(a, n, m, lambda: _pair_size(n, a, m, a))


def _bound_four(a, n, m, size):
    hypotheses = {
        "n_ge_2": n >= 2,
        "n_lt_m": n < m,
        "coprime": math.gcd(n, m) == 1,
    }
    if not all(hypotheses.values()):
        return _report("four_bound", GE, None, None, hypotheses)
    lhs = size()
    return _report("four_bound", GE, lhs, 4 * len(a) - 4, hypotheses)


def bound_full_semifull(a: IntSet, m: int) -> BoundReport:
    """Fullness-gated bound on |2*a + m*a| for odd m >= 3.

    The full case (m+2)|a| - 2m takes precedence; the semi-full case uses
    (m+2)|a| - 2m*c_m(a). Neither predicate holding means not-applicable.
    m is coerced with ``operator.index``, as in bound_basic.
    """
    m = operator.index(m)
    return _bound_full_semifull(a, m, lambda: _pair_size(2, a, m, a))


def _bound_full_semifull(a, m, size):
    if m < 3 or m % 2 == 0:
        raise InvalidModulusError(f"modulus must be an odd integer >= 3, got {m!r}")
    full = is_full(a, m)
    semi = is_semi_full(a, m)
    hypotheses = {"odd_modulus": True, "m_full": full, "m_semi_full": semi}
    lhs = size()
    if full:
        rhs = (m + 2) * len(a) - 2 * m
        case = "full"
    elif semi:
        rhs = (m + 2) * len(a) - 2 * m * component_count(a, m)
        case = "semi_full"
    else:
        return _report("full_semifull_bound", GE, lhs, None, hypotheses)
    return _report(
        "full_semifull_bound", GE, lhs, rhs, hypotheses,
        detail={"case": case}, met=True,
    )


def _marginal_size(c, a, k):
    """|M_C| = |marginal_set(c, a, k)| for a class c that decompose(a, k) gave.

    A merge-route class goes to marginal_set, called from this module. On
    the bitmask route nothing is read out: with C = m + k*Q, M_C is the
    image of (A+2Q) minus (C+2Q) (see marginal_set), and C+2Q is a subset
    of A+2Q, so |M_C| is the difference of their masks' popcounts. There
    marginal_set's range checks run first, so a refusal is its error, and
    its scan that checks c is a class of ``a`` is skipped.
    """
    if not _bitmask_route(c, a, k):
        return len(marginal_set(c, a, k))
    _marginal_guard(c, a, k)
    big, small = _reduced_masks(c, a, k)
    return big.bit_count() - small.bit_count()


def bound_marginal_total(a: IntSet, k: int) -> BoundReport:
    """Total marginal mass over the modulus-k components versus (c-1)c.

    The mass is computed for any integer modulus k >= 2 (a non-integer k
    or k < 2 raises InvalidModulusError). The statement needs an odd
    prime k, so for any other k the verdict is not-applicable and
    ``detail["relaxed"]`` is true.
    """
    return _bound_marginal_total(a, k, {})


# ``sizes``, an empty dict, receives |M_C| keyed by C's residue as each one
# is summed, so check_suite can hand them to the faithful checks; if a
# marginal set raises, it holds the residues summed before it.
def _bound_marginal_total(a, k, sizes):
    for r, c in decompose(a, k).items():
        sizes[r] = _marginal_size(c, a, k)
    c = len(sizes)
    odd_prime = is_odd_prime(k)
    return _report(
        "marginal_total_bound", GE, sum(sizes.values()), (c - 1) * c,
        {"odd_prime_k": odd_prime},
        detail={"component_count": c, "relaxed": not odd_prime},
    )


def check_faithful(a: IntSet, k: int, c_residue: int) -> BoundReport:
    """Marginal-mass guarantees for one selected modulus-k component.

    Eligibility: 0 in a, gcd(a) = 1, k an odd prime, the selected
    component meets fewer than k classes modulo k**2, and at least one
    other component exists. When eligible, |M_C| must cover every other
    component's size; when additionally some other component is at least
    as large as C, or C misses a parity class, |M_C| must cover |C| too.

    The component hypotheses stay False unless the first three hold, so a
    bad k never reaches decompose. Once they hold, a c_residue outside
    [0, k) raises ValueError, since it names no class. A non-integer
    c_residue raises TypeError, and a bool counts as 0 or 1.
    """
    c_residue = operator.index(c_residue)
    hypotheses = _faithful_gates(a, k)
    blocks = {}
    if all(hypotheses.values()):
        if not 0 <= c_residue < k:
            raise ValueError(f"residue must be in [0, {k}), got {c_residue}")
        blocks = decompose(a, k)
    hypotheses.update(_component_hypotheses(blocks, k, c_residue))
    if not all(hypotheses.values()):
        return _report("faithful_component", GE, None, None, hypotheses,
                       detail={"residue": c_residue})
    return _faithful_report(hypotheses, blocks, c_residue,
                            _marginal_size(blocks[c_residue], a, k))


def _faithful_gates(a, k):
    return {
        "odd_prime_k": is_odd_prime(k),
        "zero_in_set": 0 in a,
        "gcd_one": math.gcd(*a.elements) == 1,
    }


def _component_hypotheses(blocks, k, residue):
    """check_faithful's hypotheses on C = blocks[residue], from the
    modulus-k decomposition ``blocks``; all False when C does not exist."""
    c = blocks.get(residue)
    return {
        "component_exists": c is not None,
        "component_not_semi_full": c is not None and component_count(c, k * k) < k,
        "other_component_exists": c is not None and len(blocks) > 1,
    }


def _faithful_report(hypotheses, blocks, residue, lhs):
    """check_faithful's report on an eligible C = blocks[residue], lhs = |M_C|."""
    block = blocks[residue]
    others = sorted(len(b) for r, b in blocks.items() if r != residue)
    cond_size = others[-1] >= len(block)
    cond_parity = component_count(block, 2) < 2
    faithful_required = cond_size or cond_parity
    rhs = max(others[-1], len(block)) if faithful_required else others[-1]
    return _report(
        "faithful_component", GE, lhs, rhs, hypotheses,
        detail={
            "residue": residue,
            "component_size": len(block),
            "other_sizes": others,
            "larger_peer_condition": cond_size,
            "missing_parity_condition": cond_parity,
            "faithful_required": faithful_required,
        },
    )


def _constant_prime(k):
    _require_odd_prime(k)
    if k > MAX_CONSTANT_PRIME:
        raise ArithmeticRangeError(
            f"bound constants for k={k} exceed the signed 64-bit range "
            f"(largest supported odd prime is {MAX_CONSTANT_PRIME})"
        )


def bound_main_small(a: IntSet, k: int) -> BoundReport:
    """|2*a + k*a| >= (k+2)|a| - 4k^(k-1) for any set, k an odd prime <= 13."""
    return _bound_main_small(a, k, lambda: _pair_size(2, a, k, a))


def _bound_main_small(a, k, size):
    _constant_prime(k)
    lhs = size()
    rhs = (k + 2) * len(a) - 4 * k ** (k - 1)
    return _report("main_small_bound", GE, lhs, rhs, {"odd_prime_k": True})


def bound_main_large(a: IntSet, k: int):
    """Large-set pair of verdicts on |2*a + k*a|, k an odd prime <= 13.

    Returns (strict report, general report). The strict one needs 0 in a,
    gcd(a) = 1, |a| > 8k^k and some component meeting fewer than k classes
    modulo k**2; the general one needs |a| > 8k^k only.
    """
    return _bound_main_large(a, k, lambda: _pair_size(2, a, k, a))


def _bound_main_large(a, k, size):
    _constant_prime(k)
    threshold = 8 * k**k
    lhs = size()
    large = len(a) > threshold
    strict_hypotheses = {
        "zero_in_set": 0 in a,
        "gcd_one": math.gcd(*a.elements) == 1,
        "size_gt_8kk": large,
        "not_semi_full": not is_semi_full(a, k),
    }
    strict = _report(
        "main_large_strict", GT, lhs, (k + 2) * len(a), strict_hypotheses,
        detail={"threshold": threshold},
    )
    general = _report(
        "main_large_bound", GE, lhs, (k + 2) * len(a) - k * k - k + 2,
        {"size_gt_8kk": large},
        detail={"threshold": threshold},
    )
    return strict, general


def _cardinality(n):
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"cardinality must be >= 1, got {n}")
    return n


def ap_size(n: int, k: int) -> int:
    """Exact |2*P + k*P| for the length-n progression P = {0..n-1}.

    Returns min(n**2, (k+2)n - 2k) for n >= 2 and 1 for a singleton. For
    n <= k the n**2 sums 2i + kj are distinct (2(i - i') = k(j' - j)
    makes the odd prime k divide i - i', and |i - i'| < k); for n >= k the
    closed form is exact. The two agree at n = k, and
    n**2 - ((k+2)n - 2k) = (n-2)(n-k) shows the minimum picks the right
    one in both ranges. A non-integer n raises TypeError and n < 1
    ValueError.
    """
    _require_odd_prime(k)
    n = _cardinality(n)
    if n == 1:
        return 1
    return min(n * n, (k + 2) * n - 2 * k)


def ap_recompute(n: int, k: int) -> int:
    """Exact |2*P + k*P| for P = {0..n-1}, by direct computation.

    P is held as a range, which the fold reads as it reads a tuple, so a
    fold the backend refuses is refused before anything of size n is
    allocated, with the backend's own error: ArithmeticRangeError when the
    int64 envelope (|k|+2)(n-1) is exceeded, else MergeLimitError when the
    span is above BITSET_SPAN_LIMIT and the n x n merge above
    MERGE_PAIR_LIMIT. A non-integer n raises TypeError and n < 1
    ValueError.
    """
    p = range(_cardinality(n))
    return fold_size(tuple((m, p) for m in _coerce_spec((2, k))))


def check_suite(a: IntSet, k: int):
    """Run every applicable checker on (a, k); returns sorted reports.

    Checkers whose statements require 0 in A and gcd(A) = 1 run on the
    canonical representative (size-invariant), and their reports record
    that. Per-checker errors become not-applicable entries rather than
    aborting the suite: a checker that raises gets one for each statement
    it owns, with the same error. A faithful-component check that raises
    still records its residue and the canonicalized note, so it sorts
    among the other components' records.

    |2A+kA| is folded once, up front, and shared. The basic, four,
    full/semi-full and main-small checkers all fold exactly it; if the
    fold raised, each of them raises the same error where it would have
    folded, so its not-applicable record is unchanged. The large-set
    checker runs on the canonical set, and x -> (x - min A)/g maps 2A+kA
    bijectively onto 2*canon + k*canon, so the sizes agree. It reuses the
    shared size only when the fold on A returned and the canonical set
    passes the fold's int64 envelope check itself (its envelope exceeds
    A's when A has negative elements); when the fold on A raised, it folds
    the canonical set, whose smaller envelope may fit.

    Each component's marginal set is sized once, too, by _marginal_size,
    which counts a bitmask-route |M_C| without reading it out. The
    marginal-total checker runs on A and records |M_C| per residue of A;
    the faithful checks run on the canonical set, canon = (A - min A)/g
    with g the gap gcd, and share canon's decomposition. The same map
    sends 2C+kA and 2C+kC bijectively onto their canonical images, so
    |M_C| is the same on both sides, and when k does not divide g it sends
    the classes of A mod k onto those of canon: canon's class r is A's
    class (min A + g*r) mod k. A faithful check first runs marginal_set's
    range checks on canon's component, so an error record is the one it
    always was, and then reuses A's size of that class. When k divides g
    (A lies in one class) or the marginal-total checker raised before
    reaching that class, it sizes the marginal set on canon.
    """
    _require_odd_prime(k)
    canon = canonicalize(a)
    normalized = canon != a
    reports = []

    def run(statement_ids, fn, **context):
        try:
            reports.extend(fn())
        except DilatesError as err:
            reports.extend(
                _report(s, GE, None, None, {"checker_ran": False},
                        detail={**context, "error": str(err)})
                for s in statement_ids
            )

    try:
        folded, fold_error = _pair_size(2, a, k, a), None
    except DilatesError as err:
        folded, fold_error = None, err

    def size():
        if fold_error is not None:
            raise fold_error
        return folded

    def noted(*canon_reports):
        """The reports of a checker run on canon, noting whether canon != a."""
        note = {"canonicalized": normalized}
        return tuple(replace(r, detail={**r.detail, **note}) for r in canon_reports)

    run(("basic_bound",), lambda: (_bound_basic(a, a, 2, k, size),))
    run(("four_bound",), lambda: (_bound_four(a, 2, k, size),))
    run(("full_semifull_bound",), lambda: (_bound_full_semifull(a, k, size),))
    marginal_sizes = {}
    run(("marginal_total_bound",),
        lambda: (_bound_marginal_total(a, k, marginal_sizes),))
    run(("main_small_bound",), lambda: (_bound_main_small(a, k, size),))

    def canon_size():
        if fold_error is not None:
            return _pair_size(2, canon, k, canon)
        _fold_guard(((2, canon.elements), (k, canon.elements)))
        return folded

    run(("main_large_strict", "main_large_bound"),
        lambda: noted(*_bound_main_large(canon, k, canon_size)))

    gap = a.span // canon.span if canon.span else 0

    def canon_marginal_size(block):
        if gap % k:
            size = marginal_sizes.get((a.min + gap * (block.min % k)) % k)
            if size is not None:
                _marginal_guard(block, canon, k)
                return size
        return _marginal_size(block, canon, k)

    blocks = decompose(canon, k)
    gates = _faithful_gates(canon, k)
    for residue in blocks:
        hypotheses = {**gates, **_component_hypotheses(blocks, k, residue)}
        if all(hypotheses.values()):
            run(("faithful_component",),
                lambda r=residue, h=hypotheses: noted(_faithful_report(
                    h, blocks, r, canon_marginal_size(blocks[r]))),
                residue=residue, canonicalized=normalized)

    reports.sort(key=lambda r: (r.statement_id, r.detail.get("residue", -1)))
    return reports
