"""Structured checkers for the dilate-sum inequalities.

Each checker recomputes the relevant sumset exactly and compares it with
the closed-form bound it is supposed to dominate, returning a BoundReport
with a three-valued verdict: "holds", "fails", or "not-applicable" when
the statement's hypotheses are not met. A checker never reports "holds"
for an out-of-hypothesis input; silently passing those would make the
verifier vacuous.

Statement ids:
  affine_invariance    dilate-sum size is unchanged by x -> u*x + v
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
from dataclasses import dataclass, field, replace

from .backend import _fold_guard, fold_size
from .components import (
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
    HypothesisError,
    InvalidCoefficientError,
    InvalidModulusError,
    VerificationError,
)
from .intset import DilateSpec, IntSet, canonicalize, dilate_sum_size, _coerce_spec

# Largest odd prime whose bound constants 4*k^(k-1) and 8*k^k both stay
# inside int64; the next prime, 17, does not.
MAX_CONSTANT_PRIME = 13

GE = ">="
GT = ">"
EQ = "=="


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality check.

    ``holds`` is None exactly when the hypotheses are not met, in which
    case the verdict is "not-applicable"; slack is lhs - rhs whenever both
    sides exist.
    """

    statement_id: str
    hypotheses_met: bool
    lhs: int | None
    rhs: int | None
    slack: int | None
    holds: bool | None
    relation: str = GE
    hypotheses: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

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

    @classmethod
    def from_record(cls, record: dict) -> "BoundReport":
        met = record["hypotheses_met"]
        return cls(
            statement_id=record["statement_id"],
            hypotheses_met=met,
            lhs=record["lhs"],
            rhs=record["rhs"],
            slack=record["slack"],
            holds=None if not met else record["verdict"] == "holds",
            relation=record["relation"],
            hypotheses=dict(record["hypotheses"]),
            detail=dict(record["detail"]),
        )


def _compare(lhs, rhs, relation):
    if relation == GE:
        return lhs >= rhs
    if relation == GT:
        return lhs > rhs
    return lhs == rhs


def _report(statement_id, relation, lhs, rhs, hypotheses, detail=None, met=None):
    met = all(hypotheses.values()) if met is None else met
    holds = None
    slack = lhs - rhs if (lhs is not None and rhs is not None) else None
    if met:
        holds = _compare(lhs, rhs, relation)
    return BoundReport(
        statement_id=statement_id,
        hypotheses_met=met,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        holds=holds,
        relation=relation,
        hypotheses=hypotheses,
        detail=detail or {},
    )


def _pair_size(n, a: IntSet, m, b: IntSet) -> int:
    return fold_size(((n, a.elements), (m, b.elements)))


def check_affine_invariance(a: IntSet, r: int, s: int, u: int, v: int) -> BoundReport:
    """Verify |r*(a+v) + s*(a+v)| = |r*a + s*a| = |r*(u*a) + s*(u*a)|."""
    for name, c in (("r", r), ("s", s), ("u", u)):
        if c == 0:
            raise InvalidCoefficientError(f"coefficient {name} must be nonzero")
    base = _pair_size(r, a, s, a)
    shifted = IntSet(x + v for x in a)
    scaled = IntSet(u * x for x in a)
    translated_size = _pair_size(r, shifted, s, shifted)
    scaled_size = _pair_size(r, scaled, s, scaled)
    # lhs equals base exactly when both transformed sizes do.
    lhs = translated_size if translated_size != base else scaled_size
    return _report(
        "affine_invariance",
        EQ,
        lhs,
        base,
        {"nonzero_coefficients": True},
        detail={
            "base_size": base,
            "translated_size": translated_size,
            "scaled_size": scaled_size,
            "r": r,
            "s": s,
            "u": u,
            "v": v,
        },
        met=True,
    )


def bound_basic(a: IntSet, b: IntSet, n: int, m: int) -> BoundReport:
    """Component-count lower bound for |n*a + m*b| with coprime n, m."""
    return _bound_basic(a, b, n, m, lambda: _pair_size(n, a, m, b))


# Each _bound_* core takes ``size``, a zero-argument callable giving the
# |n*a + m*b| its public checker would fold, called at the point where the
# checker folds it, so check_suite can share one fold between checkers.
def _bound_basic(a, b, n, m, size):
    hypotheses = {
        "n_ge_2": isinstance(n, int) and n >= 2,
        "m_ge_2": isinstance(m, int) and m >= 2,
        "coprime": isinstance(n, int) and isinstance(m, int) and math.gcd(n, m) == 1,
    }
    if not all(hypotheses.values()):
        return _report("basic_bound", GE, None, None, hypotheses)
    lhs = size()
    rhs = (
        component_count(b, n) * len(a)
        + component_count(a, m) * len(b)
        - component_count(a, m) * component_count(b, n)
    )
    return _report("basic_bound", GE, lhs, rhs, hypotheses)


def bound_four(a: IntSet, n: int, m: int) -> BoundReport:
    """|n*a + m*a| >= 4|a| - 4 for coprime integers 2 <= n < m."""
    return _bound_four(a, n, m, lambda: _pair_size(n, a, m, a))


def _bound_four(a, n, m, size):
    hypotheses = {
        "n_ge_2": isinstance(n, int) and n >= 2,
        "n_lt_m": isinstance(n, int) and isinstance(m, int) and n < m,
        "coprime": isinstance(n, int) and isinstance(m, int) and math.gcd(n, m) == 1,
    }
    if not all(hypotheses.values()):
        return _report("four_bound", GE, None, None, hypotheses)
    lhs = size()
    return _report("four_bound", GE, lhs, 4 * len(a) - 4, hypotheses)


def bound_full_semifull(a: IntSet, m: int) -> BoundReport:
    """Fullness-gated bound on |2*a + m*a| for odd m >= 3.

    The full case (m+2)|a| - 2m takes precedence; the semi-full case uses
    (m+2)|a| - 2m*c_m(a). Neither predicate holding means not-applicable.
    """
    return _bound_full_semifull(a, m, lambda: _pair_size(2, a, m, a))


def _bound_full_semifull(a, m, size):
    if not isinstance(m, int) or m < 3 or m % 2 == 0:
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
        return _report(
            "full_semifull_bound", GE, lhs, None, hypotheses, met=False
        )
    return _report(
        "full_semifull_bound", GE, lhs, rhs, hypotheses,
        detail={"case": case}, met=True,
    )


def bound_marginal_total(a: IntSet, k: int, relax_modulus: bool = False) -> BoundReport:
    """Total marginal mass over the modulus-k components versus (c-1)c.

    ``relax_modulus`` waives the odd-prime requirement for experiments;
    the default enforces it.
    """
    _require_odd_prime(k, relax=relax_modulus)
    d = decompose(a, k)
    total = sum(
        len(marginal_set(c, a, k, relax_modulus=relax_modulus)) for c in d
    )
    c = d.component_count
    hypotheses = {"odd_prime_k": is_odd_prime(k)}
    return _report(
        "marginal_total_bound", GE, total, (c - 1) * c, hypotheses,
        detail={"component_count": c, "relaxed": relax_modulus},
        met=True,
    )


def check_faithful(a: IntSet, k: int, c_residue: int) -> BoundReport:
    """Marginal-mass guarantees for one selected modulus-k component.

    Eligibility: 0 in a, gcd(a) = 1, k an odd prime, the selected
    component meets fewer than k classes modulo k**2, and at least one
    other component exists. When eligible, |M_C| must cover every other
    component's size; when additionally some other component is at least
    as large as C, or C misses a parity class, |M_C| must cover |C| too.
    """
    hypotheses = {
        "odd_prime_k": is_odd_prime(k),
        "zero_in_set": 0 in a,
        "gcd_one": math.gcd(*a.elements) == 1,
    }
    if not all(hypotheses.values()):
        hypotheses.update(
            {"component_exists": False, "component_not_semi_full": False,
             "other_component_exists": False}
        )
        return _report("faithful_component", GE, None, None, hypotheses,
                       detail={"residue": c_residue})
    d = decompose(a, k)
    block = d.blocks.get(c_residue)
    hypotheses["component_exists"] = block is not None
    if block is None:
        hypotheses.update(
            {"component_not_semi_full": False, "other_component_exists": False}
        )
        return _report("faithful_component", GE, None, None, hypotheses,
                       detail={"residue": c_residue})
    others = [b for r, b in d.blocks.items() if r != c_residue]
    hypotheses["component_not_semi_full"] = component_count(block, k * k) < k
    hypotheses["other_component_exists"] = bool(others)
    if not all(hypotheses.values()):
        return _report("faithful_component", GE, None, None, hypotheses,
                       detail={"residue": c_residue})

    marginal = marginal_set(block, a, k)
    lhs = len(marginal)
    rhs = max(len(b) for b in others)
    cond_size = any(len(b) >= len(block) for b in others)
    cond_parity = component_count(block, 2) < 2
    faithful_required = cond_size or cond_parity
    if faithful_required:
        rhs = max(rhs, len(block))
    return _report(
        "faithful_component", GE, lhs, rhs, hypotheses,
        detail={
            "residue": c_residue,
            "component_size": len(block),
            "other_sizes": sorted(len(b) for b in others),
            "larger_peer_condition": cond_size,
            "missing_parity_condition": cond_parity,
            "faithful_required": faithful_required,
        },
        met=True,
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


def ap_exact_size(n: int, k: int, verify: bool = False) -> int:
    """Closed-form |2*P + k*P| for the length-n progression P = {0..n-1}.

    Returns (k+2)n - 2k for n >= 2 and 1 for a singleton. With
    ``verify=True`` the size is also recomputed exactly; a mismatch
    raises VerificationError. The closed form is genuinely exact only
    once n >= k (and trivially at n = 2); verification is what detects
    the shortfall below that.
    """
    _require_odd_prime(k)
    if n < 1:
        raise ValueError(f"cardinality must be >= 1, got {n}")
    formula = 1 if n == 1 else (k + 2) * n - 2 * k
    if verify:
        actual = ap_recompute(n, k)
        if actual != formula:
            raise VerificationError(
                f"progression size mismatch for n={n}, k={k}: "
                f"closed form {formula}, recomputed {actual}"
            )
    return formula


def ap_size(n: int, k: int) -> int:
    """Exact |2*P + k*P| for the length-n progression P = {0..n-1}.

    Returns min(n**2, (k+2)n - 2k) for n >= 2 and 1 for a singleton. For
    n <= k the n**2 sums 2i + kj are distinct (2(i - i') = k(j' - j)
    makes the odd prime k divide i - i', and |i - i'| < k); for n >= k the
    closed form is exact. The two agree at n = k, and
    n**2 - ((k+2)n - 2k) = (n-2)(n-k) shows the minimum picks the right
    one in both ranges.
    """
    _require_odd_prime(k)
    if n < 1:
        raise ValueError(f"cardinality must be >= 1, got {n}")
    if n == 1:
        return 1
    return min(n * n, (k + 2) * n - 2 * k)


def ap_recompute(n: int, k: int) -> int:
    """Exact |2*P + k*P| for P = {0..n-1}, by direct computation."""
    p = IntSet._wrap(tuple(range(n)))
    return dilate_sum_size(p, DilateSpec((2, k)))


def deficiency(a: IntSet, spec) -> int:
    """Gap between the first-order mass bound and the true dilate-sum size.

    Returns (sum of |m|)*|a| - |dilate_sum(a, spec)|; requires the
    coefficient magnitudes to be coprime overall. The value is reported
    as-is and may in principle be any integer.
    """
    spec = _coerce_spec(spec)
    if spec.magnitude_gcd != 1:
        raise HypothesisError(
            f"coefficient magnitudes {spec.coefficients} must have gcd 1"
        )
    return spec.weight * len(a) - dilate_sum_size(a, spec)


def _na_report(statement_id, error):
    return BoundReport(
        statement_id=statement_id,
        hypotheses_met=False,
        lhs=None,
        rhs=None,
        slack=None,
        holds=None,
        hypotheses={"checker_ran": False},
        detail={"error": str(error)},
    )


def _once(compute):
    """A callable returning compute()'s value, computed on the first call.

    A DilatesError raised by that call is raised again by every later one,
    so each caller sees what its own computation would have raised.
    """
    memo = []

    def get():
        if not memo:
            try:
                memo.append((compute(), None))
            except DilatesError as err:
                memo.append((None, err))
        value, err = memo[0]
        if err is not None:
            raise err
        return value

    return get


def check_suite(a: IntSet, k: int):
    """Run every applicable checker on (a, k); returns sorted reports.

    Checkers whose statements require 0 in A and gcd(A) = 1 run on the
    canonical representative (size-invariant), and their reports record
    that. Per-checker errors become not-applicable entries rather than
    aborting the suite.

    |2A+kA| is folded at most once and shared. The basic, four,
    full/semi-full and main-small checkers all fold exactly it; if the
    fold raises, each of them raises the same error where it would have
    folded, so its not-applicable record is unchanged. The large-set
    checker runs on the canonical set, and x -> (x - min A)/g maps 2A+kA
    bijectively onto 2*canon + k*canon, so the sizes agree. It reuses the
    shared size only when the fold on A returned and the canonical set
    passes the fold's int64 envelope check itself (its envelope exceeds
    A's when A has negative elements); when the fold on A raised, it folds
    the canonical set, whose smaller envelope may fit.
    """
    _require_odd_prime(k)
    canon, _ = canonicalize(a)
    normalized = canon != a
    reports = []

    def run(statement_id, fn):
        try:
            out = fn()
        except DilatesError as err:
            reports.append(_na_report(statement_id, err))
            return
        if isinstance(out, tuple):
            reports.extend(out)
        else:
            reports.append(out)

    size = _once(lambda: _pair_size(2, a, k, a))
    run("basic_bound", lambda: _bound_basic(a, a, 2, k, size))
    run("four_bound", lambda: _bound_four(a, 2, k, size))
    run("full_semifull_bound", lambda: _bound_full_semifull(a, k, size))
    run("marginal_total_bound", lambda: bound_marginal_total(a, k))
    run("main_small_bound", lambda: _bound_main_small(a, k, size))

    def canon_size():
        try:
            value = size()
        except DilatesError:
            return _pair_size(2, canon, k, canon)
        _fold_guard(((2, canon.elements), (k, canon.elements)))
        return value

    def large():
        strict, cor = _bound_main_large(canon, k, canon_size)
        note = {"canonicalized": normalized}
        return (
            replace(strict, detail={**strict.detail, **note}),
            replace(cor, detail={**cor.detail, **note}),
        )

    run("main_large_strict", large)

    for residue, block in decompose(canon, k).blocks.items():
        if component_count(block, k * k) >= k:
            continue
        if component_count(canon, k) < 2:
            continue

        def faithful(r=residue):
            rep = check_faithful(canon, k, r)
            return replace(rep, detail={**rep.detail, "canonicalized": normalized})

        run("faithful_component", faithful)

    reports.sort(key=lambda r: (r.statement_id, r.detail.get("residue", -1)))
    return reports
