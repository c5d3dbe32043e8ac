"""Exhaustive minimization of dilate-sum sizes over canonical sets.

The canonical family for cardinality n and range bound R: subsets of
[0, R] of size n with minimum 0 and element gcd 1 (n = 1 gives just {0}),
optionally keeping only the lexicographically smaller of a set and its
reflection {max - x}. Dilate-sum sizes are invariant under all three
quotients, so minima over the family are minima over every set whose
canonical form fits in [0, R].

Branch and bound is one depth-first walk of the family in ascending
lexicographic order, from the prefix (0,), with one running incumbent:
the smallest value met so far, seeded by the progression {0, ..., n-1},
which belongs to every family. The walk is exact. A prefix with r
elements still to add is cut when value + inc*r exceeds the incumbent,
where inc is the number of distinct nonempty subset sums of the positive
coefficients plus the same count for the magnitudes of the negative
ones (3 for (2, 3), 2 for (-3, 2), 4 for (2, -3, 5)).

Why the cut is admissible. Every prefix P has minimum 0; let m be its
maximum and append x > m. Let S+ be the sum of the positive
coefficients. For each nonempty set T of positive indices, with C_T the
sum of their coefficients, put x at T, m at the other positive indices
and 0 at every negative index: the sum is S+*m + C_T*(x - m). It exceeds
max S(P) = S+*m, and distinct C_T give distinct sums. The same argument
applied to the negative coefficients gives new sums below min S(P). So
each appended element adds at least inc sums, and by induction every
completion of a prefix has value at least value + inc*r. A cut prefix's
completions are therefore strictly above the incumbent, hence strictly
above the final minimum, and can never tie it: no witness is lost.
Leaves are reached in lexicographic order, so the witnesses come out
sorted. The traversal counters are measured against the running
incumbent, so they depend on the visit order; minima and witnesses do
not.

Node values are maintained incrementally, without calling the kernels.
For coefficients c_1..c_j and each subset U of their indices, a prefix P
carries one Python int M_U(P) whose bit p marks the sum
sum_{i in U} c_i*a_i, each a_i drawn from P, at position p = that sum
plus sum_{i in U, c_i < 0} |c_i|*R. Appending x splits each sum by the
set T of indices whose element is x:

    M_U(P + x) = OR over T inside U of M_{U-T}(P) << shift_T(x),
    shift_T(x) = sum_{i in T} (c_i*x if c_i > 0 else |c_i|*(R - x)),

with M_empty = 1. Every element lies in [0, R], so each shift is a sum
of non-negative terms: mixed signs need no re-basing, and no position
exceeds weight*R, where weight is the sum of |c_i|. A node's value is
the popcount of the full mask. A leaf needs only its full mask, and an
internal node needs the other masks only when it survives its prune test.

Because every mask is bounded by weight*R bits whatever the prefix, one
check per configuration replaces a range guard at every node: a
SearchConfig with weight*R above backend.BITSET_SPAN_LIMIT, far below the
signed 64-bit range, is refused when it is built, so a search that
starts never needs a check of its own.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass

from . import backend
from .errors import SearchConfigError
from .intset import DilateSpec, IntSet, _coerce_spec

# A result lists at most this many witnesses; total_witnesses stays exact.
WITNESS_CAP = 64


@dataclass(frozen=True)
class SearchConfig:
    """The canonical family of one exhaustive minimization, checked when built.

    The integers are coerced with ``operator.index``; from cardinality 2
    on, weight*range_max mask bits must fit backend.BITSET_SPAN_LIMIT.
    """

    spec: DilateSpec
    cardinality: int
    range_max: int
    reflection_quotient: bool = True

    def __post_init__(self):
        object.__setattr__(self, "spec", _coerce_spec(self.spec))
        for name in ("cardinality", "range_max"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.cardinality < 1:
            raise SearchConfigError(f"cardinality must be >= 1, got {self.cardinality}")
        if self.range_max < self.cardinality - 1:
            raise SearchConfigError(
                f"range_max {self.range_max} cannot hold {self.cardinality} elements"
            )
        width = self.spec.weight * self.range_max
        if self.cardinality > 1 and width > backend.BITSET_SPAN_LIMIT:
            raise SearchConfigError(
                f"search masks need up to weight*range = {width} bits, above the"
                f" bitset span limit {backend.BITSET_SPAN_LIMIT}"
            )


@dataclass
class SearchResult:
    """Exact minimum with extremal witnesses and traversal counters.

    ``witnesses`` is lexicographically sorted and holds the first
    WITNESS_CAP witnesses; ``total_witnesses`` is always the exact count.
    ``nodes_visited`` counts prefixes whose dilate-sum value was computed,
    leaves and internal nodes alike; ``nodes_pruned`` counts cut subtrees:
    internal nodes whose value plus inc times the elements still to add
    exceeds the running incumbent (see the module docstring).
    """

    minimum: int
    witnesses: list
    total_witnesses: int
    nodes_visited: int
    nodes_pruned: int

    def to_payload(self) -> dict:
        return {
            "minimum": self.minimum,
            "witnesses": [list(w.elements) for w in self.witnesses],
            "total_witnesses": self.total_witnesses,
            "nodes_visited": self.nodes_visited,
            "nodes_pruned": self.nodes_pruned,
        }


def _reflection_kept(elems):
    mx = elems[-1]
    return elems <= tuple(mx - x for x in reversed(elems))


def _mask_plan(coeffs, range_max):
    """Offsets and recurrence terms for the per-subset masks.

    Subsets of coefficient indices are bitmasks t, and shift_T(x) is
    C_T*x + D_T, where C_T is the sum of c_i over T and D_T is R times the
    sum of |c_i| over the negative c_i in T. ``offsets[t]`` is D_T;
    ``terms[u]`` lists (u without t, C_T, D_T) for every nonempty t
    inside u, the terms of the recurrence besides M_U itself. Shifts are
    computed per node rather than tabulated per x, so memory does not grow
    with R.
    """
    size = 1 << len(coeffs)
    lines = []
    for t in range(size):
        members = [c for i, c in enumerate(coeffs) if t >> i & 1]
        lines.append((sum(members), range_max * sum(-c for c in members if c < 0)))
    offsets = [d for _, d in lines]
    terms = [
        tuple((u & ~t, *lines[t]) for t in range(1, size) if u & t == t)
        for u in range(size)
    ]
    return offsets, terms


def _growth(coeffs):
    """inc: the least number of new sums that each appended element adds.

    The count of distinct nonempty subset sums of the positive
    coefficients plus that of the negative coefficients' magnitudes; see
    the module docstring for why every appended element adds that many.
    """

    def nonempty_subset_sums(magnitudes):
        sums = {0}
        for c in magnitudes:
            sums |= {s + c for s in sums}
        return len(sums) - 1

    return nonempty_subset_sums(c for c in coeffs if c > 0) + nonempty_subset_sums(
        -c for c in coeffs if c < 0
    )


def _walk(config, seed, plan, inc):
    n = config.cardinality
    r_max = config.range_max
    reflect = config.reflection_quotient
    offsets, terms = plan
    full = len(terms) - 1
    full_terms = terms[full]
    best = seed
    witnesses = []
    visited = 0
    pruned = 0

    def expand(prefix, masks, nxts):
        """Visit the children prefix + (x,) for x in nxts, in order."""
        nonlocal best, visited, pruned
        inner = len(prefix) < n - 1
        top = r_max - (n - len(prefix) - 2)
        # the least growth of a child's completions
        lead = inc * (n - len(prefix) - 1)
        m_full = masks[full]
        for x in nxts:
            m = m_full
            for v, c, d in full_terms:
                m |= masks[v] << (c * x + d)
            visited += 1
            value = m.bit_count()
            if inner:
                if value + lead > best:
                    pruned += 1
                    continue
                # The child survived, so it needs the masks of every subset.
                child_masks = [1]
                for u in range(1, full):
                    mu = masks[u]
                    for v, c, d in terms[u]:
                        mu |= masks[v] << (c * x + d)
                    child_masks.append(mu)
                child_masks.append(m)
                expand(prefix + (x,), child_masks, range(x + 1, top + 1))
                continue
            if value > best:
                continue
            leaf = prefix + (x,)
            if math.gcd(*leaf) != 1 or (reflect and not _reflection_kept(leaf)):
                continue
            if value < best:
                best = value
                witnesses.clear()
            witnesses.append(leaf)

    # The masks of the prefix (0,): its one sum over U sits at D_U.
    root = [1 << d for d in offsets]
    expand((0,), root, range(1, r_max - n + 3))
    return best, witnesses, visited, pruned


def min_dilate_sum(config: SearchConfig) -> SearchResult:
    """Exact minimum of |dilate_sum(A, spec)| over the canonical family.

    The lookahead cut never changes the minimum or the witness list; see
    the module docstring for why. The config was checked when it was
    built, so the search itself refuses nothing.
    """
    n = config.cardinality
    if n == 1:
        # Every dilate of {0} is {0}, so the only set has one sum.
        return SearchResult(
            minimum=1,
            witnesses=[IntSet._wrap((0,))],
            total_witnesses=1,
            nodes_visited=1,
            nodes_pruned=0,
        )

    # Progression upper bound; a member of every family, so pruning
    # against it can only discard values that exceed the true minimum.
    coeffs = config.spec.coefficients
    seed = backend.fold_size(tuple((c, tuple(range(n))) for c in coeffs))
    best, witnesses, visited, pruned = _walk(
        config, seed, _mask_plan(coeffs, config.range_max), _growth(coeffs)
    )
    if not witnesses:
        raise RuntimeError("canonical family unexpectedly empty")
    return SearchResult(
        minimum=best,
        witnesses=[IntSet._wrap(w) for w in witnesses[:WITNESS_CAP]],
        total_witnesses=len(witnesses),
        nodes_visited=visited,
        nodes_pruned=pruned,
    )


def _probe_configs(spec, cardinalities, range_max):
    """One SearchConfig per distinct cardinality, ascending.

    Every config is built, and so checked, before any search runs.
    SearchConfig refuses a cardinality below 1, above range_max + 1, or
    from 2 on when the search masks are too wide, so the first refused
    member of the ascending sequence is its first member, its first from
    2 on or its first from range_max + 2 on. Those edges, found by
    bisection, are built first, so a huge range is refused without being
    walked.
    """
    if spec.magnitude_gcd != 1:
        raise SearchConfigError(
            f"coefficient magnitudes {spec.coefficients} must have gcd 1"
        )
    if isinstance(cardinalities, range):
        ordered = cardinalities if cardinalities.step > 0 else cardinalities[::-1]
    else:
        ordered = sorted(set(cardinalities))

    def build(n):
        return SearchConfig(spec=spec, cardinality=n, range_max=range_max)

    edges = {0, bisect_left(ordered, 2), bisect_left(ordered, range_max + 2)}
    for i in sorted(edges):
        if i < len(ordered):
            build(ordered[i])
    return [build(n) for n in ordered]


@dataclass(frozen=True)
class ProbeRow:
    """One cardinality's row of a conjecture-probe table."""

    cardinality: int
    minimum: int
    deficiency: int
    witness: IntSet
    total_witnesses: int


def conjecture_probe(spec, cardinalities, range_max: int):
    """Minimum and first-order deficiency for each requested cardinality.

    The deficiency is (sum of |m|)*n - minimum, the gap to the mass bound
    that the coefficients' total magnitude suggests; coefficient
    magnitudes must be coprime overall. Rows come back in ascending n.
    Minima are minima over [0, range_max]; no claim is made that the
    range captures the global minimum. Every cardinality's config is built,
    and so checked, before the first search, edges first, so a refused
    one costs no search time and a huge range is refused at once. Every
    search runs with SearchConfig's default reflection quotient.
    """
    spec = _coerce_spec(spec)
    rows = []
    for config in _probe_configs(spec, cardinalities, range_max):
        result = min_dilate_sum(config)
        n = config.cardinality
        rows.append(
            ProbeRow(
                cardinality=n,
                minimum=result.minimum,
                deficiency=spec.weight * n - result.minimum,
                witness=result.witnesses[0],
                total_witnesses=result.total_witnesses,
            )
        )
    return rows
