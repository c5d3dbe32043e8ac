"""Exhaustive minimization of dilate-sum sizes over canonical sets.

The canonical family for cardinality n and range bound R: subsets of
[0, R] of size n with minimum 0 and element gcd 1 (n = 1 gives just {0}),
optionally keeping only the lexicographically smaller of a set and its
reflection {max - x}. Dilate-sum sizes are invariant under all three
quotients, so minima over the family are minima over every set whose
canonical form fits in [0, R].

Branch and bound is one depth-first walk of the family in ascending
lexicographic order, from the prefix (0,), with one running incumbent:
the smallest value met so far, seeded by the least fold over the
two-class sets, the first n elements of {0, c} + m*N for m = 2 or a
coefficient magnitude and 1 <= c < m, kept when they fit in [0, R] with
gcd 1 (see _incumbent). The progression {0, ..., n-1} is the case m = 2,
c = 1; unions of progressions with difference k attain the known bounds
on |A + k*A|. The seed is admissible: each kept candidate has minimum 0,
gcd 1 and n elements in [0, R], so it or its reflection, which has the
same value, is a member of the family, and the incumbent is never below
the minimum. The walk is exact. A child prefix with r elements still to
add is cut when value + charge[r] exceeds the incumbent, where

    charge[r] = (f+(r+1) - 1) + (f-(r+1) - 1).

f+ and f- are lower-bound rows for the spec of the positive coefficients
and for the spec of the negative coefficients' magnitudes, each divided
by its gcd: f(j) <= |S(B)| for every j-set B that fits in [0, R] after a
translation. A row starts f(1) = 1 and f(2) = |S({0, 1})|, takes the
exact minimum at range R of a cardinality wherever one is known, and is
extended elsewhere by f(j) = max over a + b - 1 = j of f(a) + f(b) - 1.
A side with no coefficients has f = 1 and charges nothing. With no exact
rows, f(j) - 1 = (f(2) - 1)*(j - 1) on each side, so charge[r] = inc*r,
where inc is the number of distinct nonempty subset sums of the positive
coefficients plus the same count for the magnitudes of the negative ones
(3 for (2, 3), 2 for (-3, 2), 4 for (2, -3, 5)).

Only conjecture_probe knows exact minima: the rows it has already
finished, at its own range. It passes each row's search to
min_dilate_sum as a private SearchConfig subclass that carries them, so
every search, probe rows included, runs through min_dilate_sum. They are
minima of the whole spec, so they
fill the row of a one-sign spec and nothing else. A standalone search
computes no exact rows and charges inc*r: computing the small rows first
costs more nodes than they save (computing every row up to 4, or up to 5,
raised 24 searches with negative or three-term coefficients from 366,064
nodes to 394,118 or 637,220). A mixed-sign probe charges inc*r too,
because its rows are minima of the mixed spec, not of either side.

Why the charge cut is admissible. Four facts:

- The tail split. Let P be a child prefix, with minimum 0 and maximum
  x, let Y = {y_1 < ... < y_r} be the elements still to come, and let
  B = {x} | Y. With S+ the sum of the positive coefficients and S- the
  sum of the negative magnitudes, max S(P) = S+*x and min S(P) = -S-*x.
  Put 0 at every negative index and draw the positive indices from B:
  these sums are the positive side's sumset of B, whose least element
  is S+*x = max S(P) and whose others all lie above it. Put 0 at every
  positive index and draw the negative indices from B: the negative
  side's sumset of B, negated, whose greatest element is -S-*x =
  min S(P) and whose others all lie below it. So each meets S(P) in one
  point, and |S(P | Y)| >= |S(P)| + (|S+(B)| - 1) + (|S-(B)| - 1).
- Invariance. |S+(B)| does not change under translation, scaling or
  reflection of B, nor when the coefficients are divided by their gcd.
  B - x lies in [0, R - x], so its canonical form is in the family of
  cardinality r + 1 at range R, and |S+(B)| is at least that family's
  minimum for the reduced side; the same holds for S-.
- Super-additivity. Split a set D of a + b - 1 elements at a shared
  element z: L holds its a smallest elements and U its b largest, so
  max L = min U = z. For a one-sign spec with sum S, S(L) has maximum
  S*z and S(U) has minimum S*z, so |S(D)| >= |S(L)| + |S(U)| - 1, and
  both halves fit in [0, R] after a translation. Hence the minima at
  range R satisfy min(a + b - 1) >= min(a) + min(b) - 1, so the extended
  row never exceeds a true minimum. With f(1) = 1 and f(2) equal to the
  minimum at cardinality 2, every f(j) bounds the minimum at j.
- Strictness. Every completion of a cut prefix has value at least
  value + charge[r], which is strictly above the incumbent, hence
  strictly above the final minimum, so it can never tie it: no witness
  is lost.

The reflection cut. With the reflection quotient on and n >= 3, a leaf
L = (0, a_1, ..., a_{n-2}, M) is kept only if L is at most its
reflection, whose second element is M - a_{n-2}. So every leaf with
M < a_{n-2} + a_1 is dropped, and the walk never generates a prefix all
of whose completions are such leaves:

- a root child a_1 above (R - n + 3) // 2, since every completion has
  a_{n-2} >= a_1 + n - 3 and so needs M >= 2*a_1 + n - 3 > R;
- an element at position i, 2 <= i <= n - 2, above the usual top
  R - (n - 1 - i) less a_1 - 1, since it forces a_{n-2} > R - a_1;
- a leaf with M below a_{n-2} + a_1.

Each bound is attained by a completion with consecutive elements up to
a_{n-2} and M = a_{n-2} + a_1, so the walk skips exactly the prefixes
with no leaf that the quotient could keep. The ties M = a_{n-2} + a_1
are still decided by comparing the leaf with its reflection. Only a
kept leaf changes the incumbent, and the walk still meets every kept
leaf in the same order, so the incumbent has the same value at every
node that is still visited. Minima, witnesses and the charge cut's
decisions at those nodes do not change; the skipped prefixes are
neither visited nor counted. With n <= 2 or the quotient off, nothing
is skipped.

The monotone floor. For a one-sign spec of two or more terms, let
c_b >= c_s be the two largest coefficient magnitudes and S the sum of all
of them; negating every coefficient negates every sum and changes no
size, so take them positive. Let P be a prefix with maximum a and value
s, whose loop offers children P + (x,) with x > a. For each p in P, the
sum with x at c_b's index, p at c_s's and a at every other index is
c_b*x + c_s*p + (S - c_b - c_s)*a: distinct for distinct p, below S*x,
and above max S(P) = S*a exactly when c_s*p > (c_b + c_s)*a - c_b*x.
S*x is one more sum above S*a. So P + (x,) has at least

    L(x) = 1 + #{p in P : c_s*p > (c_b + c_s)*a - c_b*x}

sums in (S*a, S*x], none of them in S(P), and its value is at least
s + L(x). With lead the charge of the child's elements still to add,
every completion of the child has value at least s + L(x) + lead, and L
never falls as x grows. Let slack = best - s - lead, for the incumbent
at the start of the loop. L(x) > slack holds from the first x at which
prefix[-slack], the slack-th largest element of P, enters the count:
x = ((c_b + c_s)*a - c_s*prefix[-slack]) // c_b + 1. The loop stops
there (see _floor_cut): with no child when slack <= 0, and with every
child when slack > len(P), since L(x) <= len(P) + 1. The incumbent only
falls, so each child from the stop on has every completion strictly
above the incumbent when it would be reached, and it would have been cut
or rejected; none can tie the final minimum. Minima, witnesses,
total_witnesses and touches_range do not change; the skipped children
are neither visited nor counted as pruned. A mixed-sign spec has no
floor: a second argument, below min S(P), would be needed for its
negative side, and none is made, so its loops run in full. The
one-sign count does not carry over: for (1, -2), P = (0, 4, 5, 6)
gains 3 sums from x = 8, where L(8) = 4. A single
coefficient gives L(x) = 1 at every x and is left out too.

Leaves are reached in lexicographic order, so the witnesses come out
sorted. The traversal counters are measured against the running
incumbent and the charge, so they depend on the visit order and on which
exact rows were known; minima and witnesses do not.

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

# The walk keeps at most this many witnesses, the first in lexicographic
# order; it counts every one, so total_witnesses stays exact.
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
    internal nodes whose value plus the charge of the elements still to
    add exceeds the running incumbent (see the module docstring).
    Prefixes skipped by the reflection cut, whose every leaf the
    reflection quotient drops, and children skipped by the monotone
    floor of a one-sign spec, whose every completion is above the
    incumbent, are neither visited nor counted as pruned.
    ``touches_range`` is True when some witness, listed or not, has
    maximum range_max; it is not part of the payload.
    """

    minimum: int
    witnesses: list
    total_witnesses: int
    nodes_visited: int
    nodes_pruned: int
    touches_range: bool

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


def _lower_row(magnitudes, size, exact):
    """f(0..size), where f(j) bounds |S(B)| below for every j-set B in [0, R].

    S is the one-sign spec of the given magnitudes (its gcd divided out,
    which leaves every sumset size alone); f(0) is unused. f(1) = 1 and
    f(2) = |S({0, 1})|. From 3 on, f(j) is ``exact[j]``, the minimum at
    range R, when known, and otherwise max over a + b - 1 = j of
    f(a) + f(b) - 1, the super-additive extension (see the module
    docstring). Without exact rows f(j) = 1 + (f(2) - 1)*(j - 1).
    """
    sums = {0}
    for c in magnitudes:
        sums |= {s + c for s in sums}
    row = [0, 1, len(sums)]
    for j in range(3, size + 1):
        if j in exact:
            row.append(exact[j])
        else:
            row.append(max(row[a] + row[j + 1 - a] - 1 for a in range(2, j)))
    return row[: size + 1]


def _charges(coeffs, n, exact):
    """charge[r]: the least growth of a child prefix with r elements to add.

    charge[r] = (f+(r+1) - 1) + (f-(r+1) - 1), with f+ the lower row of
    the positive coefficients and f- that of the negative coefficients'
    magnitudes (see _lower_row). ``exact`` maps cardinalities to minima of
    the whole spec at the search's range; they bound the side that holds
    every coefficient, so they count only for a one-sign spec.
    """
    rows = [
        _lower_row(side, n - 1, exact if len(side) == len(coeffs) else {})
        for side in ([c for c in coeffs if c > 0], [-c for c in coeffs if c < 0])
    ]
    return [p + q - 2 for p, q in zip(rows[0][1:], rows[1][1:])]


def _floor_terms(coeffs):
    """(c_b, c_s), the two largest coefficient magnitudes, for a one-sign
    spec of two or more terms; None for any other spec, which has no
    monotone floor (see the module docstring)."""
    if len(coeffs) < 2 or min(coeffs) < 0 < max(coeffs):
        return None
    c_s, c_b = sorted(abs(c) for c in coeffs)[-2:]
    return c_b, c_s


def _floor_cut(prefix, slack, nxts, floor):
    """The leading run of the range ``nxts`` that the monotone floor keeps:
    the children x with L(x) <= slack, for slack at most len(prefix) and
    ``floor`` = (c_b, c_s) from _floor_terms (see the module docstring).
    L(x) >= 1, so slack <= 0 keeps no child."""
    if slack <= 0:
        return range(0)
    c_b, c_s = floor
    stop = ((c_b + c_s) * prefix[-1] - c_s * prefix[-slack]) // c_b + 1
    return range(nxts.start, stop) if stop < nxts.stop else nxts


def _walk(config, seed, plan, charge, floor):
    n = config.cardinality
    r_max = config.range_max
    reflect = config.reflection_quotient
    offsets, terms = plan
    full = len(terms) - 1
    full_terms = terms[full]
    best = seed
    witnesses = []
    total = 0
    touches = False
    visited = 0
    pruned = 0

    def expand(prefix, value, masks, nxts):
        """Visit the children prefix + (x,) for x in nxts, in order; value
        is the prefix's own."""
        nonlocal best, total, touches, visited, pruned
        # the least growth of a child's completions
        lead = charge[n - len(prefix) - 1]
        if floor:
            # The monotone floor, from the incumbent at the start of the loop;
            # L(x) <= len(prefix) + 1, so a larger slack keeps every child.
            slack = best - value - lead
            if slack <= len(prefix):
                nxts = _floor_cut(prefix, slack, nxts, floor)
        inner = len(prefix) < n - 1
        top = r_max - (n - len(prefix) - 2)
        # True when the grandchildren prefix + (x, y) are leaves.
        leaves_next = len(prefix) == n - 2
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
                child = prefix + (x,)
                # The reflection cut: a leaf is dropped unless M >= a_{n-2} + a_1.
                cut = child[1] - 1 if reflect else 0
                if leaves_next:
                    nxt = range(x + 1 + cut, r_max + 1)
                else:
                    nxt = range(x + 1, top + 1 - cut)
                expand(child, value, child_masks, nxt)
                continue
            if value > best:
                continue
            leaf = prefix + (x,)
            if math.gcd(*leaf) != 1 or (reflect and not _reflection_kept(leaf)):
                continue
            if value < best:
                best = value
                witnesses.clear()
                total = 0
                touches = False
            total += 1
            if x == r_max:
                touches = True
            if len(witnesses) < WITNESS_CAP:
                witnesses.append(leaf)

    # The masks of the prefix (0,): its one sum over U sits at D_U.
    root = [1 << d for d in offsets]
    # With the reflection cut, a_1 <= (R - n + 3) // 2 (see the module docstring).
    top = (r_max - n + 3) // 2 if reflect and n > 2 else r_max - n + 2
    # The prefix (0,) has one sum.
    expand((0,), 1, root, range(1, top + 1))
    return best, witnesses, total, touches, visited, pruned


def _incumbent(coeffs, n, range_max):
    """The least fold size over the two-class sets of the family, n >= 2.

    A two-class set is the first n elements of {0, c} + m*N, element i
    being (i // 2)*m + (i % 2)*c, for m in {2} and every coefficient
    magnitude from 2 on, and 1 <= c < m; it is kept when its last element
    is at most range_max and its gcd is 1. m = 2, c = 1 is the progression
    {0, ..., n-1}, which always fits. From n = 3 on, element 2 is m, so a
    modulus above range_max is skipped; c never exceeds range_max. A
    rejected candidate costs no fold.
    """
    moduli = {2} | {abs(k) for k in coeffs if abs(k) >= 2}
    candidates = (
        tuple((i // 2) * m + (i % 2) * c for i in range(n))
        for m in moduli
        if n < 3 or m <= range_max
        for c in range(1, min(m - 1, range_max) + 1)
    )
    return min(
        backend.fold_size(tuple((k, elems) for k in coeffs))
        for elems in candidates
        if elems[-1] <= range_max and math.gcd(*elems) == 1
    )


class _ProbeRowConfig(SearchConfig):
    """A probe row's family, with the minima of the rows the probe has
    already finished: cardinality -> minimum of spec at range_max.

    A plain subclass: the dataclass decorator would add about 1 ms to
    every import of the package."""

    def __init__(self, spec, cardinality, range_max, finished):
        super().__init__(spec, cardinality, range_max)
        object.__setattr__(self, "finished", finished)


def min_dilate_sum(config: SearchConfig) -> SearchResult:
    """Exact minimum of |dilate_sum(A, spec)| over the canonical family.

    The walk cuts a prefix by the charge of the elements still to add:
    inc times their number, or for a one-sign conjecture_probe row, the
    charge built from the rows the probe has finished. For a one-sign
    spec, each loop over a prefix's children also stops at the monotone
    floor. Neither changes the minimum or the witness list (see the
    module docstring).
    The config was checked when it was built, so the search itself
    refuses nothing.
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
            touches_range=config.range_max == 0,
        )

    coeffs = config.spec.coefficients
    seed = _incumbent(coeffs, n, config.range_max)
    exact = config.finished if isinstance(config, _ProbeRowConfig) else {}
    best, witnesses, total, touches, visited, pruned = _walk(
        config,
        seed,
        _mask_plan(coeffs, config.range_max),
        _charges(coeffs, n, exact),
        _floor_terms(coeffs),
    )
    if not witnesses:
        raise RuntimeError("canonical family unexpectedly empty")
    return SearchResult(
        minimum=best,
        witnesses=[IntSet._wrap(w) for w in witnesses],
        total_witnesses=total,
        nodes_visited=visited,
        nodes_pruned=pruned,
        touches_range=touches,
    )


def _probe_cardinalities(spec, cardinalities, range_max):
    """The distinct cardinalities ascending, each coerced with
    operator.index, after checking that SearchConfig accepts them all.

    SearchConfig refuses a cardinality below 1, above range_max + 1, or
    from 2 on when the search masks are too wide, so the first refused
    member of the ascending sequence is its first member, its first from
    2 on or its first from range_max + 2 on. Building the configs of those
    edges, found by bisection, checks every member, so a huge range is
    refused without being walked.
    """
    if spec.magnitude_gcd != 1:
        raise SearchConfigError(
            f"coefficient magnitudes {spec.coefficients} must have gcd 1"
        )
    if isinstance(cardinalities, range):
        ordered = cardinalities if cardinalities.step > 0 else cardinalities[::-1]
    else:
        ordered = sorted({operator.index(n) for n in cardinalities})
    for i in sorted({0, bisect_left(ordered, 2), bisect_left(ordered, range_max + 2)}):
        if i < len(ordered):
            SearchConfig(spec=spec, cardinality=ordered[i], range_max=range_max)
    return ordered


@dataclass(frozen=True)
class ProbeRow:
    """One cardinality's row of a conjecture-probe table: ``witness`` is its
    first witness, and ``touches_range`` is as in SearchResult."""

    cardinality: int
    minimum: int
    deficiency: int
    witness: IntSet
    total_witnesses: int
    touches_range: bool


def conjecture_probe(spec, cardinalities, range_max: int):
    """Minimum and first-order deficiency for each requested cardinality.

    The deficiency is (sum of |m|)*n - minimum, the gap to the mass bound
    that the coefficients' total magnitude suggests; coefficient
    magnitudes must be coprime overall. Rows come back in ascending n.
    Minima are minima over [0, range_max]; no claim is made that the
    range captures the global minimum. Every cardinality is checked before
    the first search, so a refused one costs no search time and a huge
    range is refused at once. Every search runs with SearchConfig's
    default reflection quotient.
    """
    spec = _coerce_spec(spec)
    rows = []
    minima = {}
    for n in _probe_cardinalities(spec, cardinalities, range_max):
        result = min_dilate_sum(_ProbeRowConfig(spec, n, range_max, dict(minima)))
        minima[n] = result.minimum
        rows.append(
            ProbeRow(
                cardinality=n,
                minimum=result.minimum,
                deficiency=spec.weight * n - result.minimum,
                witness=result.witnesses[0],
                total_witnesses=result.total_witnesses,
                touches_range=result.touches_range,
            )
        )
    return rows
