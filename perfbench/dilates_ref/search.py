"""Exhaustive minimization of dilate-sum sizes over canonical sets.

The canonical family for cardinality n and range bound R: subsets of
[0, R] of size n with minimum 0 and element gcd 1 (n = 1 gives just {0}),
optionally keeping only the lexicographically smaller of a set and its
reflection {max - x}. Dilate-sum sizes are invariant under all three
quotients, so minima over the family are minima over every set whose
canonical form fits in [0, R].

Branch and bound runs one independent task per (0, second-element)
prefix, each with its own incumbent seeded by the progression value.
No state crosses tasks, so the full SearchResult, counters included, is
identical for every parallel width. Pruning cuts a partial set only when
its value already reaches the incumbent; appending an element above the
current maximum strictly grows the dilate sum, so completions of such a
partial can never tie a future minimum and no witness is ever lost.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import backend
from .errors import SearchConfigError
from .intset import DilateSpec, IntSet, _coerce_spec


@dataclass(frozen=True)
class SearchConfig:
    """Parameters for one exhaustive minimization run."""

    spec: DilateSpec
    cardinality: int
    range_max: int
    reflection_quotient: bool = True
    pruning: bool = True
    parallel_width: int = 1
    witness_cap: int = 64
    component_prune: bool = False

    def __post_init__(self):
        object.__setattr__(self, "spec", _coerce_spec(self.spec))
        if self.cardinality < 1:
            raise SearchConfigError(f"cardinality must be >= 1, got {self.cardinality}")
        if self.range_max < self.cardinality - 1:
            raise SearchConfigError(
                f"range_max {self.range_max} cannot hold {self.cardinality} elements"
            )
        if self.parallel_width < 1:
            raise SearchConfigError(
                f"parallel_width must be >= 1, got {self.parallel_width}"
            )
        if self.witness_cap < 1:
            raise SearchConfigError(f"witness_cap must be >= 1, got {self.witness_cap}")


@dataclass
class SearchResult:
    """Exact minimum with extremal witnesses and traversal counters.

    ``witnesses`` is lexicographically sorted and capped at the config's
    witness_cap; ``total_witnesses`` is always the exact count.
    ``nodes_visited`` counts prefixes whose dilate-sum value was computed
    (all leaves, plus internal nodes when pruning is on); ``nodes_pruned``
    counts cut subtrees.
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

    @classmethod
    def from_payload(cls, payload: dict) -> "SearchResult":
        return cls(
            minimum=payload["minimum"],
            witnesses=[IntSet(w) for w in payload["witnesses"]],
            total_witnesses=payload["total_witnesses"],
            nodes_visited=payload["nodes_visited"],
            nodes_pruned=payload["nodes_pruned"],
        )


def _reflection_kept(elems):
    mx = elems[-1]
    return elems <= tuple(mx - x for x in reversed(elems))


def enumerate_canonical(cardinality: int, range_max: int, reflection_quotient: bool = True):
    """Yield the canonical sets of the family in ascending lexicographic order."""
    if cardinality < 1:
        raise SearchConfigError(f"cardinality must be >= 1, got {cardinality}")
    if range_max < cardinality - 1:
        raise SearchConfigError(
            f"range_max {range_max} cannot hold {cardinality} elements"
        )
    if cardinality == 1:
        yield IntSet._wrap((0,))
        return

    def rec(prefix, g):
        if len(prefix) == cardinality:
            if g == 1 and (not reflection_quotient or _reflection_kept(prefix)):
                yield IntSet._wrap(prefix)
            return
        top = range_max - (cardinality - len(prefix) - 1)
        for nxt in range(prefix[-1] + 1, top + 1):
            yield from rec(prefix + (nxt,), math.gcd(g, nxt))

    yield from rec((0,), 0)


def _residue_bound(elems, n_coeff, m_coeff, target_size):
    """Component-count lower bound on the final two-dilate value.

    Component counts only grow under supersets and the bound is monotone
    in them, so partial counts give a valid bound for any completion of
    size target_size.
    """
    r = len({x % m_coeff for x in elems})
    s = len({x % n_coeff for x in elems})
    return s * target_size + r * target_size - r * s


def _run_task(second, config, seed):
    coeffs = config.spec.coefficients
    n = config.cardinality
    r_max = config.range_max
    reflect = config.reflection_quotient
    pruning = config.pruning
    pair = None
    if (
        config.component_prune
        and len(coeffs) == 2
        and coeffs[0] >= 2
        and math.gcd(coeffs[0], coeffs[1]) == 1
    ):
        pair = coeffs

    best = seed
    witnesses = []
    visited = 0
    pruned = 0

    def value(elems):
        return backend.fold_size(tuple((c, elems) for c in coeffs))

    def rec(prefix, g):
        nonlocal best, visited, pruned
        if len(prefix) == n:
            visited += 1
            v = value(prefix)
            if g == 1 and (not reflect or _reflection_kept(prefix)):
                if v < best:
                    best = v
                    witnesses.clear()
                    witnesses.append(prefix)
                elif v == best:
                    witnesses.append(prefix)
            return
        if pruning:
            visited += 1
            if value(prefix) >= best:
                pruned += 1
                return
            if pair is not None and _residue_bound(prefix, pair[0], pair[1], n) > best:
                pruned += 1
                return
        top = r_max - (n - len(prefix) - 1)
        for nxt in range(prefix[-1] + 1, top + 1):
            rec(prefix + (nxt,), math.gcd(g, nxt))

    rec((0, second), second)
    return best, witnesses, visited, pruned


def min_dilate_sum(config: SearchConfig) -> SearchResult:
    """Exact minimum of |dilate_sum(A, spec)| over the canonical family.

    Identical minimum and witness list with pruning on or off and for any
    parallel width; see the module docstring for why.
    """
    coeffs = config.spec.coefficients
    n = config.cardinality
    if n == 1:
        singleton = IntSet._wrap((0,))
        minimum = backend.fold_size(tuple((c, (0,)) for c in coeffs))
        return SearchResult(
            minimum=minimum,
            witnesses=[singleton],
            total_witnesses=1,
            nodes_visited=1,
            nodes_pruned=0,
        )

    # Progression upper bound; a member of every family, so pruning
    # against it can only discard values that exceed the true minimum.
    seed = backend.fold_size(tuple((c, tuple(range(n))) for c in coeffs))
    seconds = range(1, config.range_max - (n - 2) + 1)

    if config.parallel_width == 1:
        outcomes = [_run_task(s, config, seed) for s in seconds]
    else:
        with ThreadPoolExecutor(max_workers=config.parallel_width) as pool:
            outcomes = list(pool.map(lambda s: _run_task(s, config, seed), seconds))

    finds = [(best, wits) for best, wits, _, _ in outcomes if wits]
    if not finds:
        raise RuntimeError("canonical family unexpectedly empty")
    minimum = min(best for best, _ in finds)
    ordered = []
    for best, wits in finds:
        if best == minimum:
            ordered.extend(wits)
    return SearchResult(
        minimum=minimum,
        witnesses=[IntSet._wrap(w) for w in ordered[: config.witness_cap]],
        total_witnesses=len(ordered),
        nodes_visited=sum(v for _, _, v, _ in outcomes),
        nodes_pruned=sum(p for _, _, _, p in outcomes),
    )


@dataclass(frozen=True)
class ProbeRow:
    """One cardinality's row of a conjecture-probe table."""

    cardinality: int
    minimum: int
    deficiency: int
    witness: IntSet
    total_witnesses: int


def conjecture_probe(spec, cardinalities, range_max: int, **config_options):
    """Minimum and first-order deficiency for each requested cardinality.

    The deficiency is (sum of |m|)*n - minimum, the gap to the mass bound
    that the coefficients' total magnitude suggests; coefficient
    magnitudes must be coprime overall. Rows come back in ascending n.
    Minima are minima over [0, range_max]; no claim is made that the
    range captures the global minimum.
    """
    spec = _coerce_spec(spec)
    if spec.magnitude_gcd != 1:
        raise SearchConfigError(
            f"coefficient magnitudes {spec.coefficients} must have gcd 1"
        )
    rows = []
    for n in sorted(set(cardinalities)):
        if n > range_max + 1:
            raise SearchConfigError(
                f"cardinality {n} cannot fit in [0, {range_max}]"
            )
        result = min_dilate_sum(
            SearchConfig(spec=spec, cardinality=n, range_max=range_max, **config_options)
        )
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
