"""Congruence-class structure of integer sets.

A modulus-n component of A is the (nonempty) intersection of A with one
residue class modulo n. This module builds component decompositions,
decides the two fullness predicates, computes marginal sets of components
under the 2*C + k*A sum, and computes translation stabilizers of residue
sets.

Residues are always normalized to [0, n), including for negative
elements, so decompositions never disagree about class labels.
"""

from dataclasses import dataclass

from .errors import ArithmeticRangeError, InvalidComponentError, InvalidModulusError
from .intset import IntSet, dilate, minkowski_sum
from .backend import INT64_MAX


def is_odd_prime(k) -> bool:
    """Trial-division primality, restricted to odd primes (so 2 fails)."""
    if k < 3 or k % 2 == 0:
        return False
    d = 3
    while d * d <= k:
        if k % d == 0:
            return False
        d += 2
    return True


def _require_modulus(n):
    if not isinstance(n, int) or n < 2:
        raise InvalidModulusError(f"modulus must be an integer >= 2, got {n!r}")


def _require_odd_prime(k, relax=False):
    if relax:
        _require_modulus(k)
        return
    if not isinstance(k, int) or not is_odd_prime(k):
        raise InvalidModulusError(f"k must be an odd prime, got {k!r}")


@dataclass(frozen=True)
class Decomposition:
    """Partition of a set into its components modulo ``modulus``."""

    modulus: int
    blocks: dict  # residue -> IntSet, ascending residue order

    @property
    def component_count(self):
        return len(self.blocks)

    def residues(self):
        return tuple(self.blocks)

    def block(self, residue) -> IntSet:
        return self.blocks[residue]

    def __iter__(self):
        return iter(self.blocks.values())


def decompose(a: IntSet, n: int) -> Decomposition:
    """Split ``a`` into its components modulo n (n >= 2)."""
    _require_modulus(n)
    buckets = {}
    for x in a:
        buckets.setdefault(x % n, []).append(x)
    blocks = {r: IntSet._wrap(tuple(buckets[r])) for r in sorted(buckets)}
    assert sum(len(b) for b in blocks.values()) == len(a)
    assert all(x % n == r for r, b in blocks.items() for x in b)
    return Decomposition(modulus=n, blocks=blocks)


def component_count(a: IntSet, n: int) -> int:
    """Number of nonempty components of ``a`` modulo n."""
    _require_modulus(n)
    return len({x % n for x in a})


def is_full(a: IntSet, n: int) -> bool:
    """True when ``a`` meets all n residue classes modulo n."""
    return component_count(a, n) == n


def is_semi_full(a: IntSet, n: int) -> bool:
    """True when every modulus-n component of ``a`` meets exactly n classes
    modulo n**2."""
    _require_modulus(n)
    if n * n > INT64_MAX:
        raise ArithmeticRangeError(f"n**2 overflows for n={n}")
    return all(component_count(c, n * n) == n for c in decompose(a, n))


def _checked_component(c: IntSet, a: IntSet, k: int, relax_modulus: bool) -> IntSet:
    _require_odd_prime(k, relax=relax_modulus)
    d = decompose(a, k)
    r = c.min % k
    block = d.blocks.get(r)
    if block is None or block != c:
        raise InvalidComponentError(
            f"{c!r} is not the modulus-{k} component of the target set at residue {r}"
        )
    return block


def marginal_set(c: IntSet, a: IntSet, k: int, relax_modulus: bool = False):
    """Elements of 2*c + k*a that 2*c + k*c does not reach.

    ``c`` must be exactly one modulus-k component of ``a``; anything else
    raises InvalidComponentError. Returns a sorted, possibly empty tuple.
    """
    _checked_component(c, a, k, relax_modulus)
    big = minkowski_sum(dilate(c, 2), dilate(a, k))
    small = minkowski_sum(dilate(c, 2), dilate(c, k))
    return tuple(sorted(set(big.elements) - set(small.elements)))


@dataclass(frozen=True)
class MarginalSplit:
    """Marginal elements split against the interval of 2*c + k*c.

    ``low`` falls below its minimum, ``high`` above its maximum, and
    ``interior`` strictly between; the three parts are disjoint and their
    union is the whole marginal set.
    """

    low: tuple
    interior: tuple
    high: tuple

    @property
    def merged(self):
        return tuple(sorted(self.low + self.interior + self.high))


def marginal_split(c: IntSet, a: IntSet, k: int, relax_modulus: bool = False) -> MarginalSplit:
    """Three-way split of marginal_set(c, a, k) around 2*c + k*c."""
    marginal = marginal_set(c, a, k, relax_modulus=relax_modulus)
    inner = minkowski_sum(dilate(c, 2), dilate(c, k))
    low = tuple(x for x in marginal if x < inner.min)
    high = tuple(x for x in marginal if x > inner.max)
    interior = tuple(x for x in marginal if inner.min < x < inner.max)
    return MarginalSplit(low=low, interior=interior, high=high)


def stabilizer(x, m: int):
    """Translations g of Z/mZ with g + X = X, as a sorted residue tuple.

    Always contains 0 and is a subgroup, so its size divides both |X|
    and m.
    """
    _require_modulus(m)
    xs = frozenset(x)
    if not xs:
        raise ValueError("stabilizer needs a nonempty residue set")
    for e in xs:
        if not (0 <= e < m):
            raise ValueError(f"residue {e} outside [0, {m})")
    return tuple(
        g for g in range(m) if frozenset((g + e) % m for e in xs) == xs
    )
