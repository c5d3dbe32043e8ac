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
from itertools import compress

from .errors import ArithmeticRangeError, InvalidComponentError, InvalidModulusError
from .intset import IntSet, dilate, minkowski_sum
from .backend import INT64_MAX, check_int64


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


def _checked_component(c: IntSet, a: IntSet, k: int, relax_modulus: bool):
    _require_odd_prime(k, relax=relax_modulus)
    r = c.min % k
    if tuple(x for x in a if x % k == r) != c.elements:
        raise InvalidComponentError(
            f"{c!r} is not the modulus-{k} component of the target set at residue {r}"
        )


# The bitset route of marginal_set runs while its reduced span stays within
# this many bits per element of A (16 machine words); sparser inputs merge.
MARGINAL_BITS_PER_ELEMENT = 16 * 64

_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _mask(elems):
    """Bitmask with bit x - elems[0] set for every x in the sorted elems."""
    hi = elems[-1]
    digits = bytearray(b"0") * (hi - elems[0] + 1)
    for x in elems:
        digits[hi - x] = 49  # ord("1"), most significant digit first
    return int(digits, 2)


def _shifted_union(mask, offsets):
    """OR of mask << d over the offsets d."""
    out = 0
    for d in offsets:
        out |= mask << d
    return out


def marginal_set(c: IntSet, a: IntSet, k: int, relax_modulus: bool = False):
    """Elements of 2*c + k*a that 2*c + k*c does not reach.

    ``c`` must be exactly one modulus-k component of ``a``; anything else
    raises InvalidComponentError. Returns a sorted, possibly empty tuple.

    Every element of ``c`` is r + k*q for its residue r, so
    2*c + k*x = 2r + k*(2q + x): 2C+kA = 2r + k*(2Q+A) and
    2C+kC = 2r + k*(2Q+C), with Q = (C - r)/k. The marginal set is the
    image of the difference of the reduced sets, whose span
    2*(max Q - min Q) + span(A) is about k times smaller than that of
    2C+kA. When that reduced span is at most MARGINAL_BITS_PER_ELEMENT
    bits per element of ``a``, both reduced sets are built as bitmasks
    (the OR of mask(A), or mask(C), shifted by 2*(q - min Q) over Q),
    aligned at min A, and the marginal set is ``big & ~small``, read out
    without a Python loop over the bits. Otherwise the pairwise merge
    runs. A bitmask costs |C| shifts of the whole reduced span whatever
    |A| is, so on sparse sets (uniform sets of a few hundred elements
    over spans of 1e5-1e6) it loses to the merge's |C|*|A| sums. On the
    44 sets of one pass of the benchmark's check workload, check_suite
    took 4.9 s of CPU with the merge everywhere, 5.4 s with bitmasks
    everywhere, and 2.2, 1.9 and 2.7 s with this rule at 8, 16 and 64
    words per element (pure backend, fastest of three passes, 2-CPU
    shared host). Both routes give the same tuple and raise the same
    ArithmeticRangeError on the same inputs.
    """
    _checked_component(c, a, k, relax_modulus)
    q_span = (c.max - c.min) // k
    if 2 * q_span + a.span > MARGINAL_BITS_PER_ELEMENT * len(a):
        big = minkowski_sum(dilate(c, 2), dilate(a, k))
        small = minkowski_sum(dilate(c, 2), dilate(c, k))
        reached = set(small.elements)
        return tuple(x for x in big.elements if x not in reached)
    # The merge route's range checks, on the same extremes in the same order.
    check_int64(2 * c.min, "dilated value")
    check_int64(2 * c.max, "dilated value")
    check_int64(k * a.min, "dilated value")
    check_int64(k * a.max, "dilated value")
    base = check_int64(2 * c.min + k * a.min, "sumset minimum")
    check_int64(2 * c.max + k * a.max, "sumset maximum")
    offsets = [2 * (x - c.min) // k for x in c.elements]
    big = _shifted_union(_mask(a.elements), offsets)
    small = _shifted_union(_mask(c.elements), offsets) << (c.min - a.min)
    bits = format(big & ~small, "b").encode().translate(_BITS)[::-1]
    return tuple(compress(range(base, base + k * len(bits), k), bits))


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
    # 2*c + k*c runs from (k+2)*min(c) to (k+2)*max(c); marginal_set has
    # range-checked sums beyond both ends, so no merge is needed.
    lo, hi = (k + 2) * c.min, (k + 2) * c.max
    low = tuple(x for x in marginal if x < lo)
    high = tuple(x for x in marginal if x > hi)
    interior = tuple(x for x in marginal if lo < x < hi)
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
