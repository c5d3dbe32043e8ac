"""Exact arithmetic on finite integer sets.

An IntSet is a nonempty, strictly increasing tuple of signed 64-bit
integers; it plays the role of every concrete set handled by the library.
The one exception is canonicalize(), whose translate can leave int64 (see
there). Operations are pure functions returning new values. Anything that
would leave the 64-bit range raises ArithmeticRangeError instead of
wrapping; exactness is the whole point.

Conventions:
  - dilation coefficients are nonzero (dilating by 0 would collapse the
    set and break |r*A| = |A|);
  - the canonical representative of an affine orbit has minimum 0 and,
    for sets of size >= 2, element gcd 1; singletons canonicalize to {0}.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass

from . import backend
from .backend import check_int64
from .errors import InvalidCoefficientError


class IntSet:
    """Finite nonempty set of integers, kept sorted and duplicate-free.

    Elements are coerced with ``operator.index``: ints, int subclasses and
    integer types such as numpy's are accepted, bools count as 0 and 1, and
    floats or strings raise TypeError instead of being truncated.
    """

    __slots__ = ("_elements",)

    def __init__(self, elements):
        elems = sorted({operator.index(x) for x in elements})
        if not elems:
            raise ValueError("IntSet needs at least one element")
        check_int64(elems[0], "element")
        check_int64(elems[-1], "element")
        self._elements = tuple(elems)

    @classmethod
    def _wrap(cls, sorted_elements):
        """Trusted constructor for already sorted, unique, in-range tuples."""
        s = cls.__new__(cls)
        s._elements = sorted_elements
        return s

    @property
    def elements(self):
        return self._elements

    @property
    def min(self):
        return self._elements[0]

    @property
    def max(self):
        return self._elements[-1]

    @property
    def span(self):
        return self._elements[-1] - self._elements[0]

    def __len__(self):
        return len(self._elements)

    def __iter__(self):
        return iter(self._elements)

    def __contains__(self, x):
        i = bisect_left(self._elements, x)
        return i < len(self._elements) and self._elements[i] == x

    def __eq__(self, other):
        if isinstance(other, IntSet):
            return self._elements == other._elements
        return NotImplemented

    def __hash__(self):
        return hash(self._elements)

    def __repr__(self):
        return f"IntSet({list(self._elements)!r})"


@dataclass(frozen=True)
class DilateSpec:
    """Distinct nonzero dilation coefficients, kept sorted ascending.

    Coefficients are coerced with ``operator.index``, as IntSet elements
    are: a bool counts as 0 or 1, and a float raises TypeError.
    """

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(sorted(operator.index(c) for c in self.coefficients))
        if not coeffs:
            raise InvalidCoefficientError("need at least one dilation coefficient")
        for c in coeffs:
            if c == 0:
                raise InvalidCoefficientError("dilation coefficient 0 is not allowed")
            check_int64(c, "coefficient")
        if len(set(coeffs)) != len(coeffs):
            raise InvalidCoefficientError(f"repeated coefficients in {coeffs}")
        object.__setattr__(self, "coefficients", coeffs)

    def __iter__(self):
        return iter(self.coefficients)

    @property
    def weight(self):
        """Sum of the coefficient magnitudes."""
        return sum(abs(c) for c in self.coefficients)

    @property
    def magnitude_gcd(self):
        return math.gcd(*(abs(c) for c in self.coefficients))


def _coerce_spec(spec) -> DilateSpec:
    return spec if isinstance(spec, DilateSpec) else DilateSpec(tuple(spec))


def minkowski_sum(a: IntSet, b: IntSet) -> IntSet:
    """Set of all pairwise sums of a and b."""
    return IntSet._wrap(backend.sumset(a.elements, b.elements))


def dilate(a: IntSet, r: int) -> IntSet:
    """The r-fold dilation {r*x : x in a}; r must be nonzero.

    r is coerced with ``operator.index``, as DilateSpec coefficients are:
    a bool counts as 0 or 1, and a float raises TypeError.
    """
    r = operator.index(r)
    if r == 0:
        raise InvalidCoefficientError("dilation by 0 collapses the set")
    check_int64(r * a.min, "dilated value")
    check_int64(r * a.max, "dilated value")
    if r > 0:
        return IntSet._wrap(tuple(r * x for x in a.elements))
    return IntSet._wrap(tuple(r * x for x in reversed(a.elements)))


def dilate_sum(a: IntSet, spec) -> IntSet:
    """The full dilate sum: Minkowski sum of m*a over every m in spec."""
    spec = _coerce_spec(spec)
    terms = tuple((m, a.elements) for m in spec)
    return IntSet._wrap(backend.fold_elements(terms))


def dilate_sum_size(a: IntSet, spec) -> int:
    """|dilate_sum(a, spec)|, counted without sorting any elements.

    A fold within the bitmask span limit is a popcount; a wider one counts
    the pairwise merge's set of sums.
    """
    spec = _coerce_spec(spec)
    return backend.fold_size(tuple((m, a.elements) for m in spec))


def canonicalize(a: IntSet) -> IntSet:
    """Translate the minimum to 0 and divide out the common gap divisor.

    A singleton maps to {0}, since its gap gcd is undefined. Idempotent,
    and dilate-sum sizes are invariant under it. The result is not held
    to int64: a set spanning more than INT64_MAX, such as
    {-2**63, 0, 2**63 - 1}, canonicalizes to elements above it, and any
    fold of the result is then refused with ArithmeticRangeError.
    """
    base = a.min
    if len(a) == 1:
        return IntSet._wrap((0,))
    g = 0
    for x in a.elements:
        g = math.gcd(g, x - base)
    return IntSet._wrap(tuple((x - base) // g for x in a.elements))
