"""Kernel dispatch and the 64-bit range discipline.

The kernels live in ``_core_py`` and are called through ``_impl``, so
they can be replaced as one unit:

    sumset_elements(a, b)           -> set of pairwise sums, unsorted
    bitset_fold_size(coeffs, sets)  -> |c0*S0 + c1*S1 + ...|, summed over
                                       the classes c*x mod g of the term
                                       c*S leaving the largest gcd g of
                                       the other coefficients (one class
                                       when g <= 1)
    fold_mask(coeffs, sets)         -> (base, bitmask) of the same fold,
                                       its first term set in one pass
    mask_elements(base, mask, step) -> base + step*p over set bits p

This module wraps them with the 64-bit range checks and decides per call
whether the bitmask route (span small enough) or the exact element merge
runs; both routes give identical answers. The merge route sorts only
where elements are returned in order (``sumset`` and ``fold_elements``);
``fold_size`` counts the merge's set.
"""

import math

from . import _core_py as _impl
from .errors import ArithmeticRangeError, MergeLimitError

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

# A bitmask fold holds a few ints of span/8 bytes, and reading elements out
# of it a few buffers of span bytes; beyond this limit the element merge is
# used instead. Purely a speed/memory trade-off.
BITSET_SPAN_LIMIT = 1 << 26

# Largest number of pairwise sums one merge may form. The merge holds them
# in a Python set (tens of bytes each), so a larger merge is refused before
# anything is allocated.
MERGE_PAIR_LIMIT = 1 << 24

# fold_elements takes the bitmask route while the fold's span is at most
# this many bits per sum the merge would form; sparser folds merge.
FOLD_BITS_PER_SUM = 8


def backend_name():
    """Name of the kernel backend; "pure" is the only one."""
    return "pure"


def use_backend(name):
    """Select a backend by name; only "pure" exists. Returns the prior name."""
    if name == "compiled":
        raise RuntimeError("the compiled backend was removed; only 'pure' exists")
    if name != "pure":
        raise ValueError(f"unknown backend {name!r}")
    return "pure"


def check_int64(value, what="value"):
    if value < INT64_MIN or value > INT64_MAX:
        raise ArithmeticRangeError(f"{what} {value} is outside the signed 64-bit range")
    return value


def _check_pairs(na, nb):
    if na * nb > MERGE_PAIR_LIMIT:
        raise MergeLimitError(
            f"merge of {na} x {nb} elements would form {na * nb} sums, "
            f"above the limit of {MERGE_PAIR_LIMIT}"
        )


def sumset(a, b):
    """Pairwise-sum tuple of two sorted element tuples, with range checks.

    Pairwise sums are monotone in both arguments, so checking the two
    extreme sums covers every intermediate one. More than MERGE_PAIR_LIMIT
    pairs raises MergeLimitError.
    """
    check_int64(a[0] + b[0], "sumset minimum")
    check_int64(a[-1] + b[-1], "sumset maximum")
    _check_pairs(len(a), len(b))
    return tuple(sorted(_impl.sumset_elements(a, b)))


def _dilated(coeff, elems):
    return [coeff * x for x in elems]


def _merge(terms):
    """Unordered sums of c0*S0 + c1*S1 + ..., merged pairwise in term order.

    A step that would form more than MERGE_PAIR_LIMIT pairs raises
    MergeLimitError before it runs; the first step is checked before
    anything of a term's size is allocated. Each step hands the kernel the
    running set, so no step sorts.
    """
    if len(terms) > 1:
        _check_pairs(len(terms[0][1]), len(terms[1][1]))
    acc = _dilated(*terms[0])
    for c, elems in terms[1:]:
        _check_pairs(len(acc), len(elems))
        acc = _impl.sumset_elements(acc, _dilated(c, elems))
    return acc


def _fold_guard(terms):
    """Reject folds that could leave int64 anywhere; return the bit span.

    The envelope sum bounds the absolute value of every partial fold, for
    any processing order, so one conservative check covers all steps.
    """
    if not terms:
        raise ValueError("fold needs at least one (coefficient, elements) term")
    envelope = 0
    span = 0
    for c, elems in terms:
        lo, hi = elems[0], elems[-1]
        envelope += abs(c) * max(abs(lo), abs(hi))
        span += abs(c) * (hi - lo)
    if envelope > INT64_MAX:
        raise ArithmeticRangeError(
            f"dilate-sum envelope {envelope} exceeds the signed 64-bit range"
        )
    return span


def fold_size(terms):
    """Exact |c0*S0 + c1*S1 + ...| for (coefficient, sorted elements) terms.

    Above BITSET_SPAN_LIMIT it counts the merge's set; nothing is sorted,
    and MergeLimitError can be raised there, at the same step and with
    the same message as from fold_elements.
    """
    terms = tuple(terms)
    span = _fold_guard(terms)
    if span <= BITSET_SPAN_LIMIT:
        coeffs = tuple(c for c, _ in terms)
        sets = tuple(e for _, e in terms)
        return _impl.bitset_fold_size(coeffs, sets)
    return len(_merge(terms))


def fold_elements(terms):
    """Exact sorted element tuple of c0*S0 + c1*S1 + ....

    A fold whose span is at most BITSET_SPAN_LIMIT and at most
    FOLD_BITS_PER_SUM bits per sum the merge would form (the product of
    the term sizes) is read out of its bitmask. Any other fold merges
    pairwise, and a merge step that would form more than MERGE_PAIR_LIMIT
    pairs raises MergeLimitError before it runs (the first step before
    anything of a term's size is allocated). The bitmask costs one
    shift of up to span bits per element of each term, the merge one set
    insertion per sum and one sort of the result. On random sets of
    40-300 elements with coefficients (2, 3), (2, 5), (-3, 7) or
    (1, -2, 4), the two cost the same at 2-4 bits per sum. A threshold of
    3 still made the sum benchmark 3-5% slower in three runs, because its
    dense three-term sets favour the bitmask, so the threshold stays at 8.
    """
    terms = tuple(terms)
    span = _fold_guard(terms)
    sums = math.prod(len(e) for _, e in terms)
    if span <= min(BITSET_SPAN_LIMIT, FOLD_BITS_PER_SUM * sums):
        coeffs = tuple(c for c, _ in terms)
        sets = tuple(e for _, e in terms)
        return _impl.mask_elements(*_impl.fold_mask(coeffs, sets))
    return tuple(sorted(_merge(terms)))
