"""Kernel dispatch and the 64-bit range discipline.

The kernels live in ``_core_py`` and are called through ``_impl``, the
one seam where callers substitute them: ``perfbench/tracing.py`` installs
its kernel wrappers there, and the tests put kernel logs in its place:

    sumset_elements(a, b)           -> set of pairwise sums, unsorted
    sorted_sumset(a, b)             -> sorted tuple of the distinct
                                       pairwise sums, merged from
                                       ascending runs with no hash set
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
runs; both routes give identical answers. Where elements are returned
in order (``sumset`` and every step of ``fold_elements``'s merge) the
merge is ``sorted_sumset``; ``fold_size`` counts ``sumset_elements``'s
set, which on wide random sets of 12-300 elements builds 1.5-2.3 times
faster than the sorted runs.
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
# in a Python set or list (tens of bytes each), so a larger merge is refused
# before anything is allocated.
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


def check_int64(value, what):
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
    return _impl.sorted_sumset(a, b)


def _dilated(coeff, elems):
    return [coeff * x for x in elems]


def _merge(terms, kernel):
    """Sums of c0*S0 + c1*S1 + ..., merged pairwise in term order.

    Each step hands the running sums and the next dilated term to the
    merge kernel named by ``kernel``, looked up only once the step's pair
    check has passed. A step that would form more than MERGE_PAIR_LIMIT
    pairs raises MergeLimitError before it runs; the first step is
    checked before anything of a term's size is allocated. A single term
    comes back as its dilated list.
    """
    if len(terms) > 1:
        _check_pairs(len(terms[0][1]), len(terms[1][1]))
    acc = _dilated(*terms[0])
    for c, elems in terms[1:]:
        _check_pairs(len(acc), len(elems))
        acc = getattr(_impl, kernel)(acc, _dilated(c, elems))
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
    return len(_merge(terms, "sumset_elements"))


def fold_elements(terms):
    """Exact sorted element tuple of c0*S0 + c1*S1 + ....

    A fold whose span is at most BITSET_SPAN_LIMIT and at most
    FOLD_BITS_PER_SUM bits per sum the merge would form (the product of
    the term sizes) is read out of its bitmask. Any other fold merges
    pairwise, and a merge step that would form more than MERGE_PAIR_LIMIT
    pairs raises MergeLimitError before it runs (the first step before
    anything of a term's size is allocated). The bitmask costs one
    shift of up to span bits per element of each term, the merge one
    list entry per sum and, per step, one sort that merges the sums'
    ascending runs. On random sets of 40-300 elements with coefficients
    (2, 3), (2, 5), (-3, 7) or (1, -2, 4), the two cost the same at 4-6
    bits per sum (best of seven calls, Python 3.11, 2-CPU shared host).
    A threshold of 5 read the same as 8 on the sum benchmark (0.32 and
    0.31 s against 0.32 and 0.31 s in two runs), so it stays at 8.
    """
    terms = tuple(terms)
    span = _fold_guard(terms)
    sums = math.prod(len(e) for _, e in terms)
    if span <= min(BITSET_SPAN_LIMIT, FOLD_BITS_PER_SUM * sums):
        coeffs = tuple(c for c, _ in terms)
        sets = tuple(e for _, e in terms)
        return _impl.mask_elements(*_impl.fold_mask(coeffs, sets))
    merged = _merge(terms, "sorted_sumset")
    return merged if len(terms) > 1 else tuple(sorted(merged))
