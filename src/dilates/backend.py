"""Kernel selection: compiled extension when available, pure Python otherwise.

The compiled module ``_core`` (Cython) and the fallback ``_core_py`` expose
the same two primitives:

    sumset_elements(a, b)          -> sorted unique pairwise sums
    bitset_fold_size(coeffs, sets) -> |c0*S0 + c1*S1 + ...|

This module wraps them with the 64-bit range discipline and decides per
call whether the bitset route is allowed (span small enough) or the exact
element merge must run instead; both routes give identical answers. Set
the environment variable ``DILATES_PURE=1`` to force the fallback.
"""

import os

from .errors import ArithmeticRangeError, MergeLimitError

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

# Bitset folding allocates two buffers of span/8 bytes; beyond this limit
# the element merge is used instead. Purely a speed/memory trade-off.
BITSET_SPAN_LIMIT = 1 << 26

# Largest number of pairwise sums one merge may form. The pure kernel holds
# them in a Python set (tens of bytes each) and the compiled one in an int64
# buffer, so a larger merge is refused before anything is allocated.
MERGE_PAIR_LIMIT = 1 << 24

from . import _core_py as _pure

try:
    from . import _core as _compiled
except ImportError:
    _compiled = None

if os.environ.get("DILATES_PURE") or _compiled is None:
    _impl = _pure
else:
    _impl = _compiled


def backend_name():
    return "compiled" if _impl.COMPILED else "pure"


def available_backends():
    if _compiled is None:
        return ("pure",)
    return ("compiled", "pure")


def use_backend(name):
    """Switch kernels at runtime; returns the previously active name."""
    global _impl
    prior = backend_name()
    if name == "pure":
        _impl = _pure
    elif name == "compiled":
        if _compiled is None:
            raise RuntimeError("compiled kernels are not available in this build")
        _impl = _compiled
    else:
        raise ValueError(f"unknown backend {name!r}")
    return prior


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
    return tuple(_impl.sumset_elements(a, b))


def _dilated(coeff, elems):
    if coeff > 0:
        return [coeff * x for x in elems]
    return [coeff * x for x in reversed(elems)]


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

    Above BITSET_SPAN_LIMIT it counts fold_elements, so MergeLimitError
    can be raised there.
    """
    terms = tuple(terms)
    span = _fold_guard(terms)
    if span <= BITSET_SPAN_LIMIT:
        coeffs = tuple(c for c, _ in terms)
        sets = tuple(e for _, e in terms)
        return _impl.bitset_fold_size(coeffs, sets)
    return len(fold_elements(terms))


def fold_elements(terms):
    """Exact sorted element tuple of c0*S0 + c1*S1 + ....

    A step that would form more than MERGE_PAIR_LIMIT pairs raises
    MergeLimitError before it runs.
    """
    terms = tuple(terms)
    _fold_guard(terms)
    acc = _dilated(*terms[0])
    for c, elems in terms[1:]:
        _check_pairs(len(acc), len(elems))
        acc = _impl.sumset_elements(acc, _dilated(c, elems))
    return tuple(acc)
