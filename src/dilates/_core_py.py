"""Kernels: the pairwise merge and the bitmask fold with its readout.

A bitmask is a Python int read against a base: bit p marks the value
base + p. This module is the only one that builds or reads such masks;
dispatch and all 64-bit precondition checks live in ``backend``. Plain
Python ints make every result exact regardless of operand size.
"""

from itertools import compress

_BITS = bytes.maketrans(b"01", b"\x00\x01")


def sumset_elements(a, b):
    """Sorted unique pairwise sums of two nonempty int sequences."""
    return sorted({x + y for x in a for y in b})


def fold_mask(coeffs, sets):
    """(base, mask) of c0*S0 + c1*S1 + ... for nonempty sorted sets.

    base is the smallest sum. Each term ORs one copy of the running mask
    per element, shifted by the element's distance c*(x - lo) from the
    term's smallest dilate c*lo, which is never negative.
    """
    base = 0
    mask = 1
    for c, elems in zip(coeffs, sets):
        lo = elems[0] if c > 0 else elems[-1]
        base += c * lo
        nxt = 0
        for x in elems:
            nxt |= mask << c * (x - lo)
        mask = nxt
    return base, mask


def bitset_fold_size(coeffs, sets):
    """Size of c0*S0 + c1*S1 + ..., the popcount of fold_mask."""
    return fold_mask(coeffs, sets)[1].bit_count()


def mask_elements(base, mask, step=1):
    """Sorted tuple of base + step*p over the set bits p of mask.

    The bits are read out through their binary digits, with no Python
    loop over them.
    """
    bits = format(mask, "b").encode().translate(_BITS)[::-1]
    return tuple(compress(range(base, base + step * len(bits), step), bits))
