"""Pure-Python kernels, used when the compiled extension is unavailable.

Same call signatures as the Cython module ``_core``; dispatch and all
64-bit precondition checks live in ``backend``. Plain Python ints make
every result exact regardless of operand size.
"""

COMPILED = False


def sumset_elements(a, b):
    """Sorted unique pairwise sums of two nonempty int sequences."""
    return sorted({x + y for x in a for y in b})


def bitset_fold_size(coeffs, sets):
    """Size of c0*S0 + c1*S1 + ... computed by shift-or folding.

    Bit p of the running mask marks the value base + p, where base is the
    smallest reachable partial sum, so shifts are never negative.
    """
    mask = 1
    for c, elems in zip(coeffs, sets):
        mn = elems[0]
        mx = elems[-1]
        nxt = 0
        for a in elems:
            s = c * (a - mn) if c > 0 else (-c) * (mx - a)
            nxt |= mask << s
        mask = nxt
    return mask.bit_count()
