"""Kernels: the pairwise merges and the bitmask fold with its readout.

A bitmask is a Python int read against a base: bit p marks the value
base + p. Two callers outside this module also work on masks:
``components.marginal_set`` shifts and and-nots two ``fold_mask`` results
and makes its own 64-bit checks, and ``search._walk`` builds one mask per
subset of the coefficients. Dispatch and the fold's 64-bit precondition
checks live in ``backend``. Plain Python ints make every result exact
regardless of operand size.

A fold's first term is written into a bytearray in one pass and turned
into an int once; each later term ORs one shifted copy of the running
mask per element. ``bitset_fold_size`` counts by residue class: it splits
off the term c*S whose removal leaves the largest gcd g of the other
coefficients, so every sum is c*x + g*y with y in the other terms' fold
Y divided by g. Writing c*x = g*q + r with 0 <= r < g, two sums are equal
exactly when their r agree and so do their q + y. Hence the size is the
sum, over the classes r, of |Q_r + Y|: one mask of Y, shifted by each q
of the class, on about 1/g of the span of the whole fold. For 2A+kA the
split term is 2A and g = k, the paper's decomposition of A mod k.

There are two pairwise merges. ``sumset_elements`` returns the hash set
of sums, for counting and membership. ``sorted_sumset`` returns them as
a sorted tuple with no hash set: one operand is sorted, each element of
the other adds a row, which is then an ascending run, ``list.sort``
merges the runs, and the duplicates, now adjacent, are dropped by
comparing neighbours at C level.
"""

import math
from collections import defaultdict
from itertools import compress, islice
from operator import ne

_BITS = bytes.maketrans(b"01", b"\x00\x01")


def sumset_elements(a, b):
    """Set of the pairwise sums of two nonempty int iterables, unsorted."""
    return {x + y for x in a for y in b}


def sorted_sumset(a, b):
    """Sorted tuple of the distinct pairwise sums of two nonempty int sequences.

    The longer operand is sorted (linear when it already runs one way)
    and the shorter one's elements each add it as a row, so the sums form
    min(|a|, |b|) ascending runs, which the sort merges in
    O(|a||b| log min(|a|, |b|)). Duplicates are then adjacent, and an
    element is kept when it differs from its predecessor.
    """
    if len(a) < len(b):
        a, b = b, a
    a = sorted(a)
    sums = [x + y for y in b for x in a]
    sums.sort()
    keep = map(ne, islice(sums, 1, None), sums)
    return (sums[0], *compress(islice(sums, 1, None), keep))


def fold_mask(coeffs, sets):
    """(base, mask) of c0*S0 + c1*S1 + ... for nonempty sorted sets.

    base is the smallest sum. Each term ORs one copy of the running mask
    per element, shifted by the element's distance c*(x - lo) from the
    term's smallest dilate c*lo, which is never negative. The first
    term's mask is those distances' bits, set in a bytearray in one pass.
    """
    c, elems = coeffs[0], sets[0]
    lo = elems[0] if c > 0 else elems[-1]
    buf = bytearray(abs(c) * (elems[-1] - elems[0]) // 8 + 1)
    for x in elems:
        p = c * (x - lo)
        buf[p >> 3] |= 1 << (p & 7)
    base = c * lo
    mask = int.from_bytes(buf, "little")
    for c, elems in zip(coeffs[1:], sets[1:]):
        lo = elems[0] if c > 0 else elems[-1]
        base += c * lo
        nxt = 0
        for x in elems:
            nxt |= mask << c * (x - lo)
        mask = nxt
    return base, mask


def bitset_fold_size(coeffs, sets):
    """Size of c0*S0 + c1*S1 + ..., counted per residue class.

    The split term is the first one whose removal leaves the largest gcd
    g of the other coefficients. The other terms, their coefficients
    divided by g, are folded once into a mask of Y; the split term's
    elements are grouped by c*x = g*q + r, and each class ORs the mask
    of Y shifted by q - min q. The size is the sum of the class
    popcounts (the argument is in the module docstring). With g <= 1 (a
    single term, or coefficients such as (2, -3, 5) of which every
    choice leaves gcd 1) there is one class, and the plain fold's
    popcount is returned: on the sum benchmark's dense four-term sets,
    grouping the elements into that one class cost 10-15% over it.
    """
    gcds = [math.gcd(*coeffs[:j], *coeffs[j + 1:]) for j in range(len(coeffs))]
    g = max(gcds)
    if g <= 1:
        return fold_mask(coeffs, sets)[1].bit_count()
    split = gcds.index(g)
    rest = [(c // g, s) for j, (c, s) in enumerate(zip(coeffs, sets)) if j != split]
    mask = fold_mask(*zip(*rest))[1]
    c = coeffs[split]
    classes = defaultdict(list)
    for x in sets[split]:
        q, r = divmod(c * x, g)
        classes[r].append(q)
    size = 0
    for qs in classes.values():
        lo = min(qs)
        nxt = 0
        for q in qs:
            nxt |= mask << q - lo
        size += nxt.bit_count()
    return size


def mask_elements(base, mask, step=1):
    """Sorted tuple of base + step*p over the set bits p of mask.

    The bits are read out through their binary digits, with no Python
    loop over them.
    """
    bits = format(mask, "b").encode().translate(_BITS)[::-1]
    return tuple(compress(range(base, base + step * len(bits), step), bits))
