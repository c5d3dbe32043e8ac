"""Independent brute-force oracles.

Everything here enumerates tuples with itertools and plain set algebra,
deliberately sharing no code with the library's merge/bitset kernels.
Expected values frozen into the tests were computed with these functions.
"""

from itertools import product
from math import isqrt


def naive_sumset(a, b):
    return sorted({x + y for x in a for y in b})


def naive_fold(terms):
    """All sums c0*x0 + c1*x1 + ... with each x drawn from its own set."""
    coeffs = [c for c, _ in terms]
    sets = [sorted(e) for _, e in terms]
    return sorted(
        {sum(c * x for c, x in zip(coeffs, xs)) for xs in product(*sets)}
    )


def naive_dilate_sum(elems, coeffs):
    """Definitional dilate sum: one independent element per coefficient."""
    return naive_fold([(c, elems) for c in coeffs])


def naive_components(elems, n):
    out = {}
    for x in sorted(elems):
        out.setdefault(x % n, []).append(x)
    return out


def naive_marginal(c_elems, a_elems, k):
    big = set(naive_fold([(2, c_elems), (k, a_elems)]))
    small = set(naive_fold([(2, c_elems), (k, c_elems)]))
    return sorted(big - small)


def naive_is_odd_prime(k):
    """Trial division by every odd d with d*d <= k."""
    if k < 3 or k % 2 == 0:
        return False
    return all(k % d for d in range(3, isqrt(k) + 1, 2))


def naive_canonical_family(cardinality, range_max, reflect=True):
    """All subsets of [0, range_max] with min 0, gcd 1, given size."""
    from itertools import combinations
    from math import gcd

    if cardinality == 1:
        return [(0,)]
    out = []
    for rest in combinations(range(1, range_max + 1), cardinality - 1):
        elems = (0,) + rest
        if gcd(*elems) != 1:
            continue
        if reflect:
            mx = elems[-1]
            mirrored = tuple(mx - x for x in reversed(elems))
            if mirrored < elems:
                continue
        out.append(elems)
    return out


def naive_minimum(coeffs, n, r_max, reflect=True):
    """Minimum dilate-sum size over the canonical family, with every
    witness in lexicographic order: the whole family is enumerated."""
    best = None
    witnesses = []
    for elems in naive_canonical_family(n, r_max, reflect=reflect):
        size = len(naive_dilate_sum(elems, coeffs))
        if best is None or size < best:
            best, witnesses = size, [elems]
        elif size == best:
            witnesses.append(elems)
    return best, witnesses
