"""Congruence-class structure of integer sets.

A modulus-n component of A is the (nonempty) intersection of A with one
residue class modulo n. This module builds component decompositions,
decides the two fullness predicates, and computes marginal sets of
components under the 2*C + k*A sum.

Residues are always normalized to [0, n), including for negative
elements, so decompositions never disagree about class labels.
"""

from . import backend
from .errors import ArithmeticRangeError, InvalidComponentError, InvalidModulusError
from .intset import IntSet, dilate, minkowski_sum
from .backend import INT64_MAX, check_int64


# Miller-Rabin with these bases is exact for every n below
# 3.18e23 (Sorenson and Webster, 2015), so for every int64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_odd_prime(k) -> bool:
    """True when ``k`` is an odd prime (so 2 fails).

    Anything that is not an int, such as 7.0, is not an odd prime; an odd
    k above the signed 64-bit range raises ArithmeticRangeError. A k up to
    37 or with a factor among the bases is decided at once, any other k
    by deterministic Miller-Rabin over them: with k - 1 = d * 2**s, a base
    p proves k composite unless p**d = 1 or p**(d * 2**i) = -1 (mod k)
    for some i < s.
    """
    if not isinstance(k, int) or k < 3 or k % 2 == 0:
        return False
    if k <= _MR_BASES[-1]:
        return k in _MR_BASES
    check_int64(k, "modulus")
    if any(k % p == 0 for p in _MR_BASES):
        return False
    s = ((k - 1) & (1 - k)).bit_length() - 1
    d = (k - 1) >> s
    for p in _MR_BASES:
        x = pow(p, d, k)
        if x == 1:
            continue
        for _ in range(s):
            if x == k - 1:
                break
            x = x * x % k
        else:
            return False
    return True


def _require_modulus(n):
    if not isinstance(n, int) or n < 2:
        raise InvalidModulusError(f"modulus must be an integer >= 2, got {n!r}")


def _require_odd_prime(k):
    if not is_odd_prime(k):
        raise InvalidModulusError(f"k must be an odd prime, got {k!r}")


def decompose(a: IntSet, n: int) -> dict:
    """Components of ``a`` modulo n (n >= 2), as {residue: IntSet} in
    ascending residue order."""
    _require_modulus(n)
    buckets = {}
    for x in a:
        buckets.setdefault(x % n, []).append(x)
    return {r: IntSet._wrap(tuple(buckets[r])) for r in sorted(buckets)}


def component_count(a: IntSet, n: int) -> int:
    """Number of nonempty components of ``a`` modulo n."""
    _require_modulus(n)
    return len({x % n for x in a})


def is_full(a: IntSet, n: int) -> bool:
    """True when ``a`` meets all n residue classes modulo n."""
    return component_count(a, n) == n


def is_semi_full(a: IntSet, n: int) -> bool:
    """True when every modulus-n component of ``a`` meets exactly n classes
    modulo n**2.

    Each class mod n**2 lies in one class mod n, and each class mod n holds
    n classes mod n**2, so every component meets at most n of them. The
    condition is therefore that ``a`` meets n times as many classes mod
    n**2 as mod n."""
    _require_modulus(n)
    if n * n > INT64_MAX:
        raise ArithmeticRangeError(f"n**2 overflows for n={n}")
    return component_count(a, n * n) == n * component_count(a, n)


def _checked_component(c: IntSet, a: IntSet, k: int):
    _require_modulus(k)
    r = c.min % k
    if tuple(x for x in a if x % k == r) != c.elements:
        raise InvalidComponentError(
            f"{c!r} is not the modulus-{k} component of the target set at residue {r}"
        )


def _marginal_guard(c: IntSet, a: IntSet, k: int):
    """The range checks of 2*c + k*a: its dilated extremes, then its
    extreme sums. Every element of 2*c + k*a and of marginal_set's reduced
    sets lies within them."""
    check_int64(2 * c.min, "dilated value")
    check_int64(2 * c.max, "dilated value")
    check_int64(k * a.min, "dilated value")
    check_int64(k * a.max, "dilated value")
    check_int64(2 * c.min + k * a.min, "sumset minimum")
    check_int64(2 * c.max + k * a.max, "sumset maximum")


# The bitset route of marginal_set runs while its reduced span stays within
# this many bits per element of A (16 machine words); sparser inputs merge.
MARGINAL_BITS_PER_ELEMENT = 16 * 64


def marginal_set(c: IntSet, a: IntSet, k: int):
    """Elements of 2*c + k*a that 2*c + k*c does not reach.

    ``c`` must be exactly one modulus-k component of ``a``; anything else
    raises InvalidComponentError. Returns a sorted, possibly empty tuple.
    Any integer modulus k >= 2 works, since nothing below needs k prime;
    a non-integer k or k < 2 raises InvalidModulusError.

    Every element of ``c`` is m + k*q with m = min C, so
    2*c + k*x = 2m + k*(2q + x): 2C+kA = 2m + k*(A+2Q) and
    2C+kC = 2m + k*(C+2Q), with Q = (C - m)/k. The range checks of 2C+kA
    (``_marginal_guard``) run once; every reduced sum and its image lie
    within them. Both routes then take the marginal set as the image of
    the difference of the reduced sets, whose span 2*max Q + span(A) is
    about k times smaller than that of 2C+kA. While that span is at most
    MARGINAL_BITS_PER_ELEMENT bits per element of ``a``, both are folded
    as bitmasks, aligned at min A, and the marginal set is
    ``big & ~small``, read out without a Python loop over the bits.
    Otherwise A+2Q is merged pairwise and filtered against C+2Q. A bitmask
    costs |C| shifts of the whole reduced span whatever |A| is, so on
    sparse sets (uniform sets of a few hundred elements over spans of
    1e5-1e6) it loses to the merge's |C|*|A| sums. On the 44 sets of one
    pass of the benchmark's check workload, check_suite took 1.6-1.7 s of
    CPU with the merge everywhere, 1.8-2.2 s with bitmasks everywhere, and
    0.62-0.80, 0.67-0.78 and 0.84-0.88 s with this rule at 8, 16 and 64
    words per element (fastest of three passes, two runs, Python 3.11,
    2-CPU shared host), so 8 and 16 words are within the host's noise.
    Folding both masks with fold_mask measured no slower than writing
    mask(A) and mask(C) from binary digits.
    """
    _checked_component(c, a, k)
    _marginal_guard(c, a, k)
    base = 2 * c.min
    q = IntSet._wrap(tuple((x - c.min) // k for x in c.elements))
    if 2 * q.max + a.span > MARGINAL_BITS_PER_ELEMENT * len(a):
        twice_q = dilate(q, 2)
        big = minkowski_sum(twice_q, a)
        # C+2Q is a subset of A+2Q, so it is formed as the kernel's raw
        # set, with no checks, IntSet or sort.
        small = backend._impl.sumset_elements(twice_q.elements, c.elements)
        return tuple(base + k * y for y in big.elements if y not in small)
    big_base, big = backend._impl.fold_mask((1, 2), (a.elements, q.elements))
    small_base, small = backend._impl.fold_mask((1, 2), (c.elements, q.elements))
    marginal = big & ~(small << (small_base - big_base))
    return backend._impl.mask_elements(base + k * big_base, marginal, k)
