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


# The marginal sets' one route constant. |M_C| is counted from bitmasks
# while the reduced span is at most this many bits per element of A (96
# machine words), within BITSET_SPAN_LIMIT, and, times |C|, within this many
# times MERGE_PAIR_LIMIT. marginal_set reads a mask out only there, narrowed
# to FOLD_BITS_PER_SUM bits per sum. _bitmask_route gives the measurements.
MARGINAL_COUNT_BITS_PER_ELEMENT = 96 * 64


def _bitmask_route(c: IntSet, a: IntSet, k: int) -> bool:
    """True when the checkers count |M_C| from bitmasks (see
    bounds._marginal_size); marginal_set reads a mask out only within
    this route. The reduced span 2*max Q + span(A), with
    Q = (C - min C)/k, must be at most backend.BITSET_SPAN_LIMIT bits,
    at most MARGINAL_COUNT_BITS_PER_ELEMENT bits per element of ``a``,
    and at most MARGINAL_COUNT_BITS_PER_ELEMENT * MERGE_PAIR_LIMIT / |C|.

    The count costs |Q| shifts of the reduced span, the merge |Q|*|A|
    sums. Measured on the benchmark's check pool (352 sets, 1,644
    classes; best of three calls per class, Python 3.11, 2-CPU shared
    host), the count's time over the merge's, median per stratum, was 0.9
    and 0.7 at 4,500-5,500 bits per element (|A| = 300 over [0, 1e6],
    k = 5 and 3), 1.3 at 7,500 (|A| = 150, k = 13), and 2.9 and 5.1 at
    11,000-16,600 (|A| = 100, k = 3 and 7). Summed over the pool, in three
    runs, 96 words gave 86, 107 and 88 ms per pass; 128 words gave 88,
    110 and 90; 16 words 99, 119 and 100; and the count everywhere 105,
    125 and 104.

    The last bound caps the count's work. At that many bits per element
    the count's |C| shifts cost about what the merge's |C|*|A| sums do,
    so a bitmask never does more work than the largest merge that
    MERGE_PAIR_LIMIT allows; a class beyond it goes to the merge, which
    refuses it at once if it is that large. The largest |C| * span of
    the check pool, 2.7e8, is far below the cap of 1.03e11.
    """
    span = 2 * ((c.max - c.min) // k) + a.span
    return span <= min(backend.BITSET_SPAN_LIMIT, MARGINAL_COUNT_BITS_PER_ELEMENT * len(a),
                       MARGINAL_COUNT_BITS_PER_ELEMENT * backend.MERGE_PAIR_LIMIT // len(c))


def _reduced_masks(c: IntSet, a: IntSet, k: int):
    """(A+2Q, C+2Q) as bitmasks: bit p of the first marks min A + p, bit p
    of the second min C + p.

    Both are ``fold_mask`` results, whose base is the least sum; 0 is the
    least element of Q. C+2Q = min C + (kQ + 2Q), so the second is the
    fold 2Q+kQ, built from Q alone: no mask of C is written, and a
    popcount needs no alignment with A.
    """
    q = tuple((x - c.min) // k for x in c.elements)
    big = backend._impl.fold_mask((1, 2), (a.elements, q))[1]
    small = backend._impl.fold_mask((2, k), (q, q))[1]
    return big, small


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
    about k times smaller than that of 2C+kA. Where the checkers count
    |M_C| from bitmasks (_bitmask_route) and that span is at most
    backend.FOLD_BITS_PER_SUM bits per sum |A|*|C| the merge would form,
    both are folded as bitmasks, aligned at min A, and the marginal set is
    ``big & ~small``, read out without a Python loop over the bits.
    Otherwise A+2Q is merged pairwise and filtered against C+2Q, and
    MERGE_PAIR_LIMIT refuses a merge too large for it before anything is
    built. So every class read out here is one that
    ``bounds._marginal_size`` counts by popcount, and every class it sends
    here merges.

    The readout costs |C| shifts of the reduced span and one pass over
    it, the merge |C|*|A| sums, so bits per sum separate the routes, as
    in backend.fold_elements, and bits per element do not. Timed per
    class with each route forced (best of three calls, Python 3.11, 2-CPU
    shared host, three runs; BENCH_readout_rule.json), the bitmask was
    faster in every class below 6 bits per sum, in half or more at 6-8,
    in under half at 8-10 and in none above 16. Per element there is no
    such edge: on the check pool it won about half the classes at 64-128
    bits, 92-95% at 128-256 and about half at 256-512. On the 822
    classes of four members of every check stratum,
    this rule summed to within 0.2% of the faster route everywhere and
    misrouted 17-26 classes, the worst 1.24 times slower than the faster
    route; the former rule (16 machine words per element) summed 2.2-2.6%
    above it and misrouted 90-111, the worst 4.1-4.7 times slower. On 216
    random classes (|A| of 50-2000, k of 3, 7 or 13, 4-4096 bits per
    element) this rule summed 1.8-4.1% above the faster route and
    misrouted 6-8 classes, the worst 1.24-1.43 times slower; the former
    summed 45-49% above it and misrouted 44-46, the worst 10-14 times
    slower. This rule's misroutes all lie at 6-12.5 bits per sum.
    """
    _checked_component(c, a, k)
    _marginal_guard(c, a, k)
    base = 2 * c.min
    span = 2 * ((c.max - c.min) // k) + a.span
    if _bitmask_route(c, a, k) and span <= backend.FOLD_BITS_PER_SUM * len(a) * len(c):
        big, small = _reduced_masks(c, a, k)
        return backend._impl.mask_elements(
            base + k * a.min, big & ~(small << (c.min - a.min)), k)
    q = IntSet._wrap(tuple((x - c.min) // k for x in c.elements))
    twice_q = dilate(q, 2)
    big = minkowski_sum(twice_q, a)
    # C+2Q is a subset of A+2Q, so it is formed as the kernel's raw set,
    # with no checks, IntSet or sort.
    small = backend._impl.sumset_elements(twice_q.elements, c.elements)
    return tuple(base + k * y for y in big.elements if y not in small)
