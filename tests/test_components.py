import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilates import (
    ArithmeticRangeError,
    IntSet,
    InvalidComponentError,
    InvalidModulusError,
    MergeLimitError,
    component_count,
    decompose,
    dilate,
    is_full,
    is_odd_prime,
    is_semi_full,
    marginal_set,
    minkowski_sum,
)

from dilates import backend, bounds, components
from dilates.backend import INT64_MAX

from bruteforce import (
    naive_canonical_family,
    naive_components,
    naive_fold,
    naive_is_odd_prime,
    naive_marginal,
)


def test_is_odd_prime():
    assert [k for k in range(20) if is_odd_prime(k)] == [3, 5, 7, 11, 13, 17, 19]
    assert not is_odd_prime(2)
    assert not is_odd_prime(9)
    assert not is_odd_prime(15)
    assert not is_odd_prime(7.0)
    assert not is_odd_prime(7.5)


class TestIsOddPrime:
    def test_matches_trial_division(self):
        for k in range(-5, 2 * 10**5):
            assert is_odd_prime(k) == naive_is_odd_prime(k), k

    @pytest.mark.parametrize(
        "k",
        [
            561, 1105, 1729,  # Carmichael numbers
            2047, 3215031751, 3825123056546413051,  # strong pseudoprimes
        ],
    )
    def test_pseudoprimes_rejected(self, k):
        assert not is_odd_prime(k)

    def test_largest_int64_prime_fast(self):
        start = time.perf_counter()
        assert is_odd_prime(9223372036854775783)
        assert not is_odd_prime(9223372036854775781)
        assert time.perf_counter() - start < 1.0

    def test_refuses_odd_k_outside_int64(self):
        with pytest.raises(ArithmeticRangeError, match="modulus"):
            is_odd_prime(INT64_MAX + 2)
        assert not is_odd_prime(INT64_MAX + 1)


class TestDecompose:
    def test_all_residues(self):
        d = decompose(IntSet([0, 1, 2]), 3)
        assert {r: list(b.elements) for r, b in d.items()} == {
            0: [0],
            1: [1],
            2: [2],
        }
        assert len(d) == 3

    def test_single_class(self):
        d = decompose(IntSet([0, 3, 6]), 3)
        assert tuple(d) == (0,)
        assert d[0].elements == (0, 3, 6)
        assert len(d) == 1

    def test_parity_split(self):
        d = decompose(IntSet([0, 1, 3]), 2)
        assert {r: list(b.elements) for r, b in d.items()} == {
            0: [0],
            1: [1, 3],
        }

    def test_negative_elements_normalize(self):
        d = decompose(IntSet([-4, -1, 2]), 3)
        assert tuple(d) == (2,)

    def test_invalid_modulus(self):
        with pytest.raises(InvalidModulusError):
            decompose(IntSet([0, 1]), 1)
        with pytest.raises(InvalidModulusError):
            component_count(IntSet([0, 1]), 0)

    def test_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            elems = sorted(rng.sample(range(-30, 30), rng.randint(1, 8)))
            n = rng.randint(2, 7)
            d = decompose(IntSet(elems), n)
            expected = naive_components(elems, n)
            assert {r: list(b.elements) for r, b in d.items()} == expected
            assert list(d) == sorted(d)


class TestFullness:
    def test_is_full(self):
        assert is_full(IntSet([0, 1, 2]), 3)
        assert not is_full(IntSet([0, 3, 6]), 3)
        assert is_full(IntSet([0, 1, 3]), 2)

    def test_is_semi_full(self):
        assert is_semi_full(IntSet([0, 3, 6]), 3)
        assert not is_semi_full(IntSet([0, 1, 2]), 3)
        assert not is_semi_full(IntSet([0, 9, 18]), 3)

    def test_is_semi_full_matches_components(self):
        # Half the sets are built semi-full, every chosen class mod n**2
        # met by one or two elements, and then lose an element half the time.
        rng = random.Random(23)
        for _ in range(400):
            n = rng.choice([2, 3, 5, 7, 9, 13])
            if rng.random() < 0.5:
                elems = rng.sample(range(-n**3, n**3), rng.randint(1, 3 * n))
            else:
                elems = {
                    r + j * n + n * n * rng.randint(-n, n)
                    for r in rng.sample(range(n), rng.randint(1, n))
                    for j in range(n)
                    for _ in range(rng.randint(1, 2))
                }
                if rng.random() < 0.5:
                    elems.discard(rng.choice(sorted(elems)))
            expected = all(
                len({x % (n * n) for x in comp}) == n
                for comp in naive_components(elems, n).values()
            )
            assert is_semi_full(IntSet(elems), n) == expected

    def test_is_semi_full_refuses_overflowing_square(self):
        with pytest.raises(ArithmeticRangeError, match="overflows"):
            is_semi_full(IntSet([0]), 2**32)


class TestMarginalSet:
    def test_examples(self):
        a = IntSet([0, 1, 2])
        assert marginal_set(IntSet([0]), a, 3) == (3, 6)
        assert marginal_set(IntSet([1]), a, 3) == (2, 8)
        whole = IntSet([0, 3, 6])
        assert marginal_set(whole, whole, 3) == ()

    def test_requires_component(self):
        a = IntSet([0, 1, 2])
        with pytest.raises(InvalidComponentError):
            marginal_set(IntSet([0, 1]), a, 3)
        with pytest.raises(InvalidComponentError):
            marginal_set(IntSet([3]), a, 3)

    def test_accepts_any_integer_modulus_from_two(self):
        # The identity behind marginal_set does not need k prime.
        a = IntSet([0, 1, 2, 3])
        for k in (1, 0, 2.5):
            with pytest.raises(InvalidModulusError):
                marginal_set(IntSet([0]), a, k)
        assert list(marginal_set(IntSet([0]), a, 4)) == naive_marginal(
            [0], [0, 1, 2, 3], 4
        )
        with pytest.raises(TypeError):
            marginal_set(IntSet([0]), a, 4, relax_modulus=True)

    def test_union_and_disjointness_exhaustive(self):
        for a in map(IntSet, naive_canonical_family(3, 9, reflect=False)):
            for k in (3, 5):
                inner_union = set()
                for c in decompose(a, k).values():
                    m = set(marginal_set(c, a, k))
                    small = minkowski_sum(dilate(c, 2), dilate(c, k))
                    big = minkowski_sum(dilate(c, 2), dilate(a, k))
                    assert m.isdisjoint(small.elements)
                    assert m | set(small.elements) == set(big.elements)
                    inner_union |= m

    def test_matches_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            elems = sorted(rng.sample(range(0, 40), rng.randint(2, 8)))
            a = IntSet(elems)
            for k in (2, 3, 4, 5, 7, 9):
                for c in decompose(a, k).values():
                    expected = naive_marginal(c.elements, elems, k)
                    assert list(marginal_set(c, a, k)) == expected


def _set_with_reduced_span(rng, k, target, size):
    """(a, c): a set of ``size`` elements and one of its modulus-k
    components, translated by a random (often negative) offset, with
    2*(max c - min c)/k + span(a) == target."""
    while True:
        base = rng.sample(range(target // 3), size - 1)
        a0 = IntSet(base)
        c = rng.choice(list(decompose(a0, k).values()))
        top = a0.max + target - _reduced_span(c, a0, k)
        if top <= a0.max or top % k == c.min % k:
            continue
        shift = rng.choice([0, -top, -top // 2, rng.randint(-10**6, 10**6)])
        a = IntSet(x + shift for x in base + [top])
        return a, decompose(a, k)[(c.min + shift) % k]


def _set_with_class(rng, k, target, size, class_size):
    """(a, c): a set of ``size`` elements, translated by a random offset,
    and its modulus-k component c of ``class_size`` >= 2 elements, with
    2*(max c - min c)/k + span(a) == target. Before the shift c holds 0,
    the set's least element, and the set's top lies in another class."""
    qmax = target // (k + 2)
    while (target - 2 * qmax) % k == 0:
        qmax -= 1
    top = target - 2 * qmax
    others = {top}
    while len(others) < size - class_size:
        x = rng.randrange(1, top)
        if x % k:
            others.add(x)
    q = [0, qmax] + rng.sample(range(1, qmax), class_size - 2)
    shift = rng.randint(-10**6, 10**6)
    a = IntSet(shift + x for x in [k * y for y in q] + sorted(others))
    return a, decompose(a, k)[shift % k]


def _reduced_span(c, a, k):
    return 2 * (c.max - c.min) // k + a.span


def _reads_out(c, a, k):
    """marginal_set's route rule, written out: the count's bitmask route
    (the reduced span within BITSET_SPAN_LIMIT and within
    MARGINAL_COUNT_BITS_PER_ELEMENT bits per element of A, and |C| times
    it within MARGINAL_COUNT_BITS_PER_ELEMENT * MERGE_PAIR_LIMIT),
    narrowed to FOLD_BITS_PER_SUM bits per sum |A|*|C|."""
    span = _reduced_span(c, a, k)
    per_element = components.MARGINAL_COUNT_BITS_PER_ELEMENT
    return (span <= backend.BITSET_SPAN_LIMIT
            and span <= per_element * len(a)
            and len(c) * span <= per_element * backend.MERGE_PAIR_LIMIT
            and span <= backend.FOLD_BITS_PER_SUM * len(a) * len(c))


class TestMarginalRoutes:
    """marginal_set against the brute-force oracle on both of its routes,
    each on the residue-reduced sets A+2Q and C+2Q: a bitmask readout
    within the count's bitmask route while the reduced span is at most
    FOLD_BITS_PER_SUM bits per sum |A|*|C|, the merge otherwise."""

    @staticmethod
    def _merges(monkeypatch):
        calls = []
        real = components.minkowski_sum
        monkeypatch.setattr(
            components, "minkowski_sum", lambda x, y: calls.append(1) or real(x, y)
        )
        return calls

    @staticmethod
    def _assert_oracle(c, a, k, merges):
        """Check marginal_set against the oracle; True on the merge route.

        The merge route forms A+2Q with one minkowski_sum and C+2Q as
        the kernel's raw set, so it adds exactly one call to ``merges``.
        """
        merge_route = not _reads_out(c, a, k)
        before = len(merges)
        got = marginal_set(c, a, k)
        assert list(got) == naive_marginal(c.elements, a.elements, k)
        assert len(merges) - before == merge_route
        return merge_route

    def test_word_boundary_spans(self, monkeypatch):
        merges = self._merges(monkeypatch)
        rng = random.Random(19)
        for target in (63, 64, 65, 127, 128, 129):
            for k in (2, 3, 4, 5, 9):
                for _ in range(4):
                    # At least target/8 elements, so |A|*|C| >= span/8.
                    size = rng.randint(-(-target // 8), target // 3)
                    a, c = _set_with_reduced_span(rng, k, target, size)
                    assert _reduced_span(c, a, k) == target
                    assert not self._assert_oracle(c, a, k, merges)
        # A dense set stays on the bitmask route, so it forms no pairwise
        # merge and meets no pair limit.
        monkeypatch.setattr(backend, "MERGE_PAIR_LIMIT", 10)
        a = IntSet(range(-30, 31))
        for c in decompose(a, 3).values():
            assert not self._assert_oracle(c, a, 3, merges)

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_route_threshold(self, monkeypatch, delta):
        merges = self._merges(monkeypatch)
        rng = random.Random(23 + delta)
        per_element = components.MARGINAL_COUNT_BITS_PER_ELEMENT
        # The per-sum edge, FOLD_BITS_PER_SUM bits per sum |A|*|C|, far
        # inside the count's bitmask route.
        for k in (3, 4, 7):
            target = backend.FOLD_BITS_PER_SUM * 6 * 3 + delta
            a, c = _set_with_class(rng, k, target, 6, 3)
            assert components._bitmask_route(c, a, k)
            assert self._assert_oracle(c, a, k, merges) == (delta > 0)
        # The per-element edge of the count's route, with |C| large enough
        # that the per-sum rule holds on both sides: marginal_set and the
        # count leave the bitmask together.
        size, class_size = 800, 780
        assert backend.FOLD_BITS_PER_SUM * class_size > per_element
        a, c = _set_with_class(rng, 3, per_element * size + delta, size, class_size)
        assert components._bitmask_route(c, a, 3) == (delta <= 0)
        assert self._assert_oracle(c, a, 3, merges) == (delta > 0)

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_work_bound_edge(self, monkeypatch, delta):
        # |C| * span at most MARGINAL_COUNT_BITS_PER_ELEMENT * MERGE_PAIR_LIMIT:
        # with the pair limit lowered to 12, a class of 3 in a set of 6 is
        # counted by bitmask up to 4 * MARGINAL_COUNT_BITS_PER_ELEMENT bits
        # of reduced span, within the per-element rule, and one bit more
        # sends it to the merge, which refuses its 18 pairs.
        monkeypatch.setattr(backend, "MERGE_PAIR_LIMIT", 12)
        per_element = components.MARGINAL_COUNT_BITS_PER_ELEMENT
        a, c = _set_with_class(random.Random(31 + delta), 3, per_element * 4 + delta, 6, 3)
        assert _reduced_span(c, a, 3) <= per_element * len(a)
        assert components._bitmask_route(c, a, 3) == (delta <= 0)
        if delta > 0:
            with pytest.raises(MergeLimitError):
                bounds._marginal_size(c, a, 3)
        else:
            assert bounds._marginal_size(c, a, 3) == len(
                naive_marginal(c.elements, a.elements, 3))

    def test_random_both_routes(self, monkeypatch):
        merges = self._merges(monkeypatch)
        rng = random.Random(29)
        for _ in range(150):
            k = rng.choice([2, 3, 4, 5, 7, 9, 11])
            n = rng.randint(1, 12)
            span = rng.choice([n, 3 * n, 200, 10**4, 10**6])
            lo = rng.choice([0, -span, -span // 2, rng.randint(-10**9, 10**9)])
            a = IntSet(rng.randint(lo, lo + span) for _ in range(n))
            for c in decompose(a, k).values():
                self._assert_oracle(c, a, k, merges)
        assert merges  # the sparse draws took the merge route

    @pytest.mark.parametrize(
        "elems, messages",
        [
            # Dense (bitset route): 3*min(a) + 2*min(c) overflows.
            (
                range(INT64_MAX // 3 - 40, INT64_MAX // 3 + 1),
                ["sumset minimum 15372286728091292814 is outside the signed 64-bit range",
                 "sumset minimum 15372286728091292810 is outside the signed 64-bit range",
                 "sumset minimum 15372286728091292812 is outside the signed 64-bit range"],
            ),
            # Dense: 3*max(a) overflows before any sum is checked.
            (
                range(INT64_MAX // 3 - 3, INT64_MAX // 3 + 2),
                ["dilated value 9223372036854775809 is outside the signed 64-bit range"] * 3,
            ),
            # Dense: 2*max(c), or else 3*min(a), overflows.
            (
                range(INT64_MAX // 2 - 40, INT64_MAX // 2 + 3),
                ["dilated value 13835058055282163589 is outside the signed 64-bit range",
                 "dilated value 9223372036854775808 is outside the signed 64-bit range",
                 "dilated value 9223372036854775810 is outside the signed 64-bit range"],
            ),
            # Sparse (merge route): 3*max(a) overflows.
            (
                [INT64_MAX // 3 - 10**9, INT64_MAX // 3 - 5 * 10**8, INT64_MAX // 3 + 1],
                ["dilated value 9223372036854775809 is outside the signed 64-bit range"] * 2,
            ),
            # Sparse: every dilate fits, 2*min(c) + 3*min(a) does not.
            (
                [INT64_MAX // 3 - 10**12, INT64_MAX // 3 - 10],
                ["sumset minimum 15372281728091293010 is outside the signed 64-bit range"],
            ),
            # Sparse: 3*min(a) underflows.
            (
                [-(INT64_MAX // 3) - 1, -(INT64_MAX // 3) + 10**9, 0],
                ["dilated value -9223372036854775809 is outside the signed 64-bit range"] * 2,
            ),
            # Sparse: 2*max(c) fits for one component and not for the other.
            (
                [INT64_MAX // 2 - 10**9, INT64_MAX // 2 + 1],
                ["dilated value 9223372036854775808 is outside the signed 64-bit range",
                 "dilated value 13835058052282163709 is outside the signed 64-bit range"],
            ),
        ],
    )
    def test_int64_refusal_messages(self, elems, messages):
        # Messages as the merge-only implementation raised them. The dense
        # ranges take the bitmask route, the sparse lists the merge route.
        a = IntSet(elems)
        got = []
        for c in decompose(a, 3).values():
            assert _reads_out(c, a, 3) == isinstance(elems, range)
            with pytest.raises(ArithmeticRangeError) as err:
                marginal_set(c, a, 3)
            got.append(str(err.value))
        assert got == messages

    def test_merge_pair_limit_refusal(self, monkeypatch):
        # The merge route forms |C| x |A| sums, refused above the pair limit.
        monkeypatch.setattr(backend, "MERGE_PAIR_LIMIT", 10)
        a = IntSet([0, 3, 6, 9, 10**7, 10**7 + 1])
        with pytest.raises(MergeLimitError) as err:
            marginal_set(decompose(a, 3)[0], a, 3)
        assert str(err.value) == (
            "merge of 4 x 6 elements would form 24 sums, above the limit of 10"
        )

    def test_near_int64_sparse_set_fits(self):
        top = INT64_MAX // 5
        a = IntSet([top - 10**6, top - 5 * 10**5, top])
        assert [marginal_set(c, a, 3) for c in decompose(a, 3).values()] == [
            (9223372036851275805, 9223372036852775805),
            (9223372036851775805, 9223372036853275805),
            (9223372036850775805, 9223372036853775805),
        ]


class TestMarginalSize:
    """bounds._marginal_size, the checkers' |M_C|, against
    len(marginal_set) and the brute-force oracle, with each count route
    forced through components.MARGINAL_COUNT_BITS_PER_ELEMENT: 0 leaves
    the bitmask route only to singleton sets (reduced span 0), a huge
    value takes it everywhere."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-25, 25), min_size=1, max_size=10, unique=True),
        st.integers(-60, 60),
        st.sampled_from((1, 2, "k")),
        st.sampled_from((3, 5, 7)),
    )
    def test_reduced_masks_match_oracle(self, base, shift, gap, k):
        # The mask of C+2Q is the fold 2Q+kQ, built from Q alone, so
        # |C+2Q| = |2Q+kQ|.
        g = k if gap == "k" else gap
        a = IntSet(shift + g * x for x in base)
        for c in decompose(a, k).values():
            q = [(x - c.min) // k for x in c.elements]
            big, small = components._reduced_masks(c, a, k)
            a_2q = naive_fold([(1, a.elements), (2, q)])
            c_2q = naive_fold([(1, c.elements), (2, q)])
            assert list(backend._impl.mask_elements(a.min, big)) == a_2q
            assert list(backend._impl.mask_elements(c.min, small)) == c_2q
            assert small.bit_count() == len(c_2q) == len(naive_fold([(2, q), (k, q)]))

    @pytest.mark.parametrize("bits", [0, 10**9])
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-25, 25), min_size=1, max_size=10, unique=True),
        st.integers(-60, 60),
        st.sampled_from((1, 2, "k")),
        st.sampled_from((3, 5, 7)),
    )
    def test_matches_marginal_set_and_oracle(self, bits, base, shift, gap, k):
        g = k if gap == "k" else gap
        a = IntSet(shift + g * x for x in base)
        reads, sets = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(components, "MARGINAL_COUNT_BITS_PER_ELEMENT", bits)
            real_reads = backend._impl.mask_elements
            mp.setattr(backend._impl, "mask_elements",
                       lambda *args: reads.append(1) or real_reads(*args))
            mp.setattr(bounds, "marginal_set",
                       lambda *args: sets.append(1) or marginal_set(*args))
            classes = decompose(a, k).values()
            merges = readouts = 0
            for c in classes:
                merge_route = not components._bitmask_route(c, a, k)
                assert merge_route == (bits == 0 and len(a) > 1)
                merges += merge_route
                readouts += _reads_out(c, a, k)
                size = bounds._marginal_size(c, a, k)
                assert size == len(naive_marginal(c.elements, a.elements, k))
                assert size == len(marginal_set(c, a, k))
        # The size reads no mask out, and its merge route goes through
        # bounds.marginal_set (one call per class); the rest are the
        # comparisons' own calls.
        assert len(reads) == readouts
        assert len(sets) == merges

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 400), min_size=1, max_size=40, unique=True),
        st.sampled_from((1, 2, 7, 60, 500, 4000)),
        st.integers(-10**6, 10**6),
        st.sampled_from((3, 5, 7)),
        st.sampled_from((4, 16, 64, components.MARGINAL_COUNT_BITS_PER_ELEMENT)),
    )
    def test_count_route_reaches_past_marginal_set(self, base, scale, shift, k, bits):
        # Every class that marginal_set reads out is one that the count
        # takes by bitmask, so no class both merges in the count and
        # reads a mask out. Below its real value, the count's threshold
        # binds before FOLD_BITS_PER_SUM does on these small sets.
        a = IntSet(shift + scale * x for x in base)
        reads, sets = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(components, "MARGINAL_COUNT_BITS_PER_ELEMENT", bits)
            real_reads = backend._impl.mask_elements
            mp.setattr(backend._impl, "mask_elements",
                       lambda *args: reads.append(1) or real_reads(*args))
            mp.setattr(bounds, "marginal_set",
                       lambda *args: sets.append(1) or marginal_set(*args))
            for c in decompose(a, k).values():
                del reads[:], sets[:]
                elements = marginal_set(c, a, k)
                size = bounds._marginal_size(c, a, k)
                assert size == len(elements)
                assert not (reads and sets)
        # The count's bitmask reaches past marginal_set's: it pays no
        # O(span) readout, so it keeps the bitmask at any number of bits
        # per sum.
        a = IntSet([0, 1, 3000, 9001])
        c = decompose(a, 3)[0]
        span = 2 * ((c.max - c.min) // 3) + a.span
        assert backend.FOLD_BITS_PER_SUM * len(a) * len(c) < span
        assert not _reads_out(c, a, 3)
        assert components._bitmask_route(c, a, 3)
        assert bounds._marginal_size(c, a, 3) == len(naive_marginal(c.elements, a.elements, 3))

    def test_span_cap_sends_a_large_set_to_the_merge(self, monkeypatch):
        # 99,834 elements over [0, 6e7]: per element, the reduced span of
        # about 1e8 bits is within the count's threshold, but it is above
        # BITSET_SPAN_LIMIT, so both routes merge, and the merge's |C| x |A|
        # pairs are refused before anything of that size is built.
        a = IntSet(range(0, 6 * 10**7, 601))
        per_element = components.MARGINAL_COUNT_BITS_PER_ELEMENT
        assert len(a) > backend.BITSET_SPAN_LIMIT // per_element

        def no_mask(*args):
            raise AssertionError("a bitmask was folded")

        monkeypatch.setattr(backend._impl, "fold_mask", no_mask)
        for c in decompose(a, 3).values():
            span = 2 * ((c.max - c.min) // 3) + a.span
            assert backend.BITSET_SPAN_LIMIT < span <= per_element * len(a)
            assert not components._bitmask_route(c, a, 3)
            start = time.perf_counter()
            with pytest.raises(MergeLimitError):
                bounds._marginal_size(c, a, 3)
            with pytest.raises(MergeLimitError):
                marginal_set(c, a, 3)
            assert time.perf_counter() - start < 1.0

    def test_work_bound_sends_a_large_class_to_the_merge(self, monkeypatch):
        # The 20,001 multiples of 600 in [0, 1.2e7] form one class mod 3.
        # Its reduced span, 2e7 bits, is within BITSET_SPAN_LIMIT and
        # within 1,000 bits per element, but |C| shifts of it would cost
        # more than the largest merge the pair limit allows. So both
        # routes merge, and the merge refuses its 4e8 pairs at once.
        a = IntSet(range(0, 12 * 10**6 + 1, 600))
        (c,) = decompose(a, 3).values()
        span = _reduced_span(c, a, 3)
        per_element = components.MARGINAL_COUNT_BITS_PER_ELEMENT
        assert span <= min(backend.BITSET_SPAN_LIMIT, per_element * len(a))
        assert len(c) * span > per_element * backend.MERGE_PAIR_LIMIT
        assert not components._bitmask_route(c, a, 3)

        def no_mask(*args):
            raise AssertionError("a bitmask was folded")

        monkeypatch.setattr(backend._impl, "fold_mask", no_mask)
        start = time.perf_counter()
        with pytest.raises(MergeLimitError):
            bounds._marginal_size(c, a, 3)
        with pytest.raises(MergeLimitError):
            marginal_set(c, a, 3)
        assert time.perf_counter() - start < 1.0

    def test_refusals_match_marginal_set(self):
        # Dense (bitmask route) and sparse (merge route) sets whose range
        # checks refuse some classes.
        for elems in (
            range(INT64_MAX // 3 - 40, INT64_MAX // 3 + 1),
            [INT64_MAX // 2 - 10**9, INT64_MAX // 2 + 1],
        ):
            a = IntSet(elems)
            for c in decompose(a, 3).values():
                with pytest.raises(ArithmeticRangeError) as want:
                    marginal_set(c, a, 3)
                with pytest.raises(ArithmeticRangeError) as got:
                    bounds._marginal_size(c, a, 3)
                assert str(got.value) == str(want.value)


def test_component_pieces_disjoint_modulo():
    """n*C + m*B and n*T + m*B never meet for distinct components C, T."""
    bs = [IntSet([0, 1]), IntSet([0, 2, 7]), IntSet([1, 4, 5, 9])]
    for a in map(IntSet, naive_canonical_family(4, 8, reflect=False)):
        for n, m in [(2, 3), (3, 4), (2, 5)]:
            blocks = list(decompose(a, m).values())
            for b in bs:
                pieces = [
                    set(minkowski_sum(dilate(c, n), dilate(b, m)).elements)
                    for c in blocks
                ]
                for i in range(len(pieces)):
                    for j in range(i + 1, len(pieces)):
                        assert pieces[i].isdisjoint(pieces[j])
