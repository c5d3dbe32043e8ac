import random
import time

import pytest

from dilates import (
    ArithmeticRangeError,
    IntSet,
    InvalidComponentError,
    InvalidModulusError,
    component_count,
    decompose,
    dilate,
    is_full,
    is_odd_prime,
    is_semi_full,
    marginal_set,
    minkowski_sum,
)

from dilates import backend, components
from dilates.backend import INT64_MAX

from bruteforce import (
    naive_canonical_family,
    naive_components,
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


def _reduced_span(c, a, k):
    return 2 * (c.max - c.min) // k + a.span


class TestMarginalRoutes:
    """marginal_set against the brute-force oracle on both of its routes:
    residue-reduced bitmasks while the reduced span is at most
    MARGINAL_BITS_PER_ELEMENT bits per element of A, the merge above."""

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

        The merge route forms 2C+kA with one minkowski_sum and 2C+kC as
        the kernel's raw set, so it adds exactly one call to ``merges``.
        """
        merge_route = _reduced_span(c, a, k) > components.MARGINAL_BITS_PER_ELEMENT * len(a)
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
                    a, c = _set_with_reduced_span(rng, k, target, rng.randint(3, 9))
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
        for k in (3, 4, 7):
            size = 4
            target = components.MARGINAL_BITS_PER_ELEMENT * size + delta
            a, c = _set_with_reduced_span(rng, k, target, size)
            assert self._assert_oracle(c, a, k, merges) == (delta > 0)

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
        ],
    )
    def test_int64_refusal_messages(self, elems, messages):
        # Messages as the merge-only implementation raised them.
        a = IntSet(elems)
        got = []
        for c in decompose(a, 3).values():
            with pytest.raises(ArithmeticRangeError) as err:
                marginal_set(c, a, 3)
            got.append(str(err.value))
        assert got == messages

    def test_near_int64_sparse_set_fits(self):
        top = INT64_MAX // 5
        a = IntSet([top - 10**6, top - 5 * 10**5, top])
        assert [marginal_set(c, a, 3) for c in decompose(a, 3).values()] == [
            (9223372036851275805, 9223372036852775805),
            (9223372036851775805, 9223372036853275805),
            (9223372036850775805, 9223372036853775805),
        ]


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
