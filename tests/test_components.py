import random

import pytest

from dilates import (
    ArithmeticRangeError,
    IntSet,
    InvalidComponentError,
    InvalidModulusError,
    component_count,
    decompose,
    dilate,
    enumerate_canonical,
    is_full,
    is_odd_prime,
    is_semi_full,
    marginal_set,
    marginal_split,
    minkowski_sum,
    stabilizer,
)

from dilates import backend, components
from dilates.backend import INT64_MAX

from bruteforce import naive_components, naive_marginal


def test_is_odd_prime():
    assert [k for k in range(20) if is_odd_prime(k)] == [3, 5, 7, 11, 13, 17, 19]
    assert not is_odd_prime(2)
    assert not is_odd_prime(9)
    assert not is_odd_prime(15)


class TestDecompose:
    def test_all_residues(self):
        d = decompose(IntSet([0, 1, 2]), 3)
        assert {r: list(b.elements) for r, b in d.blocks.items()} == {
            0: [0],
            1: [1],
            2: [2],
        }
        assert d.component_count == 3

    def test_single_class(self):
        d = decompose(IntSet([0, 3, 6]), 3)
        assert d.residues() == (0,)
        assert d.block(0).elements == (0, 3, 6)
        assert d.component_count == 1

    def test_parity_split(self):
        d = decompose(IntSet([0, 1, 3]), 2)
        assert {r: list(b.elements) for r, b in d.blocks.items()} == {
            0: [0],
            1: [1, 3],
        }

    def test_negative_elements_normalize(self):
        d = decompose(IntSet([-4, -1, 2]), 3)
        assert d.residues() == (2,)

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
            assert {r: list(b.elements) for r, b in d.blocks.items()} == expected


class TestFullness:
    def test_is_full(self):
        assert is_full(IntSet([0, 1, 2]), 3)
        assert not is_full(IntSet([0, 3, 6]), 3)
        assert is_full(IntSet([0, 1, 3]), 2)

    def test_is_semi_full(self):
        assert is_semi_full(IntSet([0, 3, 6]), 3)
        assert not is_semi_full(IntSet([0, 1, 2]), 3)
        assert not is_semi_full(IntSet([0, 9, 18]), 3)


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

    def test_requires_odd_prime(self):
        a = IntSet([0, 1, 2, 3])
        with pytest.raises(InvalidModulusError):
            marginal_set(IntSet([0]), a, 4)
        # relaxation flag admits any modulus >= 2
        assert marginal_set(IntSet([0]), a, 4, relax_modulus=True) == (
            tuple(sorted(set(naive_marginal([0], [0, 1, 2, 3], 4))))
        )

    def test_union_and_disjointness_exhaustive(self):
        for a in enumerate_canonical(3, 9, reflection_quotient=False):
            for k in (3, 5):
                inner_union = set()
                for c in decompose(a, k):
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
            k = rng.choice([3, 5, 7])
            for c in decompose(a, k):
                assert list(marginal_set(c, a, k)) == naive_marginal(
                    c.elements, elems, k
                )


def _set_with_reduced_span(rng, k, target, size):
    """(a, c): a set of ``size`` elements and one of its modulus-k
    components, translated by a random (often negative) offset, with
    2*(max c - min c)/k + span(a) == target."""
    while True:
        base = rng.sample(range(target // 3), size - 1)
        a0 = IntSet(base)
        c = rng.choice(list(decompose(a0, k)))
        top = a0.max + target - _reduced_span(c, a0, k)
        if top <= a0.max or top % k == c.min % k:
            continue
        shift = rng.choice([0, -top, -top // 2, rng.randint(-10**6, 10**6)])
        a = IntSet(x + shift for x in base + [top])
        return a, decompose(a, k).block((c.min + shift) % k)


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
    def _assert_oracle(c, a, k):
        got = marginal_set(c, a, k, relax_modulus=not is_odd_prime(k))
        assert list(got) == naive_marginal(c.elements, a.elements, k)

    def test_word_boundary_spans(self, monkeypatch):
        merges = self._merges(monkeypatch)
        rng = random.Random(19)
        for target in (63, 64, 65, 127, 128, 129):
            for k in (2, 3, 4, 5, 9):
                for _ in range(4):
                    a, c = _set_with_reduced_span(rng, k, target, rng.randint(3, 9))
                    assert _reduced_span(c, a, k) == target
                    self._assert_oracle(c, a, k)
        assert merges == []

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_route_threshold(self, monkeypatch, delta):
        merges = self._merges(monkeypatch)
        rng = random.Random(23 + delta)
        for k in (3, 4, 7):
            size = 4
            target = components.MARGINAL_BITS_PER_ELEMENT * size + delta
            a, c = _set_with_reduced_span(rng, k, target, size)
            before = len(merges)
            self._assert_oracle(c, a, k)
            assert (len(merges) > before) == (delta > 0)

    def test_random_both_routes(self, monkeypatch):
        merges = self._merges(monkeypatch)
        rng = random.Random(29)
        for _ in range(150):
            k = rng.choice([2, 3, 4, 5, 7, 9, 11])
            n = rng.randint(1, 12)
            span = rng.choice([n, 3 * n, 200, 10**4, 10**6])
            lo = rng.choice([0, -span, -span // 2, rng.randint(-10**9, 10**9)])
            a = IntSet(rng.randint(lo, lo + span) for _ in range(n))
            for c in decompose(a, k):
                self._assert_oracle(c, a, k)
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
        for c in decompose(a, 3):
            with pytest.raises(ArithmeticRangeError) as err:
                marginal_set(c, a, 3)
            got.append(str(err.value))
        assert got == messages

    def test_near_int64_sparse_set_fits(self):
        top = INT64_MAX // 5
        a = IntSet([top - 10**6, top - 5 * 10**5, top])
        assert [marginal_set(c, a, 3) for c in decompose(a, 3)] == [
            (9223372036851275805, 9223372036852775805),
            (9223372036851775805, 9223372036853275805),
            (9223372036850775805, 9223372036853775805),
        ]


class TestMarginalSplit:
    def test_all_high(self):
        split = marginal_split(IntSet([0]), IntSet([0, 1, 2]), 3)
        assert split.low == () and split.interior == () and split.high == (3, 6)

    def test_both_sides(self):
        split = marginal_split(IntSet([1]), IntSet([0, 1, 2]), 3)
        assert split.low == (2,) and split.high == (8,)

    def test_all_low(self):
        split = marginal_split(IntSet([2]), IntSet([0, 1, 2]), 3)
        assert split.low == (4, 7) and split.high == ()

    def test_no_merge_on_dense_sets(self, monkeypatch):
        # A dense set takes marginal_set's bitset route, so the split must
        # not need the |C|^2-pair merge of 2*C + k*C either.
        monkeypatch.setattr(backend, "MERGE_PAIR_LIMIT", 10)
        a = IntSet(range(-30, 31))
        for c in decompose(a, 3):
            split = marginal_split(c, a, 3)
            assert split.merged == tuple(naive_marginal(c.elements, a.elements, 3))

    def test_partition_property(self):
        rng = random.Random(13)
        for _ in range(30):
            elems = sorted(rng.sample(range(0, 35), rng.randint(2, 7)))
            a = IntSet(elems)
            for c in decompose(a, 3):
                split = marginal_split(c, a, 3)
                assert split.merged == marginal_set(c, a, 3)
                parts = (set(split.low), set(split.interior), set(split.high))
                assert sum(len(p) for p in parts) == len(split.merged)


def test_component_pieces_disjoint_modulo():
    """n*C + m*B and n*T + m*B never meet for distinct components C, T."""
    bs = [IntSet([0, 1]), IntSet([0, 2, 7]), IntSet([1, 4, 5, 9])]
    for a in enumerate_canonical(4, 8, reflection_quotient=False):
        for n, m in [(2, 3), (3, 4), (2, 5)]:
            blocks = list(decompose(a, m))
            for b in bs:
                pieces = [
                    set(minkowski_sum(dilate(c, n), dilate(b, m)).elements)
                    for c in blocks
                ]
                for i in range(len(pieces)):
                    for j in range(i + 1, len(pieces)):
                        assert pieces[i].isdisjoint(pieces[j])


class TestStabilizer:
    def test_examples(self):
        assert stabilizer([0, 3, 6], 9) == (0, 3, 6)
        assert stabilizer([0, 1], 9) == (0,)
        assert stabilizer(range(9), 9) == tuple(range(9))

    def test_validates(self):
        with pytest.raises(ValueError):
            stabilizer([], 9)
        with pytest.raises(ValueError):
            stabilizer([9], 9)
        with pytest.raises(InvalidModulusError):
            stabilizer([0], 1)

    def test_divisor_property(self):
        rng = random.Random(17)
        for m in (6, 9, 12, 25):
            for _ in range(25):
                x = rng.sample(range(m), rng.randint(1, m))
                stab = stabilizer(x, m)
                assert 0 in stab
                assert len(x) % len(stab) == 0
                assert m % len(stab) == 0
                # closure under addition mod m
                assert {(g + h) % m for g in stab for h in stab} == set(stab)
