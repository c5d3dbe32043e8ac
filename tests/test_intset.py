import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilates import (
    ArithmeticRangeError,
    DilateSpec,
    IntSet,
    InvalidCoefficientError,
    canonicalize,
    dilate,
    dilate_sum,
    dilate_sum_size,
    minkowski_sum,
)
from dilates.backend import INT64_MAX, INT64_MIN

from bruteforce import naive_dilate_sum, naive_sumset

small_sets = st.sets(st.integers(-60, 60), min_size=1, max_size=7).map(IntSet)
nonzero = st.integers(-9, 9).filter(lambda c: c != 0)


class Tagged(int):
    """A plain int subclass, which coercion must still accept."""


class TestIntSet:
    def test_sorts_and_dedupes(self):
        assert IntSet([3, 1, 3, 0]).elements == (0, 1, 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IntSet([])

    def test_rejects_out_of_range(self):
        with pytest.raises(ArithmeticRangeError):
            IntSet([1 << 63])
        with pytest.raises(ArithmeticRangeError):
            IntSet([INT64_MIN - 1])

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            IntSet([1.5, 2.7])
        with pytest.raises(TypeError):
            IntSet([3.0])

    def test_accepts_int_subclasses_and_bools(self):
        a = IntSet([Tagged(5), Tagged(-2)])
        assert a.elements == (-2, 5)
        assert all(type(x) is int for x in a.elements)
        # bools are ints to operator.index, so True and 1 coincide
        assert IntSet([True, False, 1]).elements == (0, 1)

    def test_basics(self):
        a = IntSet([5, -2, 9])
        assert len(a) == 3
        assert a.min == -2 and a.max == 9 and a.span == 11
        assert 5 in a and 6 not in a
        assert a == IntSet([9, 5, -2])
        assert IntSet([1]) != (1,)
        assert not (IntSet([1]) == [1])
        # `<` on a Python set means proper subset, so IntSet defines no order.
        with pytest.raises(TypeError):
            IntSet([0, 1]) < IntSet([0, 2])


class TestMinkowskiSum:
    def test_identity_element(self):
        assert minkowski_sum(IntSet([0]), IntSet([5, 9])).elements == (5, 9)

    def test_small(self):
        assert minkowski_sum(IntSet([0, 1]), IntSet([0, 3])).elements == (0, 1, 3, 4)

    def test_collision(self):
        got = minkowski_sum(IntSet([0, 2, 6]), IntSet([0, 3, 9]))
        assert got.elements == (0, 2, 3, 5, 6, 9, 11, 15)
        assert len(got) == 8
        assert list(got.elements) == naive_sumset([0, 2, 6], [0, 3, 9])

    def test_overflow(self):
        with pytest.raises(ArithmeticRangeError):
            minkowski_sum(IntSet([INT64_MAX]), IntSet([1]))
        with pytest.raises(ArithmeticRangeError):
            minkowski_sum(IntSet([INT64_MIN]), IntSet([-1]))

    @given(small_sets, small_sets)
    def test_matches_oracle_and_lower_bound(self, a, b):
        got = minkowski_sum(a, b)
        assert list(got.elements) == naive_sumset(a.elements, b.elements)
        assert len(got) >= len(a) + len(b) - 1

    @given(small_sets, small_sets)
    def test_commutative(self, a, b):
        assert minkowski_sum(a, b) == minkowski_sum(b, a)

    @given(small_sets, small_sets, small_sets)
    @settings(max_examples=60)
    def test_associative(self, a, b, c):
        left = minkowski_sum(minkowski_sum(a, b), c)
        right = minkowski_sum(a, minkowski_sum(b, c))
        assert left == right


class TestDilate:
    def test_identity(self):
        assert dilate(IntSet([4, 7]), 1).elements == (4, 7)

    def test_scaling(self):
        assert dilate(IntSet([0, 1, 3]), 3).elements == (0, 3, 9)

    def test_negative_resorts(self):
        assert dilate(IntSet([0, 1, 3]), -2).elements == (-6, -2, 0)

    def test_zero_rejected(self):
        with pytest.raises(InvalidCoefficientError):
            dilate(IntSet([0, 1]), 0)

    def test_rejects_non_integer_coefficient(self):
        with pytest.raises(TypeError):
            dilate(IntSet([1, 2]), 2.5)
        got = dilate(IntSet([1, 2]), True)
        assert got == IntSet([1, 2])
        assert all(type(x) is int for x in got.elements)

    def test_overflow(self):
        with pytest.raises(ArithmeticRangeError):
            dilate(IntSet([INT64_MAX // 2 + 1]), 2)

    @given(small_sets, nonzero)
    def test_size_preserved(self, a, r):
        assert len(dilate(a, r)) == len(a)


class TestDilateSum:
    def test_pair_examples(self):
        assert dilate_sum(IntSet([0, 1]), (2, 3)).elements == (0, 2, 3, 5)
        assert len(dilate_sum(IntSet([0, 1, 3]), (2, 3))) == 8
        assert len(dilate_sum(IntSet([0, 1, 2]), (2, 3))) == 9

    def test_examples_match_oracle(self):
        for elems in [(0, 1), (0, 1, 3), (0, 1, 2)]:
            got = dilate_sum(IntSet(elems), (2, 3))
            assert list(got.elements) == naive_dilate_sum(elems, (2, 3))

    def test_spec_validation(self):
        with pytest.raises(InvalidCoefficientError):
            DilateSpec((2, 0))
        with pytest.raises(InvalidCoefficientError):
            DilateSpec((2, 2))
        with pytest.raises(InvalidCoefficientError):
            DilateSpec(())

    def test_spec_rejects_non_integers(self):
        with pytest.raises(TypeError):
            DilateSpec((2.9, 3))

    def test_spec_accepts_int_subclasses_and_bools(self):
        assert DilateSpec((Tagged(3), Tagged(-2))).coefficients == (-2, 3)
        assert DilateSpec((True, 3)).coefficients == (1, 3)
        with pytest.raises(InvalidCoefficientError):
            DilateSpec((False, 3))

    def test_spec_normalizes(self):
        spec = DilateSpec([3, -1, 2])
        assert spec.coefficients == (-1, 2, 3)
        assert spec.weight == 6
        assert spec.magnitude_gcd == 1
        with pytest.raises(TypeError):
            len(spec)

    @given(small_sets, st.lists(nonzero, min_size=1, max_size=3, unique=True))
    @settings(max_examples=80)
    def test_matches_oracle(self, a, coeffs):
        got = dilate_sum(a, coeffs)
        expected = naive_dilate_sum(a.elements, tuple(sorted(coeffs)))
        assert list(got.elements) == expected
        assert dilate_sum_size(a, coeffs) == len(expected)


class TestCanonicalize:
    def test_singleton(self):
        assert canonicalize(IntSet([7])).elements == (0,)

    def test_shift_and_scale(self):
        a = IntSet([10, 16, 22])
        canon = canonicalize(a)
        assert canon.elements == (0, 1, 2)
        assert IntSet(a.min + 6 * x for x in canon.elements) == a

    def test_already_canonical(self):
        assert canonicalize(IntSet([0, 1, 3])).elements == (0, 1, 3)

    def test_leaves_int64_on_a_wide_set(self):
        got = canonicalize(IntSet([INT64_MIN, 0, INT64_MAX]))
        assert got.elements == (0, 2**63, 2**64 - 1)

    @given(small_sets)
    def test_idempotent_and_invertible(self, a):
        canon = canonicalize(a)
        assert canon.min == 0
        if len(canon) > 1:
            assert math.gcd(*canon.elements) == 1
        assert canonicalize(canon) == canon
        # a is a.min + g*x over the canonical x, g the gcd of a's gaps.
        g = math.gcd(*(x - a.min for x in a.elements)) or 1
        assert IntSet(a.min + g * x for x in canon.elements) == a

    @given(small_sets, st.lists(nonzero, min_size=1, max_size=3, unique=True))
    @settings(max_examples=60)
    def test_preserves_dilate_sum_size(self, a, coeffs):
        canon = canonicalize(a)
        assert dilate_sum_size(canon, coeffs) == dilate_sum_size(a, coeffs)


@given(small_sets, nonzero, nonzero, nonzero, st.integers(-40, 40))
@settings(max_examples=120)
def test_affine_invariance_of_pair_sums(a, r, s, u, v):
    base = len(dilate_sum(a, (r, s))) if r != s else None
    if base is None:
        return
    shifted = IntSet(x + v for x in a)
    scaled = IntSet(u * x for x in a)
    assert len(dilate_sum(shifted, (r, s))) == base
    assert len(dilate_sum(scaled, (r, s))) == base


def test_sum_pool_records_pinned(perfbench_pool):
    """One pool member per stratum of the benchmark's sum workload (member
    ``stratum % 8``), sized and materialized: both match the pinned count,
    the elements ascend strictly and match the pinned digest, and an
    out-of-range input is refused by both."""
    workloads, pins = perfbench_pool
    assert len(workloads.SUM_STRATA) == 44
    mismatched = []
    for stratum in range(len(workloads.SUM_STRATA)):
        member = stratum % workloads.MEMBERS
        _, elems, coeffs = workloads.sum_member(stratum, member)
        a, pin = IntSet(elems), pins["sum"][f"{stratum}:{member}"]
        if "refused" in pin:
            for fn in (dilate_sum, dilate_sum_size):
                with pytest.raises(ArithmeticRangeError):
                    fn(a, coeffs)
            continue
        got = dilate_sum(a, coeffs).elements
        if not (
            dilate_sum_size(a, coeffs) == len(got) == pin["size"]
            and all(x < y for x, y in zip(got, got[1:]))
            and workloads.elements_digest(got) == pin["digest"]
        ):
            mismatched.append(f"{stratum}:{member}")
    assert mismatched == []
