import importlib.util
import os
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilates import backend
from dilates.backend import fold_elements, fold_size, sumset, use_backend
from dilates.errors import ArithmeticRangeError, MergeLimitError
from dilates.intset import IntSet, dilate_sum, minkowski_sum

from bruteforce import naive_fold, naive_sumset

BACKENDS = backend.available_backends()


@contextmanager
def switched(name):
    prior = use_backend(name)
    try:
        yield
    finally:
        use_backend(prior)


def test_compiled_kernels_present():
    if os.environ.get("DILATES_PURE"):
        pytest.skip("pure backend forced via environment")
    # Skip only when no extension file is on the package path; one that is
    # present but fails to import still fails the assertions below.
    if importlib.util.find_spec("dilates._core") is None:
        pytest.skip("dilates._core is not built (python setup.py build_ext --inplace)")
    assert "compiled" in BACKENDS
    assert backend.backend_name() == "compiled"


def test_use_backend_round_trip():
    prior = backend.backend_name()
    other = "pure" if prior == "compiled" else prior
    assert use_backend(other) == prior
    assert backend.backend_name() == other
    use_backend(prior)
    with pytest.raises(ValueError):
        use_backend("gpu")


elem_sets = st.sets(st.integers(-50, 50), min_size=1, max_size=8).map(
    lambda s: tuple(sorted(s))
)
coeff_lists = st.lists(
    st.integers(-7, 7).filter(lambda c: c != 0), min_size=1, max_size=3, unique=True
)


@pytest.mark.parametrize("name", BACKENDS)
@given(elem_sets, elem_sets)
@settings(max_examples=100)
def test_sumset_matches_oracle(name, a, b):
    with switched(name):
        assert list(sumset(a, b)) == naive_sumset(a, b)


@pytest.mark.parametrize("name", BACKENDS)
@given(elem_sets, coeff_lists)
@settings(max_examples=100)
def test_fold_matches_oracle(name, elems, coeffs):
    terms = tuple((c, elems) for c in coeffs)
    expected = naive_fold(terms)
    with switched(name):
        assert list(fold_elements(terms)) == expected
        assert fold_size(terms) == len(expected)


@pytest.mark.parametrize("name", BACKENDS)
@given(elem_sets, elem_sets)
@settings(max_examples=50)
def test_mixed_term_fold(name, a, b):
    terms = ((2, a), (3, b))
    with switched(name):
        assert fold_size(terms) == len(naive_fold(terms))


@pytest.mark.parametrize("name", BACKENDS)
def test_bitset_and_merge_routes_agree(name):
    # Force the merge route by shrinking the span limit.
    elems = tuple(range(0, 4000, 7)) + (4001, 4003)
    terms = ((2, elems), (5, elems))
    with switched(name):
        via_bitset = fold_size(terms)
        saved = backend.BITSET_SPAN_LIMIT
        backend.BITSET_SPAN_LIMIT = 0
        try:
            via_merge = fold_size(terms)
        finally:
            backend.BITSET_SPAN_LIMIT = saved
        assert via_bitset == via_merge == len(fold_elements(terms))


def test_backends_agree_on_wide_values():
    big = tuple(sorted({3, 10**12, 10**12 + 7, 5 * 10**14}))
    terms = ((2, big), (-3, big))
    results = set()
    for name in BACKENDS:
        with switched(name):
            results.add((fold_size(terms), fold_elements(terms)))
    assert len(results) == 1
    size, elems = results.pop()
    assert size == len(elems) == len(naive_fold(terms))


@pytest.mark.parametrize("name", BACKENDS)
def test_fold_guard_rejects_overflow(name):
    terms = ((2, (backend.INT64_MAX,)),)
    with switched(name):
        with pytest.raises(ArithmeticRangeError):
            fold_size(terms)
        with pytest.raises(ArithmeticRangeError):
            fold_elements(terms)


def test_fold_requires_terms():
    with pytest.raises(ValueError):
        fold_size(())


class _NoKernels:
    def __getattr__(self, name):
        raise AssertionError(f"kernel {name} reached")


def test_merge_pair_limit_refuses_before_merging(monkeypatch):
    # Two wide 10^5-element sets: 10^10 pairs, refused by arithmetic on
    # the sizes alone.
    a = IntSet(range(0, 10**5 * 10**6, 10**6))
    b = IntSet(range(1, 10**5 * 10**6, 10**6))
    assert len(a) * len(b) > backend.MERGE_PAIR_LIMIT
    monkeypatch.setattr(backend, "_impl", _NoKernels())
    with pytest.raises(MergeLimitError):
        minkowski_sum(a, b)
    with pytest.raises(MergeLimitError):
        dilate_sum(a, (1, 3))


@pytest.mark.parametrize("name", BACKENDS)
def test_merge_pair_limit_is_inclusive(monkeypatch, name):
    monkeypatch.setattr(backend, "MERGE_PAIR_LIMIT", 12)
    with switched(name):
        assert sumset((0, 1, 2), (0, 5, 10, 15)) == tuple(naive_sumset((0, 1, 2), (0, 5, 10, 15)))
        with pytest.raises(MergeLimitError):
            sumset((0, 1, 2), (0, 5, 10, 15, 20))
        # fold steps: 3 x 4 = 12 pairs, then 12 x 2 = 24 refused
        terms = ((1, (0, 1, 2)), (5, (0, 1, 2, 3)))
        assert fold_elements(terms) == tuple(naive_fold(terms))
        with pytest.raises(MergeLimitError):
            fold_elements(((1, (0, 1, 2)), (5, (0, 1, 2, 3)), (100, (0, 1))))
