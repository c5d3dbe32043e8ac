import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dilates import _core_py, backend
from dilates.backend import fold_elements, fold_size, sumset, use_backend
from dilates.bounds import ap_recompute
from dilates.errors import ArithmeticRangeError, MergeLimitError
from dilates.intset import IntSet, dilate_sum, dilate_sum_size, minkowski_sum

from bruteforce import naive_fold, naive_sumset


def test_use_backend_round_trip():
    assert backend.backend_name() == "pure"
    assert use_backend("pure") == "pure"
    with pytest.raises(RuntimeError):
        use_backend("compiled")
    with pytest.raises(ValueError):
        use_backend("gpu")
    assert backend.backend_name() == "pure"


elem_sets = st.sets(st.integers(-50, 50), min_size=1, max_size=8).map(
    lambda s: tuple(sorted(s))
)
coeff_lists = st.lists(
    st.integers(-7, 7).filter(lambda c: c != 0), min_size=1, max_size=3, unique=True
)


@given(elem_sets, elem_sets)
@settings(max_examples=100)
@example((-1000, -257, -64, -3, 0, 12), (-4096, -77, -1, 5, 300))
def test_sumset_matches_oracle(a, b):
    # sumset returns the sorted merge kernel's tuple as it is.
    got = sumset(a, b)
    assert isinstance(got, tuple)
    assert list(got) == naive_sumset(a, b)


@given(elem_sets, coeff_lists)
@settings(max_examples=100)
def test_fold_matches_oracle(elems, coeffs):
    terms = tuple((c, elems) for c in coeffs)
    expected = naive_fold(terms)
    assert list(fold_elements(terms)) == expected
    assert fold_size(terms) == len(expected)


@given(elem_sets, elem_sets)
@settings(max_examples=50)
def test_mixed_term_fold(a, b):
    terms = ((2, a), (3, b))
    assert fold_size(terms) == len(naive_fold(terms))


def test_bitset_and_merge_routes_agree():
    # Force the merge route by shrinking the span limit.
    elems = tuple(range(0, 4000, 7)) + (4001, 4003)
    terms = ((2, elems), (5, elems))
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
    elems = fold_elements(terms)
    assert fold_size(terms) == len(elems) == len(naive_fold(terms))
    assert list(elems) == naive_fold(terms)


def test_fold_guard_rejects_overflow():
    terms = ((2, (backend.INT64_MAX,)),)
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


def test_merge_pair_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(backend, "MERGE_PAIR_LIMIT", 12)
    # These folds are dense enough for the bitmask route; force the merge.
    monkeypatch.setattr(backend, "BITSET_SPAN_LIMIT", 0)
    assert sumset((0, 1, 2), (0, 5, 10, 15)) == tuple(naive_sumset((0, 1, 2), (0, 5, 10, 15)))
    with pytest.raises(MergeLimitError):
        sumset((0, 1, 2), (0, 5, 10, 15, 20))
    # fold steps: 3 x 4 = 12 pairs, then 12 x 2 = 24 refused
    terms = ((1, (0, 1, 2)), (5, (0, 1, 2, 3)))
    assert fold_elements(terms) == tuple(naive_fold(terms))
    with pytest.raises(MergeLimitError):
        fold_elements(((1, (0, 1, 2)), (5, (0, 1, 2, 3)), (100, (0, 1))))


class _KernelLog:
    """Forwards to the kernels and records the name of each one called."""

    def __init__(self):
        self.names = []

    def __getattr__(self, name):
        kernel = getattr(_core_py, name)

        def call(*args):
            self.names.append(name)
            return kernel(*args)

        return call


@pytest.mark.parametrize(
    "terms, message, merged",
    [
        # 3 x 4 = 12 pairs merge, then 12 x 2 = 24 are refused.
        (((1, (0, 1, 2)), (5, (0, 1, 2, 3)), (100, (0, 1))),
         "merge of 12 x 2 elements would form 24 sums, above the limit of 12", 1),
        # 4 x 4 = 16 pairs are refused before any merge.
        (((1, (0, 1, 2, 3)), (5, (0, 1, 2, 3)), (100, (0, 1))),
         "merge of 4 x 4 elements would form 16 sums, above the limit of 12", 0),
    ],
)
def test_merge_refusal_same_from_size_and_elements(monkeypatch, terms, message, merged):
    monkeypatch.setattr(backend, "MERGE_PAIR_LIMIT", 12)
    monkeypatch.setattr(backend, "BITSET_SPAN_LIMIT", 0)
    # fold_size counts the merge's set; fold_elements merges sorted runs.
    for entry, kernel in ((fold_size, "sumset_elements"), (fold_elements, "sorted_sumset")):
        log = _KernelLog()
        monkeypatch.setattr(backend, "_impl", log)
        with pytest.raises(MergeLimitError) as err:
            entry(terms)
        assert str(err.value) == message
        assert log.names == [kernel] * merged


def test_dense_dilate_sum_takes_mask_route(monkeypatch):
    # 25M pairs, above MERGE_PAIR_LIMIT; the bitmask spans 24,996 bits.
    log = _KernelLog()
    monkeypatch.setattr(backend, "_impl", log)
    out = dilate_sum(IntSet(range(5000)), (2, 3))
    assert len(out) == 24_994
    assert out.elements == tuple(x for x in range(24_996) if x not in (1, 24_994))
    assert "sumset_elements" not in log.names


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_fold_route_threshold(monkeypatch, delta):
    # 4 x 2 = 8 sums, so the threshold is a span of FOLD_BITS_PER_SUM * 8.
    threshold = backend.FOLD_BITS_PER_SUM * 8
    terms = ((1, (0, 1, 2, 3)), (-1, (0, threshold - 3 + delta)))
    assert backend._fold_guard(terms) == threshold + delta
    log = _KernelLog()
    monkeypatch.setattr(backend, "_impl", log)
    assert list(fold_elements(terms)) == naive_fold(terms)
    assert log.names == (["sorted_sumset"] if delta > 0 else ["fold_mask", "mask_elements"])


wide_sets = st.sets(st.integers(-300, 300), min_size=1, max_size=6).map(
    lambda s: tuple(sorted(s))
)


@given(st.lists(st.tuples(st.integers(-9, 9).filter(bool), wide_sets), min_size=1, max_size=4))
@settings(max_examples=200)
@example([(-4, (-300, -7, 0, 299))])  # one term, negative coefficient
@example([(5, (-3, 0, 250))])  # one term, positive coefficient
@example([(-2, (-300, 1, 17)), (3, (-5, 40)), (-7, (0, 299)), (1, (-1, 2))])
@example([(-1, (-300, 300)), (-1, (-299, 299))])
def test_fold_routes_match_oracle(terms):
    expected = naive_fold(terms)
    assert list(fold_elements(terms)) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backend, "FOLD_BITS_PER_SUM", backend.BITSET_SPAN_LIMIT)
        assert list(fold_elements(terms)) == expected
        # Every fold with a nonzero span merges: the size counts the
        # merge's set, the elements come from merging sorted runs.
        mp.setattr(backend, "BITSET_SPAN_LIMIT", 0)
        assert fold_size(terms) == len(expected)
        assert list(fold_elements(terms)) == expected


# The orders an operand of sorted_sumset may come in: ascending,
# descending (a negative dilate), or a set in hash order.
operand_orders = st.sampled_from([sorted, lambda s: sorted(s, reverse=True), set])


@given(
    st.sets(st.integers(-60, 60), min_size=1, max_size=12),
    st.sets(st.integers(-60, 60), min_size=1, max_size=12),
    operand_orders,
    operand_orders,
)
@settings(max_examples=200)
@example({7}, {-3}, sorted, set)  # singletons
@example({-9, -4, 0}, {5}, set, sorted)  # one row
@example({-60, -1, 60}, {-60, 0, 1, 59}, lambda s: sorted(s, reverse=True), set)
def test_sorted_sumset_matches_oracle(a, b, order_a, order_b):
    got = _core_py.sorted_sumset(order_a(a), order_b(b))
    assert isinstance(got, tuple)
    assert all(x < y for x, y in zip(got, got[1:]))
    assert list(got) == naive_sumset(a, b)


@given(
    st.integers(-30, 30),
    st.integers(-30, 30),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(1, 15),
    st.integers(1, 15),
    operand_orders,
)
@settings(max_examples=100)
@example(0, 0, 1, 1, 15, 15, sorted)  # 225 pairs, 29 sums
def test_sorted_sumset_on_progressions(lo_a, lo_b, d, m, n_a, n_b, order):
    # Progressions with differences d and m*d: most pairs collide.
    a = range(lo_a, lo_a + d * n_a, d)
    b = range(lo_b, lo_b + m * d * n_b, m * d)
    got = _core_py.sorted_sumset(order(a), b)
    assert all(x < y for x, y in zip(got, got[1:]))
    assert list(got) == naive_sumset(a, b)


def test_wide_dilate_sum_merges_sorted_runs(monkeypatch):
    # A span of 6.3e10 bits: both steps of the three-term fold merge. The
    # elements come from the sorted merge once per step, the size from the
    # set merge once per step.
    a = IntSet((-5 * 10**9, -3, 0, 10**9 + 7, 4 * 10**9))
    spec = (1, -2, 4)
    expected = naive_fold([(c, a.elements) for c in spec])
    log = _KernelLog()
    monkeypatch.setattr(backend, "_impl", log)
    assert list(dilate_sum(a, spec).elements) == expected
    assert log.names == ["sorted_sumset"] * 2
    log.names.clear()
    assert dilate_sum_size(a, spec) == len(expected)
    assert log.names == ["sumset_elements"] * 2


def test_sparse_fold_size_calls_one_kernel(monkeypatch):
    # A span of 9e6 bits stays on the bitmask route: one kernel call, with
    # the class split done inside it.
    elems = tuple(range(0, 10**6, 10**4))
    log = _KernelLog()
    monkeypatch.setattr(backend, "_impl", log)
    assert fold_size(((2, elems), (7, elems))) == len(naive_fold([(2, elems), (7, elems)]))
    assert log.names == ["bitset_fold_size"]


def test_wide_fold_size_merges_once(monkeypatch):
    # A span of 3.5e10 bits is far above BITSET_SPAN_LIMIT: one merge, and
    # its set is counted without any other kernel.
    elems = (0, 10**9, 3 * 10**9, 7 * 10**9 + 1)
    terms = ((2, elems), (-3, elems))
    assert backend._fold_guard(terms) > backend.BITSET_SPAN_LIMIT
    log = _KernelLog()
    monkeypatch.setattr(backend, "_impl", log)
    assert fold_size(terms) == len(naive_fold(terms))
    assert log.names == ["sumset_elements"]


# Coefficients whose gcds, with one term split off, are 0 (a single term),
# 1 and above 1.
kernel_coeffs = st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12]).flatmap(
    lambda c: st.sampled_from([c, -c])
)
kernel_sets = st.sets(st.integers(-40, 40), min_size=1, max_size=7).map(
    lambda s: tuple(sorted(s))
)


@given(st.lists(st.tuples(kernel_coeffs, kernel_sets), min_size=1, max_size=4))
@settings(max_examples=300)
@example([(-3, (-5, 0, 7))])  # one term: no other coefficient, g = 0
@example([(1, (-4, 0, 3)), (-1, (2, 5)), (2, (-1, 6))])  # g = 1
@example([(-2, (-7, -3, 0, 4)), (3, (-2, 9))])  # negative split term, g = 3
@example([(2, tuple(range(9))), (9, (0, 5))])  # one element per class mod 9
@example([(12, (5,)), (8, (-3,)), (-6, (0, 1))])  # singletons, g = 6
@example([(6, (-2, 0, 3)), (-9, (1, 4)), (12, (-5, 5)), (-8, (0, 7))])  # split -8, g = 3
def test_kernels_match_oracle(terms):
    coeffs = tuple(c for c, _ in terms)
    sets = tuple(e for _, e in terms)
    expected = naive_fold(terms)
    assert _core_py.bitset_fold_size(coeffs, sets) == len(expected)
    base, mask = _core_py.fold_mask(coeffs, sets)
    assert base == expected[0]
    assert list(_core_py.mask_elements(base, mask)) == expected


@pytest.mark.parametrize("k", [3, 4, 7, 13])
def test_kernels_read_ranges(k):
    # ap_recompute hands the kernels range(n), not a tuple.
    for n in range(1, 3 * k):
        p = range(n)
        expected = naive_fold([(2, p), (k, p)])
        assert _core_py.bitset_fold_size((2, k), (p, p)) == len(expected)
        assert list(_core_py.mask_elements(*_core_py.fold_mask((2, k), (p, p)))) == expected
        assert ap_recompute(n, k) == len(expected)
