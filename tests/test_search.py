import math
from itertools import accumulate, combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dilates import (
    DilateSpec,
    IntSet,
    SearchConfig,
    SearchConfigError,
    conjecture_probe,
    dilate_sum_size,
    min_dilate_sum,
)
from dilates import backend, search
from dilates.search import WITNESS_CAP

from bruteforce import naive_canonical_family, naive_dilate_sum, naive_minimum


class TestNaiveCanonicalFamily:
    """The reference family that every search test compares against,
    pinned on hand-worked cases."""

    def test_two_point_family_is_trivial(self):
        assert naive_canonical_family(2, 5) == [(0, 1)]

    def test_three_point_no_reflection(self):
        got = naive_canonical_family(3, 4, reflect=False)
        assert got == [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 3, 4)]

    def test_three_point_with_reflection(self):
        assert naive_canonical_family(3, 4) == [(0, 1, 2), (0, 1, 3), (0, 1, 4)]

    def test_singleton(self):
        assert naive_canonical_family(1, 0) == [(0,)]


# Minima and complete witness lists at sizes the brute-force oracle
# cannot reach, computed by the search before any lookahead cut, so a
# cut that loses a witness or returns a wrong minimum fails here.
EXACT_PINS = [
    ((2, 3), 13, 30, 58, [(0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16, 18)]),
    ((2, 3), 14, 30, 62, [(0, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20)]),
    ((2, 5), 9, 30, 45, [(0, 2, 4, 5, 7, 9, 10, 12, 14)]),
    (
        (2, 7),
        7,
        30,
        33,
        [
            (0, 2, 4, 7, 9, 11, 14),
            (0, 2, 4, 7, 9, 11, 16),
            (0, 2, 4, 7, 9, 11, 18),
            (0, 2, 4, 7, 9, 14, 16),
            (0, 2, 4, 9, 11, 16, 18),
            (0, 2, 5, 7, 9, 12, 14),
            (0, 2, 5, 7, 9, 14, 16),
            (0, 2, 7, 9, 11, 16, 18),
        ],
    ),
    ((-3, 2), 7, 22, 28, [(0, 1, 3, 4, 6, 7, 9)]),
    # the progression is itself a witness
    ((1, -3), 7, 24, 25, [(0, 1, 2, 3, 4, 5, 6), (0, 1, 3, 4, 6, 7, 9)]),
    ((2, -3, 5), 8, 30, 69, [(0, 1, 2, 3, 4, 5, 6, 7)]),
    ((-1, 3, 4), 8, 30, 57, [(0, 1, 2, 3, 4, 5, 6, 7)]),
]


class TestMinDilateSum:
    def test_two_points(self):
        result = min_dilate_sum(SearchConfig(DilateSpec((2, 3)), 2, 12))
        assert result.minimum == 4
        assert [w.elements for w in result.witnesses] == [(0, 1)]

    def test_three_points_beats_progression(self):
        result = min_dilate_sum(SearchConfig(DilateSpec((2, 3)), 3, 12))
        assert result.minimum == 8
        assert IntSet([0, 1, 3]) in result.witnesses
        # 8 is strictly below the progression value 9, so progressions
        # are not extremal here.
        assert result.minimum < 9

    def test_singleton(self):
        result = min_dilate_sum(SearchConfig(DilateSpec((2, 3)), 1, 0))
        assert result.minimum == 1
        assert [w.elements for w in result.witnesses] == [(0,)]
        # The one witness {0} touches the range bound only when it is 0.
        assert result.touches_range
        assert not min_dilate_sum(SearchConfig(DilateSpec((2, 3)), 1, 4)).touches_range

    def test_witness_invariants(self):
        config = SearchConfig(DilateSpec((2, 3)), 4, 10)
        result = min_dilate_sum(config)
        assert result.witnesses == sorted(result.witnesses)
        assert len(set(result.witnesses)) == len(result.witnesses)
        for w in result.witnesses:
            assert w.min == 0
            assert math.gcd(*w.elements) == 1
            assert len(w) == 4
            assert w.max <= 10
            assert dilate_sum_size(w, config.spec) == result.minimum

    @pytest.mark.parametrize("coeffs", [(2, 3), (1, 3), (-2, 3)])
    def test_matches_brute_force(self, coeffs):
        for n, r in [(2, 8), (3, 9), (4, 8), (4, 11)]:
            expected_min, expected_wits = naive_minimum(coeffs, n, r)
            result = min_dilate_sum(SearchConfig(DilateSpec(coeffs), n, r))
            assert result.minimum == expected_min
            assert [w.elements for w in result.witnesses] == expected_wits
            assert result.total_witnesses == len(expected_wits)

    def test_pruning_modes_agree(self):
        # The answer the pruned and unpruned walks agreed on before the
        # unpruned walk was deleted; the pruned walk must still give it.
        result = min_dilate_sum(SearchConfig(DilateSpec((2, 3)), 4, 11))
        assert result.minimum == 12
        assert IntSet([0, 2, 3, 5]) in result.witnesses

    def test_two_runs_identical(self):
        config = SearchConfig(DilateSpec((2, 3)), 4, 12)
        # witnesses and counters included
        assert min_dilate_sum(config) == min_dilate_sum(config)

    # (minimum, total_witnesses, nodes_visited, nodes_pruned), measured
    # against one running incumbent, seeded by the least two-class set,
    # with the lookahead cut value + inc*r > incumbent, with the
    # reflection cut, which neither visits nor counts a prefix whose every
    # leaf the reflection quotient drops, and, for one-sign specs, with
    # the monotone floor, which neither visits nor counts the children
    # past each loop's stop. The mixed-sign pins fail if the floor is
    # applied to a mixed-sign spec.
    @pytest.mark.parametrize(
        "coeffs, n, r, counts",
        [
            ((2, 3), 6, 14, (22, 1, 576, 355)),
            ((-3, 2), 5, 12, (18, 1, 420, 0)),
            ((2, -3, 5), 5, 12, (39, 1, 152, 89)),
            ((1, 2, 4), 6, 14, (36, 1, 90, 61)),
        ],
    )
    def test_pinned_counters(self, coeffs, n, r, counts):
        result = min_dilate_sum(SearchConfig(DilateSpec(coeffs), n, r))
        assert (
            result.minimum,
            result.total_witnesses,
            result.nodes_visited,
            result.nodes_pruned,
        ) == counts

    @pytest.mark.parametrize("coeffs, n, r, minimum, witnesses", EXACT_PINS)
    def test_exact_pins_above_oracle_sizes(self, coeffs, n, r, minimum, witnesses):
        result = min_dilate_sum(SearchConfig(DilateSpec(coeffs), n, r))
        assert result.minimum == minimum
        assert [w.elements for w in result.witnesses] == witnesses
        assert result.total_witnesses == len(witnesses)

    @settings(max_examples=150, deadline=None)
    @given(
        coeffs=st.lists(
            st.integers(-6, 6).filter(bool), min_size=2, max_size=3, unique=True
        ),
        n=st.integers(1, 5),
        extra=st.integers(0, 9),
        reflect=st.booleans(),
    )
    # A mixed-sign case on which shifts that ignore a coefficient's sign
    # give a wrong answer; small random cases often do not show it.
    @example(coeffs=[1, 5, -5], n=5, extra=1, reflect=False)
    # Each appended element adds exactly inc = 2 sums here, so a larger
    # lookahead count, or a cut that is not strict, loses the minimum.
    @example(coeffs=[1, -1], n=3, extra=0, reflect=False)
    def test_differential_against_brute_force(self, coeffs, n, extra, reflect):
        r = min(n - 1 + extra, 10)
        expected_min, expected_wits = naive_minimum(coeffs, n, r, reflect=reflect)
        result = min_dilate_sum(
            SearchConfig(DilateSpec(coeffs), n, r, reflection_quotient=reflect)
        )
        assert result.minimum == expected_min
        assert [w.elements for w in result.witnesses] == expected_wits[:WITNESS_CAP]
        assert result.total_witnesses == len(expected_wits)
        assert result.touches_range == any(w[-1] == r for w in expected_wits)

    def test_mask_width_refused_before_any_task(self):
        spec = DilateSpec((2, -3))  # weight 5
        r = backend.BITSET_SPAN_LIMIT // 5 + 1
        with pytest.raises(SearchConfigError, match="weight\\*range"):
            SearchConfig(spec, 3, r)
        # a singleton family needs no masks
        assert min_dilate_sum(SearchConfig(spec, 1, r)).minimum == 1

    def test_mask_width_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(backend, "BITSET_SPAN_LIMIT", 5 * 12)
        spec = DilateSpec((2, 3))
        assert min_dilate_sum(SearchConfig(spec, 3, 12)).minimum == 8
        with pytest.raises(SearchConfigError):
            SearchConfig(spec, 3, 13)

    def test_pruning_actually_prunes(self):
        # on this range the lookahead first cuts at n = 5
        result = min_dilate_sum(SearchConfig(DilateSpec((2, 3)), 6, 14))
        assert result.nodes_pruned > 0
        expected_min, expected_wits = naive_minimum((2, 3), 6, 14)
        assert result.minimum == expected_min
        assert [w.elements for w in result.witnesses] == expected_wits

    def test_reflection_off_adds_mirrors(self):
        with_q = min_dilate_sum(SearchConfig(DilateSpec((2, 3)), 3, 12))
        without_q = min_dilate_sum(
            SearchConfig(DilateSpec((2, 3)), 3, 12, reflection_quotient=False)
        )
        assert with_q.minimum == without_q.minimum
        mirrored = {
            tuple(w.max - x for x in reversed(w.elements)) for w in with_q.witnesses
        }
        assert {w.elements for w in without_q.witnesses} == (
            {w.elements for w in with_q.witnesses} | mirrored
        )

    def test_witness_cap(self):
        # |1*A| = |A|, so each of the 109 canonical 4-sets in [0, 12] is a witness
        result = min_dilate_sum(SearchConfig(DilateSpec((1,)), 4, 12))
        expected_min, expected_wits = naive_minimum((1,), 4, 12)
        assert (result.minimum, result.total_witnesses) == (expected_min, 109)
        assert len(expected_wits) == 109
        assert len(result.witnesses) == WITNESS_CAP == 64
        assert [w.elements for w in result.witnesses] == expected_wits[:WITNESS_CAP]

    def test_walk_keeps_only_capped_witnesses(self, monkeypatch):
        # The walk stores at most WITNESS_CAP witnesses but counts them all;
        # with one coefficient every canonical set is a witness.
        monkeypatch.setattr(search, "WITNESS_CAP", 3)
        family = naive_canonical_family(5, 16)
        result = min_dilate_sum(SearchConfig(DilateSpec((5,)), 5, 16))
        assert (result.minimum, result.total_witnesses) == (5, len(family))
        assert [w.elements for w in result.witnesses] == sorted(family)[:3]
        # A drop of the incumbent clears the list and resets the count.
        result = min_dilate_sum(SearchConfig(DilateSpec((2, 5)), 5, 9))
        expected_min, expected_wits = naive_minimum((2, 5), 5, 9)
        assert (result.minimum, result.total_witnesses) == (
            expected_min, len(expected_wits)
        )
        assert [w.elements for w in result.witnesses] == expected_wits[:3]

    def test_range_flag_counts_unlisted_witnesses(self, monkeypatch):
        # (2, 5) at n = 5, R = 9 has the witnesses (0,2,3,5,7) and
        # (0,2,4,7,9); only the second, unlisted under a cap of 1, has
        # maximum R.
        monkeypatch.setattr(search, "WITNESS_CAP", 1)
        result = min_dilate_sum(SearchConfig(DilateSpec((2, 5)), 5, 9))
        assert [w.elements for w in result.witnesses] == [(0, 2, 3, 5, 7)]
        assert result.total_witnesses == 2
        assert result.touches_range

    def test_monotone_in_cardinality(self):
        minima = [
            min_dilate_sum(SearchConfig(DilateSpec((2, 3)), n, 12)).minimum
            for n in range(1, 6)
        ]
        assert minima == sorted(minima)

    def test_small_constant_consistency(self):
        # every canonical minimum respects the global lower bound for k=3
        for n in range(1, 6):
            m = min_dilate_sum(SearchConfig(DilateSpec((2, 3)), n, 12)).minimum
            assert m >= 5 * n - 36

    def test_config_validation(self):
        with pytest.raises(SearchConfigError):
            SearchConfig(DilateSpec((2, 3)), 0, 5)
        with pytest.raises(SearchConfigError):
            SearchConfig(DilateSpec((2, 3)), 4, 2)
        with pytest.raises(TypeError):
            SearchConfig(DilateSpec((2, 3)), 3.0, 12)
        with pytest.raises(TypeError):
            SearchConfig(DilateSpec((2, 3)), 3, 12.0)


class TestReflectionCut:
    """The walk skips exactly the prefixes whose every leaf the reflection
    quotient drops: those of no leaf (0, a_1, ..., a_{n-2}, M) with
    M >= a_{n-2} + a_1."""

    @pytest.mark.parametrize("coeffs", [(2, 3), (-3, 2), (2, -3, 5)])
    def test_visits_only_prefixes_of_leaves_the_quotient_can_keep(
        self, monkeypatch, coeffs
    ):
        # A charge that never cuts, so every generated prefix is visited
        # and expanded, and nodes_visited counts every one of them.
        monkeypatch.setattr(search, "_charges", lambda coeffs, n, exact: [-math.inf] * n)
        for n in range(3, 7):
            for r in range(n - 1, 13):
                leaves = [
                    (0, *rest)
                    for rest in combinations(range(1, r + 1), n - 1)
                    if rest[-1] >= rest[-2] + rest[0]
                ]
                prefixes = {leaf[:j] for leaf in leaves for j in range(2, n)}
                result = min_dilate_sum(SearchConfig(DilateSpec(coeffs), n, r))
                assert (result.nodes_visited, result.nodes_pruned) == (
                    len(prefixes) + len(leaves),
                    0,
                ), (n, r)
                expected_min, expected_wits = naive_minimum(coeffs, n, r)
                assert result.minimum == expected_min
                assert [w.elements for w in result.witnesses] == expected_wits


# One-sign specs of two or three terms, of either sign.
one_sign_specs = st.tuples(
    st.lists(st.integers(1, 6), min_size=2, max_size=3), st.booleans()
).map(lambda t: tuple(-c for c in t[0]) if t[1] else tuple(t[0]))


def floor_gain(prefix, x, coeffs):
    """L(x) as defined: 1 plus the number of p in the prefix whose sum with
    x at the largest magnitude c_b, p at the next one c_s and the prefix
    maximum a elsewhere lies above S*a."""
    c_s, c_b = sorted(abs(c) for c in coeffs)[-2:]
    a = prefix[-1]
    return 1 + sum(c_s * p > (c_b + c_s) * a - c_b * x for p in prefix)


class TestMonotoneFloor:
    """A one-sign child P + (x,) has at least |S(P)| + L(x) sums, L never
    falls as x grows, and each loop stops at the first x whose floor
    passes the incumbent, skipping only children that would be cut or
    rejected."""

    @settings(max_examples=300, deadline=None)
    @given(
        coeffs=one_sign_specs,
        rest=st.sets(st.integers(1, 12), max_size=4),
        gaps=st.lists(st.integers(1, 8), min_size=1, max_size=5),
    )
    def test_floor_bounds_each_child_and_never_falls(self, coeffs, rest, gaps):
        prefix = (0, *sorted(rest))
        base = len(naive_dilate_sum(prefix, coeffs))
        xs = list(accumulate(gaps, initial=prefix[-1]))[1:]
        gains = [floor_gain(prefix, x, coeffs) for x in xs]
        assert gains == sorted(gains)
        for x, gain in zip(xs, gains):
            assert len(naive_dilate_sum((*prefix, x), coeffs)) >= base + gain

    def test_floor_fails_for_a_mixed_sign_spec(self):
        # Why _floor_terms gives mixed-sign specs no floor.
        prefix, x, coeffs = (0, 4, 5, 6), 8, (1, -2)
        gain = len(naive_dilate_sum((*prefix, x), coeffs)) - len(naive_dilate_sum(prefix, coeffs))
        assert (gain, floor_gain(prefix, x, coeffs)) == (3, 4)

    @pytest.mark.parametrize(
        "coeffs, terms",
        [((2, 3), (3, 2)), ((-3, -2), (3, 2)), ((5, 1, 4), (5, 4)), ((-1, -4, -5), (5, 4)),
         ((-3, 2), None), ((2, -3, 5), None), ((5,), None), ((-5,), None)],
    )
    def test_floor_terms(self, coeffs, terms):
        assert search._floor_terms(coeffs) == terms

    @settings(max_examples=300, deadline=None)
    @given(
        coeffs=one_sign_specs,
        rest=st.sets(st.integers(1, 12), max_size=5),
        slack=st.integers(-2, 6),
        offset=st.integers(0, 3),
        width=st.integers(0, 30),
    )
    def test_closed_form_stop_matches_a_scan(self, coeffs, rest, slack, offset, width):
        prefix = (0, *sorted(rest))
        slack = min(slack, len(prefix))
        start = prefix[-1] + 1 + offset
        nxts = range(start, start + width)
        stop = next((x for x in nxts if floor_gain(prefix, x, coeffs) > slack), nxts.stop)
        kept = search._floor_cut(prefix, slack, nxts, search._floor_terms(coeffs))
        assert list(kept) == list(range(start, stop))

    # Three-term specs charge more per element, so their floor first
    # skips a child at n = 8 or 9.
    @pytest.mark.parametrize(
        "coeffs, n_max, r_max",
        [((2, 3), 6, 12), ((-2, -3), 6, 12), ((1, 3), 6, 12), ((3, 5), 6, 12),
         ((1, 2, 4), 9, 14), ((-1, -3, -4), 9, 14)],
    )
    def test_skips_only_children_above_the_incumbent(self, monkeypatch, coeffs, n_max, r_max):
        cuts = []
        real_cut = search._floor_cut

        def recorded(prefix, slack, nxts, floor):
            cuts.append((prefix, slack, nxts, real_cut(prefix, slack, nxts, floor)))
            return cuts[-1][-1]

        monkeypatch.setattr(search, "_floor_cut", recorded)
        spec = DilateSpec(coeffs)
        total_skipped = 0
        for n in range(2, n_max + 1):
            charge = search._charges(coeffs, n, {})
            for r in range(n - 1, r_max + 1):
                for reflect in (True, False):
                    config = SearchConfig(spec, n, r, reflection_quotient=reflect)
                    cuts.clear()
                    got = min_dilate_sum(config)
                    skipped = [
                        (prefix, slack, prefix + (x,))
                        for prefix, slack, nxts, kept in cuts
                        for x in nxts[len(kept):]
                    ]
                    with monkeypatch.context() as m:
                        m.setattr(search, "_floor_terms", lambda coeffs: None)
                        want = min_dilate_sum(config)
                    assert (got.minimum, got.witnesses, got.total_witnesses,
                            got.touches_range) == (want.minimum, want.witnesses,
                                                   want.total_witnesses,
                                                   want.touches_range), config
                    # Without the floor, each skipped child is visited and then
                    # cut, or rejected as a leaf, so nothing below it is visited.
                    assert want.nodes_visited - got.nodes_visited == len(skipped)
                    assert want.nodes_pruned - got.nodes_pruned == sum(
                        len(child) < n for _, _, child in skipped
                    )
                    for prefix, slack, child in skipped:
                        size = len(naive_dilate_sum(child, coeffs))
                        assert size - len(naive_dilate_sum(prefix, coeffs)) > slack
                        assert size + charge[n - len(child)] > got.minimum
                    total_skipped += len(skipped)
        assert total_skipped > 0

    @pytest.mark.parametrize("coeffs", [(2, 3), (-1, -3), (1, 2, 4)])
    def test_probe_rows_unchanged_without_the_floor(self, monkeypatch, coeffs):
        rows = conjecture_probe(coeffs, range(1, 9), 18)
        monkeypatch.setattr(search, "_floor_terms", lambda coeffs: None)
        assert rows == conjecture_probe(coeffs, range(1, 9), 18)

    @pytest.mark.parametrize(
        "coeffs, n, r", [((2, 3), 7, 16), ((1, 3), 6, 14), ((1, 2, 4), 6, 14), ((2, 5, 7), 5, 12)]
    )
    def test_negated_spec_gives_identical_counters(self, coeffs, n, r):
        negated = DilateSpec(tuple(-c for c in coeffs))
        for reflect in (True, False):
            assert min_dilate_sum(
                SearchConfig(DilateSpec(coeffs), n, r, reflection_quotient=reflect)
            ) == min_dilate_sum(SearchConfig(negated, n, r, reflection_quotient=reflect))


def progression_fold(coeffs, n, range_max):
    """The fold of the progression {0..n-1}, the two-class set m = 2, c = 1."""
    return backend.fold_size(tuple((c, tuple(range(n))) for c in coeffs))


class TestIncumbent:
    """The walk's seed is the least fold over the two-class sets
    (i // 2)*m + (i % 2)*c: family members, so the incumbent is never
    below the minimum and nothing but the counters can move."""

    @pytest.mark.parametrize(
        "coeffs", [(2, 3), (-3, 2), (2, -3, 5), (1, 3), (5,), (2, 7), (-1, 3, 4)]
    )
    def test_candidates_are_family_members(self, monkeypatch, coeffs):
        real = backend.fold_size
        folded = []

        def recorded(terms):
            folded.append((terms, real(terms)))
            return folded[-1][1]

        monkeypatch.setattr(backend, "fold_size", recorded)
        for n in range(2, 8):
            for r in range(n - 1, 17):
                folded.clear()
                value = search._incumbent(coeffs, n, r)
                assert tuple(range(n)) in [terms[0][1] for terms, _ in folded]
                for terms, size in folded:
                    assert [c for c, _ in terms] == list(coeffs)
                    elems = terms[0][1]
                    assert all(e == elems for _, e in terms)
                    assert len(set(elems)) == n and sorted(elems) == list(elems)
                    assert elems[0] == 0 and elems[-1] <= r
                    assert math.gcd(*elems) == 1
                    assert size == len(naive_dilate_sum(elems, coeffs))
                assert value == min(size for _, size in folded)

    @pytest.mark.parametrize(
        "coeffs",
        [(2, 3), (1, 3), (2, 5), (-3, 2), (1, -3), (-2, 5), (-3, 4), (2, -3, 5),
         (-1, 3, 4), (5,)],
    )
    def test_same_answers_as_the_progression_seed(self, monkeypatch, coeffs):
        spec = DilateSpec(coeffs)
        configs = [
            SearchConfig(spec, n, r, reflection_quotient=reflect)
            for n in range(1, 8)
            for r in range(n - 1, 17)
            for reflect in (True, False)
        ]
        seeded = [min_dilate_sum(c) for c in configs]
        monkeypatch.setattr(search, "_incumbent", progression_fold)
        for config, got in zip(configs, seeded):
            want = min_dilate_sum(config)
            assert (got.minimum, got.witnesses, got.total_witnesses) == (
                want.minimum,
                want.witnesses,
                want.total_witnesses,
            ), config
            assert got.nodes_visited <= want.nodes_visited, config

    @pytest.mark.parametrize(
        "pin, incumbent", zip(EXACT_PINS, [58, 62, 50, 34, 28, 25, 69, 57])
    )
    def test_incumbent_pinned(self, pin, incumbent):
        coeffs, n, r, minimum, _ = pin
        assert search._incumbent(coeffs, n, r) == incumbent >= minimum


def charge_per_element(coeffs):
    """The charge of one element still to add, with no exact rows."""
    return search._charges(coeffs, 3, {})[1]


class TestLookaheadGrowth:
    @pytest.mark.parametrize(
        "coeffs, inc",
        [((2, 3), 3), ((2, 3, 5), 6), ((-3, 2), 2), ((2, -3, 5), 4), ((1, 2, 4), 7),
         ((5,), 1)],
    )
    def test_inc_pinned(self, coeffs, inc):
        # with no exact rows, a search of 9 elements charges inc*r for
        # r = 0..7 elements still to add
        assert search._charges(coeffs, 9, {}) == [inc * r for r in range(8)]

    @settings(max_examples=300, deadline=None)
    @given(
        coeffs=st.lists(st.integers(-6, 6).filter(bool), min_size=2, max_size=3),
        rest=st.sets(st.integers(1, 12), max_size=4),
        gap=st.integers(1, 12),
    )
    # inc is attained here, so any count above it fails; counting the
    # distinct nonempty subset sums of all coefficients together gives 3
    @example(coeffs=[1, -1], rest=set(), gap=1)
    def test_each_appended_element_adds_inc_sums(self, coeffs, rest, gap):
        prefix = (0, *sorted(rest))
        grown = (*prefix, prefix[-1] + gap)
        added = len(naive_dilate_sum(grown, coeffs)) - len(
            naive_dilate_sum(prefix, coeffs)
        )
        assert added >= charge_per_element(coeffs)


one_sign_coeffs = st.tuples(
    st.lists(st.integers(1, 6), min_size=1, max_size=3), st.booleans()
).map(lambda t: [-c for c in t[0]] if t[1] else t[0])


class TestChargeOracle:
    """The two inequalities behind the charge, against the brute-force fold."""

    @settings(max_examples=200, deadline=None)
    @given(
        coeffs=one_sign_coeffs,
        lower=st.sets(st.integers(0, 11), max_size=4),
        upper=st.sets(st.integers(13, 24), max_size=4),
        shared=st.integers(0, 12),
    )
    def test_super_additive_at_a_shared_element(self, coeffs, lower, upper, shared):
        low = sorted(x for x in lower if x < shared) + [shared]
        high = [shared] + sorted(upper)
        size = len(naive_dilate_sum(sorted(set(low + high)), coeffs))
        assert size >= (
            len(naive_dilate_sum(low, coeffs)) + len(naive_dilate_sum(high, coeffs)) - 1
        )

    @settings(max_examples=200, deadline=None)
    @given(
        coeffs=st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=3),
        inner=st.sets(st.integers(1, 11), max_size=3),
        top=st.integers(1, 12),
        tail=st.sets(st.integers(1, 12), max_size=3),
    )
    # Two-term mixed specs meet the split with equality here.
    @example(coeffs=[1, -1], inner=set(), top=1, tail={1})
    def test_mixed_sign_tail_split(self, coeffs, inner, top, tail):
        prefix = sorted({0, top} | {x for x in inner if x < top})
        block = [top] + [top + d for d in sorted(tail)]
        positive = [c for c in coeffs if c > 0]
        negative = [-c for c in coeffs if c < 0]
        size = len(naive_dilate_sum(sorted(set(prefix + block)), coeffs))
        assert size >= (
            len(naive_dilate_sum(prefix, coeffs))
            + len(naive_dilate_sum(block, positive)) - 1
            + len(naive_dilate_sum(block, negative)) - 1
        )


def two_rungs(n):
    """{0, 1} + 3·{0..n/2 - 1} for even n, None for odd n."""
    return None if n % 2 else [x + 3 * y for x in (0, 1) for y in range(n // 2)]


class TestConjectureProbe:
    def test_regression_rows(self):
        rows = conjecture_probe(DilateSpec((2, 3)), range(2, 4), 12)
        assert [(r.cardinality, r.minimum, r.deficiency) for r in rows] == [
            (2, 4, 6),
            (3, 8, 7),
        ]

    def test_unit_coefficient(self):
        (row,) = conjecture_probe(DilateSpec((1, 2)), [2], 12)
        assert (row.minimum, row.deficiency) == (4, 2)

    def test_singleton_row(self):
        (row,) = conjecture_probe(DilateSpec((2, 3)), [1], 4)
        assert (row.cardinality, row.minimum, row.deficiency) == (1, 1, 4)

    def test_rows_ascending(self):
        rows = conjecture_probe(DilateSpec((2, 3)), [4, 2, 3], 10)
        assert [r.cardinality for r in rows] == [2, 3, 4]

    @pytest.mark.parametrize("cardinalities", [range(5, 9), [2, 5, 8]])
    def test_missing_smaller_rows_change_no_row(self, cardinalities):
        # Rows below 5, or between the requested ones, are never searched,
        # so their charges come from the super-additive extension alone.
        full = {r.cardinality: r for r in conjecture_probe((2, 3), range(2, 9), 26)}
        rows = conjecture_probe((2, 3), cardinalities, 26)
        assert rows == [full[n] for n in cardinalities]

    @pytest.mark.parametrize("coeffs", [(1, 2, 4), (2, -3, 5), (-2, -3)])
    def test_rows_match_brute_force(self, coeffs):
        spec = DilateSpec(coeffs)
        for row in conjecture_probe(spec, range(1, 7), 10):
            expected_min, expected_wits = naive_minimum(coeffs, row.cardinality, 10)
            assert (row.minimum, row.total_witnesses) == (expected_min, len(expected_wits))
            assert row.witness.elements == expected_wits[0]
            assert row.deficiency == spec.weight * row.cardinality - expected_min
            assert row.touches_range == any(w[-1] == 10 for w in expected_wits)

    def test_benchmark_table_nodes_pinned(self, monkeypatch):
        # The probe table (2, 3), n = 2..8 at range 26 visits 40,266 nodes
        # with the inc*r charge alone; its finished rows cut it to 24,244.
        # Both counts include the monotone floor.
        alone = [
            min_dilate_sum(SearchConfig(DilateSpec((2, 3)), n, 26)) for n in range(2, 9)
        ]
        assert sum(r.nodes_visited for r in alone) == 40_266
        results = []
        real = search.min_dilate_sum

        def recorded(config):
            results.append(real(config))
            return results[-1]

        monkeypatch.setattr(search, "min_dilate_sum", recorded)
        conjecture_probe((2, 3), range(2, 9), 26)
        assert [r.minimum for r in results] == [r.minimum for r in alone]
        assert sum(r.nodes_visited for r in results) == 24_244

    @pytest.mark.parametrize(
        "k, cardinalities, range_max, slack, attaining",
        [
            # |A + 2·A| >= 3|A| - 2 (Nathanson, 2008); progressions attain it.
            (2, range(2, 15), 24, 2, lambda n: range(n)),
            # |A + 3·A| >= 4|A| - 4 (Cilleruelo, Silva and Vinuesa, 2010);
            # {0, 1} + 3·{0..n/2 - 1} attains it at even n.
            (3, range(2, 21), 32, 4, two_rungs),
            # The same bound up to n = 26. From n = 24 on, |A| >= 3(k-1)^2(k-1)!
            # meets the hypothesis of |A + k·A| >= (k+1)|A| - ceil(k(k+2)/4)
            # for prime k (Cilleruelo, Hamidoune and Serra, 2009), which is
            # 4|A| - 4 at k = 3.
            (3, range(2, 27), 40, 4, two_rungs),
        ],
        ids=["k=2", "k=3", "k=3-large"],
    )
    def test_known_sharp_bounds(self, k, cardinalities, range_max, slack, attaining):
        """Rows of (1, k) against |A + k·A| >= (k+1)|A| - slack, a known
        sharp bound for every finite A, at sizes naive_minimum cannot reach.

        An inadmissible cut would push a minimum below the bound; a search
        that missed a witness would leave a minimum above a set that
        attains it inside [0, range_max]. The three citations are from
        memory and were not re-read against the papers. For k >= 5 the
        known bound needs |A| >= 1,152, out of the search's reach, so
        nothing is asserted there.
        """
        for row in conjecture_probe((1, k), cardinalities, range_max):
            bound = (k + 1) * row.cardinality - slack
            assert row.minimum >= bound
            witness = attaining(row.cardinality)
            if witness is not None:
                witness = IntSet(witness)
                assert witness.max <= range_max
                assert dilate_sum_size(witness, (1, k)) == bound
                assert row.minimum == bound

    def test_gcd_hypothesis(self):
        with pytest.raises(SearchConfigError):
            conjecture_probe(DilateSpec((2, 4)), [2], 8)

    def test_takes_no_search_options(self):
        with pytest.raises(TypeError):
            conjecture_probe(DilateSpec((2, 3)), [2], 8, reflection_quotient=False)

    def test_cardinality_fits_range(self):
        with pytest.raises(SearchConfigError):
            conjecture_probe(DilateSpec((2, 3)), [7], 5)

    @pytest.mark.parametrize(
        "cardinalities, range_max, message",
        [
            (range(2, 41), 26, "range_max 26 cannot hold 28 elements"),
            ([3, 0, 2], 26, "cardinality must be >= 1, got 0"),
            # the singleton row would search first; n = 2 needs 5*40 > 150 mask bits
            ([1, 2, 3], 40, "weight\\*range = 200 bits"),
            # a huge range is refused from its edges, without being walked
            (range(2, 10**8), 26, "range_max 26 cannot hold 28 elements"),
            (range(10**8, 1, -1), 26, "range_max 26 cannot hold 28 elements"),
            (range(1, 10**8, 9), 26, "range_max 26 cannot hold 28 elements"),
            (range(2, 10**8, 9), 26, "range_max 26 cannot hold 29 elements"),
            (range(-5, 10**8), 26, "cardinality must be >= 1, got -5"),
            # any other input takes the same edges-first path
            (list(range(2, 41)), 26, "range_max 26 cannot hold 28 elements"),
        ],
    )
    def test_refuses_before_any_search(self, monkeypatch, cardinalities, range_max, message):
        monkeypatch.setattr(backend, "BITSET_SPAN_LIMIT", 150)

        def no_search(config):
            raise AssertionError("a search ran before the refusal")

        built = []
        real_config = search.SearchConfig

        def counted_config(*args, **kwargs):
            built.append(kwargs["cardinality"])
            return real_config(*args, **kwargs)

        monkeypatch.setattr(search, "min_dilate_sum", no_search)
        monkeypatch.setattr(search, "SearchConfig", counted_config)
        with pytest.raises(SearchConfigError, match=message):
            conjecture_probe(DilateSpec((2, 3)), cardinalities, range_max)
        assert len(built) <= 3

    def test_non_integer_cardinality_refused_before_any_search(self, monkeypatch):
        def no_search(config):
            raise AssertionError("a search ran before the refusal")

        monkeypatch.setattr(search, "min_dilate_sum", no_search)
        # a float is refused whether or not an equal int comes before it
        for cardinalities in ([2.0, 3], [2, 3.0], [3, 3.0], [3.0, 3]):
            with pytest.raises(TypeError):
                conjecture_probe((2, 3), cardinalities, 12)
