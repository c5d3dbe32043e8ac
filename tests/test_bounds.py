import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dilates.bounds
from dilates import (
    ArithmeticRangeError,
    IntSet,
    InvalidModulusError,
    MergeLimitError,
    ap_recompute,
    ap_size,
    bound_basic,
    bound_four,
    bound_full_semifull,
    bound_main_large,
    bound_main_small,
    bound_marginal_total,
    canonicalize,
    check_faithful,
    check_suite,
    decompose,
)

from bruteforce import naive_canonical_family, naive_dilate_sum, naive_fold


class TestBasicBound:
    def test_pair_equality(self):
        a = IntSet([0, 1])
        rep = bound_basic(a, a, 2, 3)
        assert (rep.lhs, rep.rhs, rep.verdict) == (4, 4, "holds")
        assert rep.lhs == len(naive_fold([(2, (0, 1)), (3, (0, 1))]))

    def test_mixed_sets(self):
        rep = bound_basic(IntSet([0, 1, 3]), IntSet([0, 1]), 2, 3)
        assert (rep.lhs, rep.rhs) == (6, 6)
        assert rep.lhs == len(naive_fold([(2, (0, 1, 3)), (3, (0, 1))]))

    def test_singletons(self):
        rep = bound_basic(IntSet([0]), IntSet([0]), 2, 3)
        assert (rep.lhs, rep.rhs, rep.verdict) == (1, 1, "holds")

    def test_non_coprime_not_applicable(self):
        rep = bound_basic(IntSet([0, 1]), IntSet([0, 1]), 2, 4)
        assert rep.verdict == "not-applicable"
        assert rep.holds is None
        assert not rep.hypotheses["coprime"]


class TestFourBound:
    def test_equality_witness(self):
        rep = bound_four(IntSet([0, 1, 3]), 2, 3)
        assert (rep.lhs, rep.rhs, rep.slack, rep.verdict) == (8, 8, 0, "holds")

    def test_singleton(self):
        rep = bound_four(IntSet([0]), 2, 3)
        assert (rep.lhs, rep.rhs) == (1, 0)

    def test_three_four(self):
        rep = bound_four(IntSet([0, 1]), 3, 4)
        assert (rep.lhs, rep.rhs, rep.verdict) == (4, 4, "holds")
        assert rep.lhs == len(naive_fold([(3, (0, 1)), (4, (0, 1))]))

    def test_hypothesis_gates(self):
        assert bound_four(IntSet([0, 1]), 3, 2).verdict == "not-applicable"
        assert bound_four(IntSet([0, 1]), 2, 4).verdict == "not-applicable"
        assert bound_four(IntSet([0, 1]), 1, 2).verdict == "not-applicable"


class TestFullSemifullBound:
    def test_full_case_equality(self):
        rep = bound_full_semifull(IntSet([0, 1, 2]), 3)
        assert (rep.lhs, rep.rhs, rep.slack) == (9, 9, 0)
        assert rep.detail["case"] == "full"

    def test_semi_full_case_equality(self):
        rep = bound_full_semifull(IntSet([0, 3, 6]), 3)
        assert (rep.lhs, rep.rhs, rep.slack) == (9, 9, 0)
        assert rep.detail["case"] == "semi_full"
        assert rep.lhs == len(naive_dilate_sum((0, 3, 6), (2, 3)))

    def test_neither_case(self):
        rep = bound_full_semifull(IntSet([0, 9, 18]), 3)
        assert rep.verdict == "not-applicable"
        assert rep.holds is None

    def test_full_takes_precedence(self):
        # 3-full and 3-semi-full at once; the stronger constant applies.
        a = IntSet([0, 1, 2, 3, 4, 5, 6, 7, 8])
        rep = bound_full_semifull(a, 3)
        assert rep.detail["case"] == "full"
        assert rep.rhs == 5 * 9 - 6

    def test_even_modulus_rejected(self):
        with pytest.raises(InvalidModulusError):
            bound_full_semifull(IntSet([0, 1]), 4)
        with pytest.raises(InvalidModulusError):
            bound_full_semifull(IntSet([0, 1]), 1)


class TestCoefficientCoercion:
    """The public checkers coerce their coefficients with operator.index."""

    def test_float_refused(self):
        a = IntSet([0, 1, 3])
        for call in (
            lambda: bound_basic(a, a, 2.0, 3),
            lambda: bound_basic(a, a, 2, 3.0),
            lambda: bound_four(a, 2.0, 3),
            lambda: bound_four(a, 2, 3.0),
            lambda: bound_full_semifull(a, 3.0),
        ):
            with pytest.raises(TypeError):
                call()

    def test_true_acts_as_one(self):
        a = IntSet([0, 1, 3])
        assert bound_basic(a, a, True, 3) == bound_basic(a, a, 1, 3)
        assert bound_four(a, True, 3) == bound_four(a, 1, 3)
        assert not bound_four(a, True, 3).hypotheses["n_ge_2"]
        with pytest.raises(InvalidModulusError):
            bound_full_semifull(a, True)


class TestMarginalTotalBound:
    def test_equality_three_classes(self):
        rep = bound_marginal_total(IntSet([0, 1, 2]), 3)
        assert (rep.lhs, rep.rhs, rep.slack) == (6, 6, 0)

    def test_two_singleton_components(self):
        rep = bound_marginal_total(IntSet([0, 1]), 3)
        assert (rep.lhs, rep.rhs) == (2, 2)

    def test_single_component(self):
        rep = bound_marginal_total(IntSet([0, 3, 6]), 3)
        assert (rep.lhs, rep.rhs, rep.verdict) == (0, 0, "holds")

    def test_modulus_validation_and_relaxation(self):
        # Any integer modulus >= 2 is accepted; the odd-prime rule comes from k.
        for k in (1, 0, 2.5):
            with pytest.raises(InvalidModulusError):
                bound_marginal_total(IntSet([0, 1]), k)
        rep = bound_marginal_total(IntSet([0, 1, 2]), 9)
        assert rep.detail["relaxed"]
        assert not rep.hypotheses["odd_prime_k"]
        assert not bound_marginal_total(IntSet([0, 1, 2]), 3).detail["relaxed"]
        with pytest.raises(TypeError):
            bound_marginal_total(IntSet([0, 1, 2]), 9, relax_modulus=True)

    def test_relaxed_composite_k_not_applicable(self):
        # The mass is still computed, but k = 9 is outside the hypothesis.
        rep = bound_marginal_total(IntSet([0, 1, 2]), 9)
        assert rep.verdict == "not-applicable"
        assert (rep.lhs, rep.rhs, rep.slack) == (6, 6, 0)


class TestFaithful:
    def test_singleton_component(self):
        rep = check_faithful(IntSet([0, 1, 2]), 3, 0)
        assert rep.verdict == "holds"
        assert (rep.lhs, rep.rhs) == (2, 1)
        assert rep.detail["larger_peer_condition"]
        assert rep.detail["missing_parity_condition"]

    def test_top_component(self):
        rep = check_faithful(IntSet([0, 1, 2]), 3, 2)
        assert rep.verdict == "holds"
        assert rep.lhs == 2

    def test_no_other_component(self):
        rep = check_faithful(IntSet([0, 3, 6]), 3, 0)
        assert rep.verdict == "not-applicable"
        assert not rep.hypotheses["other_component_exists"]

    def test_gcd_gate(self):
        rep = check_faithful(IntSet([0, 2, 4]), 3, 0)
        assert rep.verdict == "not-applicable"
        assert not rep.hypotheses["gcd_one"]

    def test_semi_full_component_ineligible(self):
        # component {0,3,6} meets 3 classes modulo 9, so it is not eligible
        rep = check_faithful(IntSet([0, 1, 3, 6]), 3, 0)
        assert rep.verdict == "not-applicable"
        assert not rep.hypotheses["component_not_semi_full"]

    def test_missing_component(self):
        rep = check_faithful(IntSet([0, 1, 3]), 3, 2)
        assert rep.verdict == "not-applicable"
        assert not rep.hypotheses["component_exists"]

    def test_out_of_range_residue_refused(self):
        # 4 and -2 are both 1 mod 3, whose component {1, 4, 10} exists.
        for residue in (4, -2, 3):
            with pytest.raises(ValueError, match=r"residue must be in \[0, 3\)"):
                check_faithful(IntSet([0, 1, 3, 4, 9, 10]), 3, residue)
        # A failed gate is reported before the residue is read.
        rep = check_faithful(IntSet([0, 2, 4]), 3, 7)
        assert rep.verdict == "not-applicable"
        assert rep.detail == {"residue": 7}

    def test_float_k_not_applicable(self):
        # 7.5 is not an odd prime, so the gate fails before decompose
        rep = check_faithful(IntSet([0, 1, 2, 4]), 7.5, 0)
        assert rep.verdict == "not-applicable"
        assert not rep.hypotheses["odd_prime_k"]

    def test_float_residue_refused(self):
        with pytest.raises(TypeError):
            check_faithful(IntSet([0, 1, 2]), 3, 0.0)

    def test_bool_residue_recorded_as_int(self):
        record = check_faithful(IntSet([0, 1, 2]), 3, True).to_record()
        assert record["detail"]["residue"] == 1
        assert type(record["detail"]["residue"]) is int

    # Complete records of the three ways the checker is not applicable: a
    # failed gate, a missing residue and an ineligible component.
    @pytest.mark.parametrize(
        "elems, k, residue, hypotheses",
        [
            ([0, 2, 4], 3, 0, (True, True, False, False, False, False)),
            ([0, 1, 3], 3, 2, (True, True, True, False, False, False)),
            ([0, 1, 3, 6], 3, 0, (True, True, True, True, False, True)),
        ],
    )
    def test_not_applicable_records_pinned(self, elems, k, residue, hypotheses):
        names = ("odd_prime_k", "zero_in_set", "gcd_one", "component_exists",
                 "component_not_semi_full", "other_component_exists")
        rep = check_faithful(IntSet(elems), k, residue)
        assert rep.to_record() == {
            "statement_id": "faithful_component",
            "hypotheses_met": False,
            "lhs": None,
            "rhs": None,
            "slack": None,
            "verdict": "not-applicable",
            "relation": ">=",
            "hypotheses": dict(zip(names, hypotheses)),
            "detail": {"residue": residue},
        }
        assert list(rep.to_record()["hypotheses"]) == list(names)

    def test_faithful_only_when_required(self):
        # C = {0,3,9} is 2-full and strictly largest, so only the
        # cover-other-components clause applies.
        rep = check_faithful(IntSet([0, 1, 3, 4, 9]), 3, 0)
        assert rep.verdict == "holds"
        assert not rep.detail["faithful_required"]
        assert rep.lhs == 4 and rep.rhs == 2


class TestMainSmall:
    def test_negative_bound(self):
        rep = bound_main_small(IntSet([0, 1]), 3)
        assert (rep.lhs, rep.rhs, rep.verdict) == (4, -26, "holds")

    def test_progression_forty(self):
        rep = bound_main_small(IntSet(range(40)), 3)
        assert (rep.lhs, rep.rhs) == (194, 164)

    def test_three_points(self):
        rep = bound_main_small(IntSet([0, 1, 3]), 3)
        assert (rep.lhs, rep.rhs) == (8, -21)

    def test_exact_constant_for_three(self):
        for size in (2, 5, 9):
            rep = bound_main_small(IntSet(range(size)), 3)
            assert rep.rhs == 5 * size - 36

    def test_prime_cap(self):
        with pytest.raises(ArithmeticRangeError):
            bound_main_small(IntSet([0, 1]), 17)
        with pytest.raises(InvalidModulusError):
            bound_main_small(IntSet([0, 1]), 9)
        with pytest.raises(InvalidModulusError):
            bound_main_small(IntSet([0, 1]), 3.0)


class TestMainLarge:
    def test_long_progression(self):
        strict, cor = bound_main_large(IntSet(range(220)), 3)
        assert (cor.lhs, cor.rhs, cor.verdict) == (1094, 1090, "holds")
        # every component of a long progression meets all classes mod 9
        assert strict.verdict == "not-applicable"
        assert not strict.hypotheses["not_semi_full"]

    def test_threshold_progression(self):
        strict, cor = bound_main_large(IntSet(range(217)), 3)
        assert (cor.lhs, cor.rhs, cor.verdict) == (1079, 1075, "holds")

    def test_small_set_not_applicable(self):
        strict, cor = bound_main_large(IntSet([0, 1, 3]), 3)
        assert strict.verdict == "not-applicable"
        assert cor.verdict == "not-applicable"
        assert not cor.hypotheses["size_gt_8kk"]

    def test_strict_bound_on_constructed_set(self):
        # dropping residues 3 and 6 mod 9 pins the class-0 component to a
        # single class mod 9, so the set is large but not 3-semi-full
        a = IntSet(x for x in range(703) if x % 9 not in (3, 6))
        assert len(a) > 216
        strict, cor = bound_main_large(a, 3)
        assert strict.hypotheses_met
        assert strict.verdict == "holds"
        assert strict.lhs > 5 * len(a)
        assert cor.verdict == "holds"


class TestApSize:
    def test_matches_recompute(self):
        for k in (3, 5, 7, 11, 13):
            for n in range(1, 41):
                assert ap_size(n, k) == ap_recompute(n, k), (n, k)

    def test_validation(self):
        for k in (4, 9):
            with pytest.raises(InvalidModulusError):
                ap_size(5, k)
        with pytest.raises(InvalidModulusError):
            ap_size(4, 3.0)
        with pytest.raises(TypeError):
            ap_size(4.0, 3)
        with pytest.raises(ValueError):
            ap_size(0, 3)


class TestApExactSize:
    """The exact progression size by direct fold: ap_recompute."""

    def test_recompute_matches_oracle(self):
        for n, k in [(2, 3), (3, 5), (4, 5), (6, 7)]:
            assert ap_recompute(n, k) == len(naive_dilate_sum(tuple(range(n)), (2, k)))

    @pytest.mark.parametrize(
        "n, error, message",
        [
            # (3+2)*(30-1) = 145 > 100, the lowered int64 limit.
            (30, ArithmeticRangeError, "dilate-sum envelope 145 exceeds"),
            # span 5*4 = 20 > 10 and 5*5 = 25 > 16 sums.
            (5, MergeLimitError, "merge of 5 x 5 elements would form 25 sums"),
        ],
    )
    def test_recompute_refuses_before_folding(self, monkeypatch, n, error, message):
        monkeypatch.setattr(dilates.backend, "INT64_MAX", 100)
        monkeypatch.setattr(dilates.backend, "BITSET_SPAN_LIMIT", 10)
        monkeypatch.setattr(dilates.backend, "MERGE_PAIR_LIMIT", 16)

        def no_build(*args):
            raise AssertionError("a refused progression was built")

        monkeypatch.setattr(dilates.backend, "_dilated", no_build)
        monkeypatch.setattr(dilates.backend._impl, "sumset_elements", no_build)
        with pytest.raises(error, match=message):
            ap_recompute(n, 3)

    def test_recompute_merges_within_limits(self, monkeypatch):
        # span 5*3 = 15 > 10 takes the merge route; 4*4 = 16 sums are allowed.
        monkeypatch.setattr(dilates.backend, "BITSET_SPAN_LIMIT", 10)
        monkeypatch.setattr(dilates.backend, "MERGE_PAIR_LIMIT", 16)
        assert ap_recompute(4, 3) == ap_size(4, 3)

    def test_validation(self):
        for n in (0, -2):
            with pytest.raises(ValueError, match=f"cardinality must be >= 1, got {n}"):
                ap_recompute(n, 3)
        with pytest.raises(TypeError):
            ap_recompute(4.0, 3)
        with pytest.raises(TypeError):
            ap_recompute(4, 3.0)


class TestCheckSuite:
    def test_all_pass_on_full_triple(self):
        reports = check_suite(IntSet([0, 1, 2]), 3)
        assert reports
        assert all(r.verdict in ("holds", "not-applicable") for r in reports)
        ids = [r.statement_id for r in reports]
        assert ids == sorted(ids)
        assert ids.count("faithful_component") == 3

    def test_singleton(self):
        reports = check_suite(IntSet([0]), 3)
        assert all(r.verdict != "fails" for r in reports)

    def test_four_bound_equality_case(self):
        reports = check_suite(IntSet([0, 1, 3]), 3)
        assert all(r.verdict != "fails" for r in reports)
        four = next(r for r in reports if r.statement_id == "four_bound")
        assert four.slack == 0

    def test_canonicalizes_where_needed(self):
        reports = check_suite(IntSet([10, 16, 22]), 3)
        assert all(r.verdict != "fails" for r in reports)
        faithful = [r for r in reports if r.statement_id == "faithful_component"]
        assert faithful and all(r.detail["canonicalized"] for r in faithful)

    def test_requires_odd_prime(self):
        with pytest.raises(InvalidModulusError):
            check_suite(IntSet([0, 1]), 6)
        with pytest.raises(InvalidModulusError):
            check_suite(IntSet([0, 1]), 3.0)

    @pytest.mark.parametrize(
        "elems", [[0, 1, 3, 4, 9], [10, 16, 22, 25], [-7, -2, 4, 5, 6, 11]]
    )
    def test_folds_dilate_sum_once(self, monkeypatch, elems):
        calls = []
        real = dilates.bounds.fold_size
        monkeypatch.setattr(
            dilates.bounds, "fold_size", lambda terms: calls.append(terms) or real(terms)
        )
        check_suite(IntSet(elems), 5)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "elems, k, shared",
        [
            ([0, 1, 3, 4, 9], 5, True),
            ([10, 16, 22, 25], 5, True),
            ([-7, -2, 4, 5, 6, 11], 3, True),
            # g = 5 = k: A lies in one class, canon in four.
            ([0, 5, 15, 20, 45], 5, False),
        ],
    )
    def test_builds_marginal_sets_once(self, monkeypatch, elems, k, shared):
        calls = []
        real = dilates.bounds.marginal_set
        monkeypatch.setattr(
            dilates.bounds, "marginal_set",
            lambda c, target, m: calls.append(c) or real(c, target, m),
        )
        a = IntSet(elems)
        reports = check_suite(a, k)
        faithful = [r for r in reports if r.statement_id == "faithful_component"]
        assert faithful
        assert len(calls) == len(decompose(a, k)) + (0 if shared else len(faithful))

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(0, 30), min_size=1, max_size=9),
        st.integers(-60, 60),
        st.sampled_from((1, 2, "k", "2k")),
        st.sampled_from((3, 5, 7)),
    )
    def test_shared_marginal_sizes_match_public_checkers(self, base, shift, scale, k):
        g = {"k": k, "2k": 2 * k}.get(scale, scale)
        a = IntSet([shift + g * x for x in base])
        canon = canonicalize(a)
        note = {"canonicalized": canon != a}
        expected = [bound_marginal_total(a, k).to_record()]
        for r in range(k):
            rep = check_faithful(canon, k, r)
            if rep.hypotheses_met:
                expected.append({**rep.to_record(),
                                 "detail": {**rep.detail, **note}})
        got = [
            r.to_record() for r in check_suite(a, k)
            if r.statement_id in ("marginal_total_bound", "faithful_component")
        ]
        key = lambda rec: (rec["statement_id"], rec["detail"].get("residue", -1))
        assert got == sorted(expected, key=key)

    # Records as the suite gave them when every checker folded on its own:
    # (statement_id, verdict, lhs, rhs, error).
    @pytest.mark.parametrize(
        "elems, expected",
        [
            # The fold on A leaves int64; the canonical set {0..10} fits.
            (
                range((2**63 - 1) // 5 - 5, (2**63 - 1) // 5 + 6),
                [
                    ("basic_bound", "not-applicable", None, None,
                     "dilate-sum envelope 9223372036854775830 exceeds the signed 64-bit range"),
                    ("four_bound", "not-applicable", None, None,
                     "dilate-sum envelope 9223372036854775830 exceeds the signed 64-bit range"),
                    ("full_semifull_bound", "not-applicable", None, None,
                     "dilate-sum envelope 9223372036854775830 exceeds the signed 64-bit range"),
                    ("main_large_bound", "not-applicable", 49, 45, None),
                    ("main_large_strict", "not-applicable", 49, 55, None),
                    ("main_small_bound", "not-applicable", None, None,
                     "dilate-sum envelope 9223372036854775830 exceeds the signed 64-bit range"),
                    ("marginal_total_bound", "not-applicable", None, None,
                     "sumset maximum 9223372036854775830 is outside the signed 64-bit range"),
                ],
            ),
            # The fold on A fits, but the canonical set {0, 2^60 + 1, 2^61}
            # has the larger envelope and leaves int64.
            (
                [-(2**60), 1, 2**60],
                [
                    ("basic_bound", "holds", 9, 8, None),
                    ("faithful_component", "holds", 2, 2, None),
                    ("faithful_component", "not-applicable", None, None,
                     "sumset maximum 11529215046068469760 is outside the signed 64-bit range"),
                    ("four_bound", "holds", 9, 8, None),
                    ("full_semifull_bound", "not-applicable", 9, None, None),
                    ("main_large_bound", "not-applicable", None, None,
                     "dilate-sum envelope 11529215046068469760 exceeds the signed 64-bit range"),
                    ("main_large_strict", "not-applicable", None, None,
                     "dilate-sum envelope 11529215046068469760 exceeds the signed 64-bit range"),
                    ("main_small_bound", "holds", 9, -21, None),
                    ("marginal_total_bound", "holds", 4, 2, None),
                ],
            ),
            # Both folds leave int64: A spans all of it, and its canonical
            # set {0, 2^63, 2^64 - 1} lies above INT64_MAX.
            (
                [-(2**63), 0, 2**63 - 1],
                [
                    ("basic_bound", "not-applicable", None, None,
                     "dilate-sum envelope 46116860184273879040 exceeds the signed 64-bit range"),
                    ("faithful_component", "not-applicable", None, None,
                     "dilated value 36893488147419103230 is outside the signed 64-bit range"),
                    ("faithful_component", "not-applicable", None, None,
                     "dilated value 18446744073709551616 is outside the signed 64-bit range"),
                    ("four_bound", "not-applicable", None, None,
                     "dilate-sum envelope 46116860184273879040 exceeds the signed 64-bit range"),
                    ("full_semifull_bound", "not-applicable", None, None,
                     "dilate-sum envelope 46116860184273879040 exceeds the signed 64-bit range"),
                    ("main_large_bound", "not-applicable", None, None,
                     "dilate-sum envelope 92233720368547758075 exceeds the signed 64-bit range"),
                    ("main_large_strict", "not-applicable", None, None,
                     "dilate-sum envelope 92233720368547758075 exceeds the signed 64-bit range"),
                    ("main_small_bound", "not-applicable", None, None,
                     "dilate-sum envelope 46116860184273879040 exceeds the signed 64-bit range"),
                    ("marginal_total_bound", "not-applicable", None, None,
                     "dilated value -27670116110564327424 is outside the signed 64-bit range"),
                ],
            ),
        ],
    )
    def test_int64_records_pinned(self, elems, expected):
        got = [
            (r.statement_id, r.verdict, r.lhs, r.rhs, r.detail.get("error"))
            for r in check_suite(IntSet(elems), 3)
        ]
        assert got == expected

    def test_raised_faithful_check_keeps_residue(self):
        # The canonical set {0, 2^60 + 1, 2^61} at k = 3: the component at
        # residue 2 leaves int64 in its marginal set, the one at 0 fits.
        reports = check_suite(IntSet([-(2**60), 1, 2**60]), 3)
        faithful = [r for r in reports if r.statement_id == "faithful_component"]
        assert [r.detail["residue"] for r in faithful] == [0, 2]
        assert faithful[1].to_record() == {
            "statement_id": "faithful_component",
            "hypotheses_met": False,
            "lhs": None,
            "rhs": None,
            "slack": None,
            "verdict": "not-applicable",
            "relation": ">=",
            "hypotheses": {"checker_ran": False},
            "detail": {
                "residue": 2,
                "canonicalized": True,
                "error": "sumset maximum 11529215046068469760 is outside the signed 64-bit range",
            },
        }

    def test_large_prime_becomes_not_applicable(self):
        # constants for k = 17 overflow; the suite degrades, not aborts
        reports = check_suite(IntSet([0, 1, 2]), 17)
        by_id = {r.statement_id: r for r in reports}
        # The large-set checker owns two statements; each gets its entry.
        for statement_id in ("main_small_bound", "main_large_strict", "main_large_bound"):
            assert by_id[statement_id].to_record() == {
                "statement_id": statement_id,
                "hypotheses_met": False,
                "lhs": None,
                "rhs": None,
                "slack": None,
                "verdict": "not-applicable",
                "relation": ">=",
                "hypotheses": {"checker_ran": False},
                "detail": {
                    "error": "bound constants for k=17 exceed the signed 64-bit range "
                             "(largest supported odd prime is 13)"
                },
            }


def test_check_pool_records_pinned(perfbench_pool):
    """One pool member per stratum of the benchmark's check workload
    (member ``stratum % 8``) gives records with the pinned digest."""
    workloads, pins = perfbench_pool
    assert len(workloads.CHECK_STRATA) == 44
    mismatched = []
    for stratum in range(len(workloads.CHECK_STRATA)):
        member = stratum % workloads.MEMBERS
        elems, k = workloads.check_member(stratum, member)
        records = workloads.records_json(check_suite(IntSet(elems), k))
        if workloads.digest(records) != pins["check"][f"{stratum}:{member}"]:
            mismatched.append(f"{stratum}:{member}")
    assert mismatched == []


def test_small_soundness_sweep():
    """No checker may fail on any canonical set: a fast unit-size sweep."""
    for size in (2, 3, 4):
        for a in map(IntSet, naive_canonical_family(size, 10, reflect=False)):
            for rep in check_suite(a, 3):
                assert rep.verdict != "fails", (a, rep)
