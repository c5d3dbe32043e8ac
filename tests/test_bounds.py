import pytest

import dilates.bounds
from dilates import (
    ArithmeticRangeError,
    BoundReport,
    HypothesisError,
    IntSet,
    InvalidModulusError,
    VerificationError,
    ap_exact_size,
    ap_recompute,
    ap_size,
    bound_basic,
    bound_four,
    bound_full_semifull,
    bound_main_large,
    bound_main_small,
    bound_marginal_total,
    check_affine_invariance,
    check_faithful,
    check_suite,
    deficiency,
    enumerate_canonical,
)

from bruteforce import naive_dilate_sum, naive_fold


class TestAffineInvariance:
    def test_identity_transform(self):
        rep = check_affine_invariance(IntSet([0, 1, 3]), 2, 3, 1, 0)
        assert rep.verdict == "holds" and rep.slack == 0

    def test_reflect_and_shift(self):
        rep = check_affine_invariance(IntSet([0, 1, 3]), 2, 3, -1, 7)
        assert rep.verdict == "holds"
        assert rep.detail["base_size"] == 8

    def test_two_point(self):
        rep = check_affine_invariance(IntSet([0, 1]), 2, 5, 3, -4)
        assert rep.verdict == "holds"
        assert rep.detail["base_size"] == 4

    def test_equal_coefficients_allowed(self):
        rep = check_affine_invariance(IntSet([0, 2, 5]), 3, 3, -2, 11)
        assert rep.verdict == "holds"


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
        with pytest.raises(InvalidModulusError):
            bound_marginal_total(IntSet([0, 1]), 9)
        rep = bound_marginal_total(IntSet([0, 1, 2]), 9, relax_modulus=True)
        assert rep.detail["relaxed"]
        assert not rep.hypotheses["odd_prime_k"]


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
        rep = check_faithful(IntSet([0, 1, 2]), 3, 7)
        assert rep.verdict == "not-applicable"
        assert not rep.hypotheses["component_exists"]

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


class TestApExactSize:
    def test_formula_values(self):
        assert ap_exact_size(2, 3) == 4
        assert ap_exact_size(3, 5) == 11
        assert ap_exact_size(1, 11) == 1

    def test_verification_detects_shortfall(self):
        # below n = k the true size is smaller than the closed form
        assert ap_recompute(3, 5) == 9
        with pytest.raises(VerificationError):
            ap_exact_size(3, 5, verify=True)

    def test_verified_in_validity_range(self):
        for k in (3, 5, 7):
            assert ap_exact_size(2, k, verify=True) == 4
            for n in range(k, 3 * k):
                assert ap_exact_size(n, k, verify=True) == (k + 2) * n - 2 * k

    def test_recompute_matches_oracle(self):
        for n, k in [(2, 3), (3, 5), (4, 5), (6, 7)]:
            assert ap_recompute(n, k) == len(naive_dilate_sum(tuple(range(n)), (2, k)))

    def test_validation(self):
        with pytest.raises(InvalidModulusError):
            ap_exact_size(5, 4)
        with pytest.raises(InvalidModulusError):
            ap_exact_size(4, 3.0)
        with pytest.raises(ValueError):
            ap_exact_size(0, 3)


class TestApSize:
    def test_matches_recompute(self):
        for k in (3, 5, 7, 11, 13):
            for n in range(1, 41):
                assert ap_size(n, k) == ap_recompute(n, k), (n, k)

    def test_validation(self):
        with pytest.raises(InvalidModulusError):
            ap_size(5, 9)
        with pytest.raises(InvalidModulusError):
            ap_size(4, 3.0)
        with pytest.raises(ValueError):
            ap_size(0, 3)


class TestDeficiency:
    def test_examples(self):
        assert deficiency(IntSet([0, 1]), (2, 3)) == 6
        assert deficiency(IntSet([0, 1, 3]), (2, 3)) == 7
        assert deficiency(IntSet([0, 1]), (1, 3)) == 4

    def test_gcd_hypothesis(self):
        with pytest.raises(HypothesisError):
            deficiency(IntSet([0, 1]), (2, 4))


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
                    ("faithful_component", "not-applicable", None, None,
                     "sumset maximum 11529215046068469760 is outside the signed 64-bit range"),
                    ("faithful_component", "holds", 2, 2, None),
                    ("four_bound", "holds", 9, 8, None),
                    ("full_semifull_bound", "not-applicable", 9, None, None),
                    ("main_large_strict", "not-applicable", None, None,
                     "dilate-sum envelope 11529215046068469760 exceeds the signed 64-bit range"),
                    ("main_small_bound", "holds", 9, -21, None),
                    ("marginal_total_bound", "holds", 4, 2, None),
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

    def test_large_prime_becomes_not_applicable(self):
        # constants for k = 17 overflow; the suite degrades, not aborts
        reports = check_suite(IntSet([0, 1, 2]), 17)
        by_id = {r.statement_id: r for r in reports}
        assert by_id["main_small_bound"].verdict == "not-applicable"
        assert "error" in by_id["main_small_bound"].detail


def test_report_round_trip():
    rep = bound_four(IntSet([0, 1, 3]), 2, 3)
    assert BoundReport.from_record(rep.to_record()) == rep
    na = bound_basic(IntSet([0, 1]), IntSet([0, 1]), 2, 4)
    assert BoundReport.from_record(na.to_record()) == na


def test_small_soundness_sweep():
    """No checker may fail on any canonical set: a fast unit-size sweep."""
    for size in (2, 3, 4):
        for a in enumerate_canonical(size, 10, reflection_quotient=False):
            for rep in check_suite(a, 3):
                assert rep.verdict != "fails", (a, rep)
