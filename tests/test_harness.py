import dataclasses
import itertools
from fractions import Fraction as F

import pytest

from ifsemigroups import (
    CarrierMismatch,
    Certificate,
    ElementSubset,
    EmptySubset,
    FuzzyStructureKind as K,
    HypothesisNotMet,
    IFSubset,
    OrderTooLarge,
    ParseError,
    PreconditionNotMet,
    SampleSpec,
    THEOREM_IDS,
    TransformParams,
    break_property,
    characteristic_pair,
    check,
    check_archimedean_constant,
    check_characterization,
    check_group_constant,
    check_product_inclusions,
    check_regular_iff_product,
    check_semiprime_fixedpoint,
    check_semiprime_intersection,
    check_transform_equivalence,
    find_violation,
    library_entry,
    magnify,
    replay_certificate,
    run_suite,
    sample_ifs,
)
from ifsemigroups.harness import alpha_samples


class TestSampleIfs:
    def test_carrier_one_half_grid(self):
        spec = SampleSpec(grade_grid_step=F(1, 2))
        got = list(sample_ifs(1, spec))
        assert len(got) == 3
        assert sorted((A.mu[0], A.nu[0]) for A in got) == [
            (F(1, 2), F(0)), (F(1, 2), F(1, 2)), (F(1), F(0)),
        ]

    def test_carrier_one_step_one(self):
        got = list(sample_ifs(1, SampleSpec(grade_grid_step=F(1))))
        assert len(got) == 1
        assert got[0].mu == (F(1),) and got[0].nu == (F(0),)

    def test_grid_counts(self):
        spec = SampleSpec()
        assert sum(1 for _ in sample_ifs(1, spec)) == 10
        assert sum(1 for _ in sample_ifs(2, spec)) == 200

    def test_streams_are_deterministic(self):
        spec = SampleSpec(random_count=20, seed=7)
        a = list(sample_ifs(2, spec))
        b = list(sample_ifs(2, spec))
        assert a == b

    def test_randoms_respect_invariants(self):
        spec = SampleSpec(random_count=50, seed=3)
        for A in sample_ifs(3, spec):
            assert any(A.mu)
            assert all(m + v <= 1 for m, v in zip(A.mu, A.nu))

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            SampleSpec(grade_grid_step=F(1, 3) * 2)

    @pytest.mark.parametrize("field, value", [
        ("beta_grid", (F(1, 2),)), ("alpha_strategy", "max"),
    ])
    def test_constant_sampling_fields_are_not_settable(self, field, value):
        # the beta grid and the alpha rule are constants of the plan
        with pytest.raises(TypeError, match=field):
            SampleSpec(**{field: value})
        assert [f.name for f in dataclasses.fields(SampleSpec)] == [
            "grade_grid_step", "random_count", "seed", "max_pair_subjects"]

    @pytest.mark.parametrize("name, value", [
        ("max_pair_subjects", 2.5), ("max_pair_subjects", F(3)), ("max_pair_subjects", True),
        ("random_count", 1.5), ("random_count", "2"), ("random_count", False),
    ])
    def test_non_integer_counts_rejected(self, name, value):
        # either would otherwise fail mid-sweep: islice wants an integer
        # stop, sample_ifs an integer range
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SampleSpec(**{name: value})

    @pytest.mark.parametrize("value", [None, True, 1.5, "x"])
    def test_non_integer_seed_rejected(self, value):
        # random.Random(None) seeds from the clock, so two streams would differ
        with pytest.raises(ValueError, match="seed must be an integer"):
            SampleSpec(seed=value, random_count=3)

    def test_carrier_order_below_one_rejected(self):
        for order in (0, -1):
            with pytest.raises(ParseError, match=f"^carrier order {order} is below 1: "
                                                 "a semigroup has at least one element$"):
                next(sample_ifs(order, SampleSpec(random_count=1)))

    @pytest.mark.parametrize("field, value, name", [
        ("grade_grid_step", 0.5, "grid step"),
    ])
    def test_float_spec_fields_refused(self, field, value, name):
        # Fraction(0.1) would silently sample beta = 3602879701896397/2**55
        with pytest.raises(ParseError, match=f"^{name} = [0-9.]+ is a float"):
            SampleSpec(**{field: value})

    def test_spec_coerces_numeric_fields(self):
        assert SampleSpec(grade_grid_step=1).grade_grid_step == F(1)


class TestAlphaSamples:
    def test_grid_strategy(self, worked_subject):
        got = alpha_samples(worked_subject, F(1, 5), "grid")
        assert got == alpha_samples(worked_subject, F(1, 5)) == (F(0), F(1, 40), F(1, 20))

    def test_grid_collapses_when_nu_vanishes(self):
        A = IFSubset(2, (F(1), F(0)), (F(0), F(1)))
        assert alpha_samples(A, F(1, 2), "grid") == (F(0),)


class TestTransformEquivalence:
    def test_worked_example_on_left_zero(self, worked_subject):
        S = library_entry("leftzero3").semigroup
        for kind in K:
            rep = check_transform_equivalence(
                kind, S, worked_subject, TransformParams(F(1, 5), F(1, 25))
            )
            assert rep.outcome == "verified"

    def test_failing_subject_fails_on_both_sides(self, mod2):
        A = characteristic_pair(2, ElementSubset(2, frozenset({0})))
        rep = check_transform_equivalence(
            K.LEFT_IDEAL, mod2, A, TransformParams(F(1, 2), F(0))
        )
        assert rep.outcome == "verified"  # false on both sides

    def test_every_kind_over_a_grid(self, semilattice2):
        spec = SampleSpec(grade_grid_step=F(1, 2))
        for A in sample_ifs(2, spec):
            for beta in (F(1, 2), F(1)):
                for alpha in alpha_samples(A, beta):
                    for kind in K:
                        rep = check_transform_equivalence(
                            kind, semilattice2, A, TransformParams(beta, alpha)
                        )
                        assert rep.outcome == "verified"


class TestGroupConstant:
    def test_constant_subject(self, mod2):
        A = IFSubset(2, (F(1, 3), F(1, 3)), (F(1, 2), F(1, 2)))
        rep = check_group_constant(mod2, A, TransformParams(F(1, 2), F(1, 4)))
        assert rep.outcome == "verified"

    def test_non_bi_ideal_is_non_constant(self, mod2):
        A = IFSubset(2, (F(1), F(0)), (F(0), F(1)))
        assert not check(K.BI_IDEAL, mod2, A)
        rep = check_group_constant(mod2, A, TransformParams(F(1, 2), F(0)))
        assert rep.outcome == "verified"

    def test_requires_group(self, leftzero2, worked_subject):
        with pytest.raises(HypothesisNotMet):
            check_group_constant(
                leftzero2,
                IFSubset(2, (F(1, 2), F(1, 2)), (F(0), F(0))),
                TransformParams(F(1), F(0)),
            )


class TestSemiprimeIntersection:
    def test_subject_with_itself(self, semilattice2):
        A = IFSubset(2, (F(1, 2), F(1, 4)), (F(0), F(1, 2)))
        assert check(K.SEMIPRIME, semilattice2, A)
        rep = check_semiprime_intersection(semilattice2, A, A)
        assert rep.outcome == "verified"

    def test_two_constants(self, semilattice2):
        A = IFSubset(2, (F(1, 2), F(1, 2)), (F(1, 4), F(1, 4)))
        B = IFSubset(2, (F(1, 3), F(1, 3)), (F(1, 3), F(1, 3)))
        rep = check_semiprime_intersection(semilattice2, A, B)
        assert rep.outcome == "verified"

    def test_rejects_non_semiprime_inputs(self, mod2):
        A = characteristic_pair(2, ElementSubset(2, frozenset({0})))
        ok = IFSubset(2, (F(1, 2), F(1, 2)), (F(0), F(0)))
        with pytest.raises(PreconditionNotMet):
            check_semiprime_intersection(mod2, A, ok)


class TestFixedpoint:
    def test_non_constant_ideal_on_idempotent_table(self, semilattice2):
        A = IFSubset(2, (F(1, 2), F(1, 4)), (F(0), F(1, 2)))
        rep = check_semiprime_fixedpoint(semilattice2, A, TransformParams(F(1, 2), F(0)))
        assert rep.outcome == "verified"

    def test_constant_on_null(self, null2):
        A = IFSubset(2, (F(1, 2), F(1, 2)), (F(1, 4), F(1, 4)))
        rep = check_semiprime_fixedpoint(null2, A, TransformParams(F(3, 4), F(1, 8)))
        assert rep.outcome == "verified"

    def test_precondition(self, mod2):
        A = characteristic_pair(2, ElementSubset(2, frozenset({0})))
        with pytest.raises(PreconditionNotMet):
            check_semiprime_fixedpoint(mod2, A, TransformParams(F(1), F(0)))


class TestCharacterization:
    def test_forward_on_left_zero(self, leftzero2):
        rep = check_characterization(
            "intra_regular", leftzero2, SampleSpec(grade_grid_step=F(1, 2))
        )
        assert rep.outcome == "verified"
        assert rep.subjects_checked > 0 and not rep.witnesses

    def test_converse_witness_on_monogenic(self, monogenic2):
        rep = check_characterization("intra_regular", monogenic2)
        assert rep.outcome == "verified"
        assert len(rep.witnesses) == 1
        wit = rep.witnesses[0]
        assert wit.points == (0,)
        assert wit.mu_a == (F(0), F(1))  # indicator of the principal ideal {a*a}
        assert replay_certificate(wit)

    def test_all_three_kinds_on_null(self, null2):
        for kind in ("intra_regular", "left_regular", "right_regular"):
            rep = check_characterization(kind, null2)
            assert rep.outcome == "verified" and rep.witnesses

    def test_unknown_kind(self, null2):
        with pytest.raises(ValueError):
            check_characterization("totally_regular", null2)

    def test_nonzero_witness_shift_is_a_counterexample(self, null2, monkeypatch):
        import ifsemigroups.harness as harness

        monkeypatch.setattr(harness, "max_alpha", lambda A, beta: F(1, 8))
        rep = check_characterization("intra_regular", null2)
        assert rep.outcome == "counterexample"
        assert rep.certificate.alpha == F(1, 8)
        assert "non-zero shift" in rep.certificate.detail

    def test_suite_replays_the_converse_witness(self, monkeypatch):
        import ifsemigroups.harness as harness

        monkeypatch.setattr(harness, "replay_certificate", lambda cert: False)
        with pytest.raises(AssertionError, match="converse witness"):
            run_suite([2], SampleSpec(grade_grid_step=F(1, 2)),
                      theorems="char_left_regular", include_library=False)


class TestArchimedeanConstant:
    def test_null_semigroup(self, null2):
        A = IFSubset(2, (F(1, 2), F(1, 2)), (F(1, 4), F(1, 4)))
        rep = check_archimedean_constant(null2, A, TransformParams(F(1, 2), F(1, 8)))
        assert rep.outcome == "verified"

    def test_rejects_non_archimedean(self, semilattice2):
        A = IFSubset(2, (F(1, 2), F(1, 2)), (F(1, 4), F(1, 4)))
        with pytest.raises(HypothesisNotMet):
            check_archimedean_constant(semilattice2, A, TransformParams(F(1), F(0)))

    def test_rejects_non_semiprime(self, null2):
        A = IFSubset(2, (F(1), F(1, 2)), (F(0), F(1, 4)))
        with pytest.raises(PreconditionNotMet):
            check_archimedean_constant(null2, A, TransformParams(F(1), F(0)))


class TestProductInclusions:
    def test_constants_on_left_zero(self, leftzero2):
        A = IFSubset(2, (F(1, 2), F(1, 2)), (F(1, 4), F(1, 4)))
        B = IFSubset(2, (F(1, 3), F(1, 3)), (F(1, 2), F(1, 2)))
        rep = check_product_inclusions(
            leftzero2, A, B, TransformParams(F(1, 2), F(1, 8)), "bi_ideal_pair"
        )
        assert rep.outcome == "verified"
        rep = check_product_inclusions(
            leftzero2, A, B, TransformParams(F(1, 2), F(1, 8)), "one_two_pair"
        )
        assert rep.outcome == "verified"

    def test_hypothesis_gate(self, null2):
        A = IFSubset(2, (F(1, 2), F(1, 2)), (F(1, 4), F(1, 4)))
        with pytest.raises(HypothesisNotMet):
            check_product_inclusions(
                null2, A, A, TransformParams(F(1), F(0)), "bi_ideal_pair"
            )

    def test_subject_gate(self, mod2):
        bad = IFSubset(2, (F(1), F(0)), (F(0), F(1)))  # not a bi-ideal in the group
        with pytest.raises(PreconditionNotMet):
            check_product_inclusions(
                mod2, bad, bad, TransformParams(F(1), F(0)), "bi_ideal_pair"
            )


class TestRegularIffProduct:
    def test_group(self, mod2):
        rep = check_regular_iff_product(mod2, SampleSpec(grade_grid_step=F(1, 2)))
        assert rep.outcome == "verified" and not rep.witnesses

    def test_left_zero(self, leftzero2):
        rep = check_regular_iff_product(leftzero2, SampleSpec(grade_grid_step=F(1, 2)))
        assert rep.outcome == "verified"

    def test_null_has_witness(self, null2):
        rep = check_regular_iff_product(null2)
        assert rep.outcome == "verified"
        assert rep.witnesses
        assert replay_certificate(rep.witnesses[0])


class TestBreakProperty:
    def test_each_kind_can_be_broken(self, mod2):
        A = IFSubset(2, (F(1, 2), F(1, 2)), (F(1, 4), F(1, 4)))
        for kind in K:
            M = break_property(mod2, A, kind)
            assert M is not None
            assert not check(kind, mod2, M)

    def test_mutant_keeps_the_bound(self, semilattice2):
        A = IFSubset(2, (F(1, 2), F(1, 4)), (F(0), F(1, 2)))
        M = break_property(semilattice2, A, K.LEFT_IDEAL)
        assert M is not None
        assert all(m + v <= 1 for m, v in zip(M.mu, M.nu))

    def test_returns_none_when_unbreakable(self, mod2):
        # zero membership everywhere except one point leaves no positive minimum
        A = IFSubset(2, (F(0), F(1, 2)), (F(1), F(0)))
        assert break_property(mod2, A, K.SEMIPRIME) is None

    def test_never_raises_membership_on_a_failing_subject(self, null2):
        # the subject already fails at 1*1 = 0; halving the required 1/2
        # there would raise mu(0) to 1/4 and break mu + nu <= 1
        A = IFSubset(2, (F(0), F(1, 2)), (F(1), F(0)))
        M = break_property(null2, A, K.SUBSEMIGROUP)
        assert M is not None
        assert M.mu[0] <= A.mu[0]
        assert not check(K.SUBSEMIGROUP, null2, M)

    @pytest.mark.parametrize("A, error", [
        (IFSubset(3, (F(1, 2),) * 3, (F(1, 4),) * 3), CarrierMismatch),
        (IFSubset(2, (F(0), F(0)), (F(1, 2), F(1))), EmptySubset),
    ], ids=["three-points", "zero-membership"])
    def test_subject_refused_as_find_violation_refuses_it(self, mod2, A, error):
        with pytest.raises(error):
            find_violation(K.SUBSEMIGROUP, mod2, A)
        with pytest.raises(error):
            break_property(mod2, A, K.SUBSEMIGROUP)

    def test_unknown_kind_refused(self, mod2):
        # the kind's value, not the kind itself
        A = IFSubset(2, (F(1, 2), F(1, 2)), (F(1, 4), F(1, 4)))
        with pytest.raises(ValueError, match="unknown kind 'bi_ideal'"):
            break_property(mod2, A, "bi_ideal")


class TestReplayCertificate:
    def test_forged_equivalence_claim_does_not_replay(self, mod2):
        A = IFSubset(2, (F(1, 2), F(1, 2)), (F(1, 4), F(1, 4)))
        forged = Certificate(
            "equiv_subsemigroup", "n2", mod2.table, A.mu, A.nu,
            beta=F(1, 2), alpha=F(0), kind="subsemigroup",
            detail="fabricated",
        )
        assert not replay_certificate(forged)

    def test_genuine_product_witness_replays(self, null2):
        chi = characteristic_pair(2, ElementSubset(2, frozenset({0, 1})))
        cert = Certificate(
            "regular_product", "n2", null2.table, chi.mu, chi.nu, chi.mu, chi.nu,
            kind="fuzzy", detail="product misses element 1",
        )
        assert replay_certificate(cert)


class TestRunSuite:
    def test_order2_shape_and_outcomes(self):
        reports = run_suite([2], include_library=False)
        assert len(reports) == 8 * len(THEOREM_IDS)
        assert all(r.outcome == "verified" for r in reports)
        labels = [r.semigroup for r in reports]
        assert labels == sorted(labels, key=labels.index)  # grouped by semigroup

    def test_determinism(self):
        spec = SampleSpec(grade_grid_step=F(1, 2), random_count=5, seed=11)
        a = run_suite([1, 2], spec, include_library=False)
        b = run_suite([1, 2], spec, include_library=False)
        assert a == b

    def test_theorem_filter(self):
        reports = run_suite([1], theorems="fixedpoint", include_library=False)
        assert [r.theorem_id for r in reports] == ["fixedpoint"]
        assert reports[0].outcome == "verified"

    def test_bad_filter_lists_valid_ids(self):
        with pytest.raises(ValueError) as exc:
            run_suite([1], theorems="nosuch")
        assert "fixedpoint" in str(exc.value)

    def test_order_cap(self):
        with pytest.raises(OrderTooLarge):
            run_suite([4])

    def test_library_always_has_labels(self):
        spec = SampleSpec(grade_grid_step=F(1, 2))
        reports = run_suite([], spec, theorems="fixedpoint")
        assert {r.semigroup for r in reports} == {
            f"lib:{e.name}" for e in __import__("ifsemigroups").builtin_library()
        }

    def test_counts_are_visible(self):
        reports = run_suite([2], theorems="group_constant", include_library=False)
        # exactly two of the eight order-2 tables are groups
        groups = [r for r in reports if r.subjects_checked > 0]
        skipped = [r for r in reports if r.subjects_checked == 0]
        assert len(groups) == 2
        assert all(r.hypothesis_skipped == 200 for r in skipped)


@pytest.mark.parametrize("field, value, message", [
    ("random_count", -1, "random_count must be non-negative"),
    ("max_pair_subjects", 0, "max_pair_subjects must be positive"),
])
def test_counts_out_of_range_rejected(field, value, message):
    with pytest.raises(ValueError, match=message):
        SampleSpec(**{field: value})


def test_unknown_alpha_strategy_is_refused_by_alpha_samples(worked_subject):
    with pytest.raises(ValueError, match="alpha strategy 'bogus' not in"):
        alpha_samples(worked_subject, F(1, 2), "bogus")
