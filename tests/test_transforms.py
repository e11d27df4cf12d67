import random
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ifsemigroups import (
    AlphaOutOfRange,
    BetaOutOfRange,
    IFSubset,
    ParseError,
    SampleSpec,
    TransformParams,
    ifs_eq,
    magnify,
    max_alpha,
    multiply,
    translate,
)
from ifsemigroups import harness, predicates

from conftest import grades, subjects


class TestMaxAlpha:
    def test_worked_example_bound(self, worked_subject):
        assert max_alpha(worked_subject, F(1, 5)) == F(1, 20)

    def test_zero_beta(self, worked_subject):
        assert max_alpha(worked_subject, F(0)) == 0

    def test_full_nonmembership(self):
        A = IFSubset(2, (F(0), F(0)), (F(1), F(1)))
        assert max_alpha(A, F(1)) == 1

    def test_beta_range(self, worked_subject):
        with pytest.raises(BetaOutOfRange):
            max_alpha(worked_subject, F(3, 2))


class TestTranslate:
    def test_zero_shift_is_identity(self, worked_subject):
        assert ifs_eq(translate(worked_subject, F(0)), worked_subject)

    def test_boundary_shift(self, worked_subject):
        out = translate(worked_subject, F(1, 4))
        assert out.mu == (F(11, 20), F(7, 20), F(3, 4))
        assert out.nu == (F(3, 20), F(0), F(1, 20))

    def test_shift_above_bound(self, worked_subject):
        with pytest.raises(AlphaOutOfRange) as exc:
            translate(worked_subject, F(3, 10))
        assert exc.value.bound == F(1, 4)


class TestMultiply:
    def test_identity(self, worked_subject):
        assert ifs_eq(multiply(worked_subject, F(1)), worked_subject)

    def test_zero(self, worked_subject):
        out = multiply(worked_subject, F(0))
        assert set(out.mu) == {F(0)} and set(out.nu) == {F(0)}

    def test_worked_example_scaling(self, worked_subject):
        out = multiply(worked_subject, F(1, 5))
        assert out.mu == (F(3, 50), F(1, 50), F(1, 10))
        assert out.nu == (F(2, 25), F(1, 20), F(3, 50))

    def test_range(self, worked_subject):
        with pytest.raises(BetaOutOfRange):
            multiply(worked_subject, F(-1, 2))


class TestMagnify:
    def test_worked_example(self, worked_subject):
        out = magnify(worked_subject, TransformParams(F(1, 5), F(1, 25)))
        assert out.mu == (F(1, 10), F(3, 50), F(7, 50))
        assert out.nu == (F(1, 25), F(1, 100), F(1, 50))
        assert not ifs_eq(out, worked_subject)

    def test_identity_parameters(self, worked_subject):
        out = magnify(worked_subject, TransformParams(F(1), F(0)))
        assert ifs_eq(out, worked_subject)

    def test_alpha_above_bound(self, worked_subject):
        with pytest.raises(AlphaOutOfRange) as exc:
            magnify(worked_subject, TransformParams(F(1, 5), F(3, 50)))
        assert exc.value.bound == F(1, 20)

    def test_beta_zero_rejected_for_params(self):
        with pytest.raises(BetaOutOfRange):
            TransformParams(F(0), F(0))

    def test_beta_zero_message_states_the_open_interval(self):
        with pytest.raises(BetaOutOfRange, match=r"^beta = 0 outside \(0, 1\]$"):
            TransformParams(F(0), F(0))

    def test_params_alpha_sanity(self):
        with pytest.raises(AlphaOutOfRange):
            TransformParams(F(1, 2), F(3, 2))

    def test_boundary_alpha_produces_zero_nu(self, worked_subject):
        out = magnify(worked_subject, TransformParams(F(1, 5), F(1, 20)))
        assert min(out.nu) == 0


@pytest.mark.parametrize("name, call", [
    ("beta", lambda A: TransformParams(0.5, F(0))),
    ("alpha", lambda A: TransformParams(F(1, 2), 0.0)),
    ("alpha", lambda A: translate(A, 0.125)),
    ("beta", lambda A: multiply(A, 0.5)),
    ("beta", lambda A: max_alpha(A, 0.5)),
])
def test_float_parameters_are_refused(worked_subject, name, call):
    """A float parameter is refused by name, as a float grade is, instead of
    failing in the integer kernel or leaking a float into the shifts."""
    with pytest.raises(ParseError, match=rf"^{name} = [0-9.]+ is a float"):
        call(worked_subject)


@pytest.mark.parametrize("name, call", [
    ("beta", lambda A: TransformParams("1/2", F(0))),
    ("beta", lambda A: TransformParams(None, F(0))),
    ("beta", lambda A: TransformParams(Decimal("0.5"), F(0))),
    ("alpha", lambda A: TransformParams(F(1, 2), "0")),
    ("alpha", lambda A: translate(A, "1/8")),
    ("beta", lambda A: multiply(A, "1/2")),
    ("beta", lambda A: max_alpha(A, "1/2")),
    ("grid step", lambda A: SampleSpec(grade_grid_step="1/4")),
    (r"mu\[1\]", lambda A: IFSubset(2, (F(1, 2), Decimal("0.25")), (0, 0))),
], ids=["TransformParams-str", "TransformParams-None", "TransformParams-Decimal",
        "TransformParams-str-alpha", "translate-str", "multiply-str", "max_alpha-str",
        "SampleSpec-str-step", "IFSubset-Decimal"])
def test_inexact_parameters_are_refused(worked_subject, name, call):
    """Only an int or a Fraction is exact. Anything else is refused by name,
    as a non-exact grade is, instead of failing with a TypeError in a range
    check, an AttributeError in the integer kernel, or not at all."""
    with pytest.raises(ParseError, match=rf"^{name} = .+ is not exact: pass an int or Fraction"):
        call(worked_subject)


@pytest.mark.parametrize("name, call", [
    (r"mu\[0\]", lambda A: IFSubset(1, (True,), (False,))),
    (r"nu\[0\]", lambda A: IFSubset(1, (0,), (True,))),
    ("beta", lambda A: TransformParams(True, F(0))),
    ("alpha", lambda A: TransformParams(F(1, 2), False)),
    ("alpha", lambda A: translate(A, False)),
    ("beta", lambda A: multiply(A, True)),
    ("beta", lambda A: max_alpha(A, True)),
    ("grid step", lambda A: SampleSpec(grade_grid_step=True)),
], ids=["IFSubset-mu", "IFSubset-nu", "TransformParams-beta", "TransformParams-alpha",
        "translate", "multiply", "max_alpha", "SampleSpec-step"])
def test_bool_parameters_are_refused(worked_subject, name, call):
    """A bool is an int to Python but no grade: a grade map holding ``True``
    formats as ``0 True False``, which ``parse_ifs`` cannot read back, and a
    grid step of ``True`` would silently become 1."""
    with pytest.raises(ParseError, match=rf"^{name} = (True|False) is a bool: pass an int or Fraction"):
        call(worked_subject)


betas = st.fractions(min_value=F(1, 12), max_value=1, max_denominator=12)
unit = st.fractions(min_value=0, max_value=1, max_denominator=12)


@settings(max_examples=100, deadline=None)
@given(subjects(nonempty=False), betas)
def test_zero_shift_degenerates_to_multiplication(A, beta):
    assert ifs_eq(magnify(A, TransformParams(beta, F(0))), multiply(A, beta))


@settings(max_examples=100, deadline=None)
@given(subjects(nonempty=False), unit)
def test_unit_scale_degenerates_to_translation(A, t):
    alpha = t * min(A.nu)
    assert ifs_eq(magnify(A, TransformParams(F(1), alpha)), translate(A, alpha))


@settings(max_examples=100, deadline=None)
@given(subjects(nonempty=False), betas, unit)
def test_output_is_always_a_valid_subject(A, beta, t):
    alpha = t * max_alpha(A, beta)
    out = magnify(A, TransformParams(beta, alpha))
    assert all(v >= 0 for v in out.nu)
    assert all(m + v <= 1 for m, v in zip(out.mu, out.nu))


@settings(max_examples=100, deadline=None)
@given(subjects(nonempty=False), betas, unit)
def test_argmax_set_is_preserved(A, beta, t):
    alpha = t * max_alpha(A, beta)
    out = magnify(A, TransformParams(beta, alpha))
    top = max(A.mu)
    top2 = max(out.mu)
    assert {x for x, m in enumerate(A.mu) if m == top} == {
        x for x, m in enumerate(out.mu) if m == top2
    }


@settings(max_examples=100, deadline=None)
@given(subjects(nonempty=False), betas, unit)
def test_grade_values_map_injectively(A, beta, t):
    alpha = t * max_alpha(A, beta)
    out = magnify(A, TransformParams(beta, alpha))
    assert len(set(out.mu)) == len(set(A.mu))
    assert len(set(out.nu)) == len(set(A.nu))


# the random subjects of sample_ifs, drawn from their seeded generator
sampled_randoms = st.builds(lambda n, seed: harness._random_subject(n, random.Random(seed)),
                            st.integers(1, 4), st.integers(0, 2**32))


@settings(max_examples=200, deadline=None)
@given(subjects(nonempty=False) | sampled_randoms, betas, unit)
def test_magnify_keeps_the_weak_order_of_each_component(A, beta, t):
    # Lemma 2: with beta > 0 magnify is strictly increasing on mu and on nu,
    # so a variant has its subject's pattern, which the sweep's equal-ints
    # shortcut and its (pattern, variant pattern) steps rest on
    out = magnify(A, TransformParams(beta, t * max_alpha(A, beta)))
    for before, after in zip(A.view[1:], out.view[1:]):
        assert predicates._weak_order(after) == predicates._weak_order(before)


# the integer kernel of translate, multiply and magnify against Fraction
# arithmetic written out here


def _reference(A, beta, alpha):
    return (tuple(beta * g + alpha for g in A.mu), tuple(beta * g - alpha for g in A.nu))


positive = grades.filter(lambda g: g > 0)


@settings(max_examples=200, deadline=None)
@given(subjects(nonempty=False), positive, grades)
def test_magnify_matches_the_fraction_reference(A, beta, t):
    alpha = t * max_alpha(A, beta)
    out = magnify(A, TransformParams(beta, alpha))
    assert (out.mu, out.nu) == _reference(A, beta, alpha)


@settings(max_examples=200, deadline=None)
@given(subjects(nonempty=False), positive)
def test_magnify_at_the_bound_matches_the_fraction_reference(A, beta):
    alpha = max_alpha(A, beta)
    out = magnify(A, TransformParams(beta, alpha))
    assert (out.mu, out.nu) == _reference(A, beta, alpha)
    assert min(out.nu) == 0


@settings(max_examples=200, deadline=None)
@given(subjects(nonempty=False), positive, st.integers(min_value=1, max_value=10**9))
def test_magnify_just_above_the_bound_raises_with_the_bound(A, beta, k):
    bound = max_alpha(A, beta)
    assume(bound < 1)
    with pytest.raises(AlphaOutOfRange) as exc:
        magnify(A, TransformParams(beta, bound + (1 - bound) / k))
    assert exc.value.bound == bound


@settings(max_examples=200, deadline=None)
@given(subjects(nonempty=False), grades)
def test_translate_and_multiply_match_the_fraction_reference(A, t):
    alpha = t * min(A.nu)
    out = translate(A, alpha)
    assert (out.mu, out.nu) == _reference(A, F(1), alpha)
    out = multiply(A, t)
    assert (out.mu, out.nu) == _reference(A, t, F(0))


@settings(max_examples=100, deadline=None)
@given(subjects(nonempty=False), positive)
def test_translate_outside_its_bound_raises_with_the_least_nonmembership(A, excess):
    for alpha in (-excess, min(A.nu) + excess):
        with pytest.raises(AlphaOutOfRange) as exc:
            translate(A, alpha)
        assert exc.value.bound == min(A.nu)


@settings(max_examples=100, deadline=None)
@given(subjects(nonempty=False), st.integers(min_value=1, max_value=12))
def test_zero_shift_by_a_unit_fraction_shares_the_subject_ints(A, q):
    # beta = 1/q, alpha = 0: the view is the subject's own ints over q*den
    den, mu, nu = A.view
    out = magnify(A, TransformParams(F(1, q), F(0)))
    assert out.view[0] == q * den
    assert out.view[1] is mu and out.view[2] is nu
    assert (out.mu, out.nu) == _reference(A, F(1, q), F(0))
