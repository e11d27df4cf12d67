"""The integer paths of the transforms and of subject validation, against
the ``Fraction`` formulas they replace.

``TransformParams`` checks its range on the numerators and denominators of
beta and alpha and carries the kernel's ints; ``magnify``, ``translate`` and
``multiply`` compute on those ints and the subject's view; ``max_alpha``
reads the view; ``IFSubset`` validates its grades on their numerators and
denominators; ``characteristic_pair`` builds its 0/1 view directly. Each is
checked here against the same rule written out on ``Fraction``s, for
subjects whose view was computed from validated grades, handed over alone,
or left unreduced (over a multiple of the least denominator).
"""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsemigroups import (
    AlphaOutOfRange,
    BetaOutOfRange,
    CarrierMismatch,
    ElementSubset,
    EmptySubset,
    GradeOutOfRange,
    IFSubset,
    SumConstraintViolation,
    TransformParams,
    characteristic_pair,
    magnify,
    max_alpha,
    multiply,
    translate,
)
from ifsemigroups.ifs import _trusted

from conftest import grades, subjects


@st.composite
def any_view(draw):
    """A subject that is validated (view computed from its grades), view-only
    over the least denominator, view-only over a multiple of it, or a
    magnification by (1/q, 0), whose view is the subject's ints over q*den."""
    A = draw(subjects(nonempty=False))
    how = draw(st.sampled_from(["validated", "view-only", "unreduced", "magnified"]))
    if how == "validated":
        return A
    if how == "view-only":
        return _trusted(A.carrier_order, view=A.key)
    k = draw(st.integers(min_value=2, max_value=6))
    if how == "unreduced":
        den, mu, nu = A.key
        return _trusted(A.carrier_order,
                        view=(k * den, tuple(k * m for m in mu), tuple(k * v for v in nu)))
    return magnify(A, TransformParams(F(1, k), F(0)))


def _grades(A):
    """A's grades from its view, without making its own."""
    den, mu, nu = A.view
    return [F(k, den) for k in mu], [F(k, den) for k in nu]


def _reference(A, beta, alpha):
    mu, nu = _grades(A)
    return tuple(beta * g + alpha for g in mu), tuple(beta * g - alpha for g in nu)


positive = grades.filter(lambda g: g > 0)


@settings(max_examples=200, deadline=None)
@given(any_view(), positive, grades)
def test_magnify_matches_the_fraction_formula_on_every_view(A, beta, t):
    alpha = t * max_alpha(A, beta)
    out = magnify(A, TransformParams(beta, alpha))
    assert (out.mu, out.nu) == _reference(A, beta, alpha)


@settings(max_examples=200, deadline=None)
@given(any_view(), grades)
def test_translate_and_multiply_match_the_fraction_formula_on_every_view(A, t):
    alpha = t * min(_grades(A)[1])
    out = translate(A, alpha)
    assert (out.mu, out.nu) == _reference(A, 1, alpha)
    out = multiply(A, t)
    assert (out.mu, out.nu) == _reference(A, t, 0)


@settings(max_examples=100, deadline=None)
@given(any_view())
def test_int_parameters_match_the_fraction_formula(A):
    for beta, alpha in ((1, 0), (F(1, 2), 0), (1, F(0))):
        out = magnify(A, TransformParams(beta, alpha))
        assert (out.mu, out.nu) == _reference(A, beta, alpha)
    for beta in (0, 1):
        out = multiply(A, beta)
        assert (out.mu, out.nu) == _reference(A, beta, 0)
    out = translate(A, 0)
    assert (out.mu, out.nu) == _reference(A, 1, 0)
    low = min(A.view[2])
    if low and low % A.view[0] == 0:  # a least non-membership of 1, an int shift
        out = translate(A, 1)
        assert (out.mu, out.nu) == _reference(A, 1, 1)


# ints and Fractions of either sign, near the unit interval and far from it
numbers = (st.integers(min_value=-3, max_value=3)
           | st.integers(min_value=-10**30, max_value=10**30)
           | st.fractions(min_value=-2, max_value=2, max_denominator=12)
           | st.fractions(max_denominator=10**20))


@settings(max_examples=500, deadline=None)
@given(numbers, numbers)
def test_params_accept_exactly_the_fraction_range(beta, alpha):
    if not 0 < F(beta) <= 1:
        expected = BetaOutOfRange(beta, "(0, 1]")
    elif not 0 <= F(alpha) <= 1:
        expected = AlphaOutOfRange(alpha, F(1))
    else:
        params = TransformParams(beta, alpha)
        assert (params.beta, params.alpha) == (beta, alpha)
        return
    with pytest.raises(type(expected)) as exc:
        TransformParams(beta, alpha)
    assert str(exc.value) == str(expected)


def test_params_equality_hash_and_repr_ignore_the_kernel_ints():
    a, b = TransformParams(F(1, 2), F(1, 4)), TransformParams(F(2, 4), F(1, 4))
    assert a == b and hash(a) == hash(b) == hash((F(1, 2), F(1, 4)))
    assert repr(a) == "TransformParams(beta=Fraction(1, 2), alpha=Fraction(1, 4))"
    assert TransformParams(1, 0) == TransformParams(F(1), F(0))
    assert hash(TransformParams(1, 0)) == hash(TransformParams(F(1), F(0)))
    assert TransformParams(F(1, 2), F(1, 4)) != TransformParams(F(1, 2), F(1, 8))


@settings(max_examples=200, deadline=None)
@given(any_view(), grades)
def test_max_alpha_is_beta_times_the_least_nonmembership(A, beta):
    assert max_alpha(A, beta) == beta * min(_grades(A)[1])


@settings(max_examples=100, deadline=None)
@given(any_view(), st.sampled_from([0, 1]))
def test_max_alpha_with_an_int_beta(A, beta):
    assert max_alpha(A, beta) == beta * min(_grades(A)[1])


@settings(max_examples=100, deadline=None)
@given(subjects(nonempty=False), grades)
def test_max_alpha_makes_no_grades(A, beta):
    B = _trusted(A.carrier_order, view=A.view)
    max_alpha(B, beta)
    assert "mu" not in vars(B) and "nu" not in vars(B)


def _fraction_rule(mu, nu):
    """The first error of the validation rule on Fractions, or None."""
    for x, (m, v) in enumerate(zip(mu, nu)):
        if m < 0 or m > 1:
            return GradeOutOfRange(x, m)
        if v < 0 or v > 1:
            return GradeOutOfRange(x, v)
        if m + v > 1:
            return SumConstraintViolation(x, m + v)
    return None


near_unit = (st.integers(min_value=-2, max_value=2)
             | st.fractions(min_value=-1, max_value=2, max_denominator=12))


@st.composite
def grade_pairs(draw):
    """(mu, nu) at one point: anything near [0, 1], a sum of exactly 1, or a
    sum just above 1."""
    how = draw(st.sampled_from(["any", "sum one", "just above"]))
    m = draw(near_unit if how == "any" else grades)
    if how == "any":
        return m, draw(near_unit)
    v = 1 - m if how == "sum one" else 1 - m + F(1, draw(st.integers(1, 10**6)))
    return m, (v.numerator if v.denominator == 1 and draw(st.booleans()) else v)


@settings(max_examples=500, deadline=None)
@given(st.lists(grade_pairs(), min_size=1, max_size=4))
def test_validation_raises_exactly_on_the_fraction_rule(points):
    mu, nu = tuple(m for m, _ in points), tuple(v for _, v in points)
    expected = _fraction_rule(mu, nu)
    if expected is None:
        assert IFSubset(len(points), mu, nu).mu == mu
        return
    with pytest.raises(type(expected)) as exc:
        IFSubset(len(points), mu, nu)
    assert str(exc.value) == str(expected)
    assert vars(exc.value) == vars(expected)


def test_characteristic_pair_equals_the_validated_indicator_pair():
    for n in range(1, 5):
        for size in range(1, n + 1):
            for members in itertools.combinations(range(n), size):
                A = characteristic_pair(n, ElementSubset(n, frozenset(members)))
                mu = tuple(F(int(x in members)) for x in range(n))
                B = IFSubset(n, mu, tuple(1 - g for g in mu))
                assert A.view == B.view and A.key == B.key
                assert A == B and hash(A) == hash(B) and repr(A) == repr(B)


def test_characteristic_pair_errors_are_unchanged():
    with pytest.raises(CarrierMismatch, match="^subset carrier does not match requested carrier$"):
        characteristic_pair(3, ElementSubset(2, frozenset({0})))
    with pytest.raises(EmptySubset, match="^characteristic pair of an empty subset$"):
        characteristic_pair(2, ElementSubset(2, frozenset()))
