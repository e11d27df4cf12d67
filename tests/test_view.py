"""The integer view every subject carries, against its own grades.

``IFSubset.view`` is (den, mu ints, nu ints) with each grade equal to
``Fraction(k, den)``. Subjects built from outside data compute it from their
Fractions; ``magnify``/``translate``/``multiply``, ``intersect`` and
``if_product`` derive it from their operands' views. Each result's view is
checked here point by point against the grades it returned, and the view is
checked to be invisible to equality, hashing, ``repr``, ``fields()`` and
``replace()``.
"""

import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsemigroups import (
    AlphaOutOfRange,
    IFSubset,
    SampleSpec,
    TransformParams,
    enumerate_semigroups,
    format_ifs,
    if_product,
    intersect,
    magnify,
    max_alpha,
    multiply,
    parse_ifs,
    sample_ifs,
    translate,
    validate_ifs,
)
from ifsemigroups.ifs import _trusted
from ifsemigroups.transforms import _kernel, _triple

from conftest import grades, subjects

TABLES = [S for n in (1, 2, 3) for S in enumerate_semigroups(n)]

positive = grades.filter(lambda g: g > 0)


def assert_view_matches(A, carried=False):
    """Every grade of A is Fraction(k, den) for its view's k; with ``carried``,
    the function that built A handed the view over rather than leaving it
    to be computed."""
    if carried:
        assert "view" in vars(A)
    den, mu, nu = A.view
    assert isinstance(den, int) and den > 0
    assert all(isinstance(k, int) for k in mu + nu)
    assert len(mu) == len(nu) == A.carrier_order
    assert [F(k, den) for k in mu] == list(A.mu)
    assert [F(k, den) for k in nu] == list(A.nu)


@settings(max_examples=200, deadline=None)
@given(subjects(nonempty=False))
def test_validating_constructors_compute_their_view(A):
    assert "view" not in vars(A)  # computed on first use
    assert_view_matches(A)
    assert A.view is A.view  # once per object
    assert_view_matches(validate_ifs(A.carrier_order, [str(g) for g in A.mu],
                                     [str(g) for g in A.nu]))
    assert_view_matches(parse_ifs(format_ifs(A)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sampled_subjects_views(n):
    grid = F(1, 2) if n == 4 else F(1, 4)
    for A in sample_ifs(n, SampleSpec(grade_grid_step=grid, random_count=64, seed=5)):
        assert_view_matches(A)


@st.composite
def _shift_case(draw):
    """A subject, a beta and a shift inside, at, or just above its bound."""
    A = draw(subjects(nonempty=False))
    beta = draw(positive)
    bound = max_alpha(A, beta)
    where = draw(st.sampled_from(["inside", "at", "above"]))
    if where == "inside":
        alpha = bound * draw(grades)
    elif where == "at":
        alpha = bound
    else:
        alpha = bound + F(1, draw(st.integers(2, 144)))
    return A, beta, alpha, where


@settings(max_examples=300, deadline=None)
@given(_shift_case())
def test_affine_transforms_carry_their_view(case):
    A, beta, alpha, where = case
    if where == "above":
        assert _kernel(A, _triple(beta, alpha)) is None
        if alpha <= 1:
            with pytest.raises(AlphaOutOfRange):
                magnify(A, TransformParams(beta, alpha))
        return
    assert_view_matches(magnify(A, TransformParams(beta, alpha)), carried=True)
    assert_view_matches(multiply(A, beta), carried=True)
    if alpha <= min(A.nu):
        assert_view_matches(translate(A, alpha), carried=True)
    if where == "at":
        assert min(magnify(A, TransformParams(beta, alpha)).view[2]) == 0


@st.composite
def _subject_pair(draw):
    S = draw(st.sampled_from(TABLES))
    A = draw(subjects(order=S.order, nonempty=False))
    B = draw(subjects(order=S.order, nonempty=False))
    if draw(st.booleans()):
        # operands over different denominators, as magnified operands are
        beta = draw(positive)
        B = magnify(B, TransformParams(beta, max_alpha(B, beta) * draw(grades)))
    return S, A, B


@settings(max_examples=300, deadline=None)
@given(_subject_pair())
def test_meets_and_products_carry_their_view(case):
    S, A, B = case
    assert_view_matches(intersect(A, B), carried=True)
    assert_view_matches(if_product(S, A, B), carried=True)
    assert_view_matches(if_product(S, B, A), carried=True)


def test_products_on_every_small_table_carry_their_view():
    # a subject with distinct interior grades and the characteristic pair of
    # {0}, on every table; elements without factorisations get 0 and 1
    for S in TABLES:
        n = S.order
        A = IFSubset(n, tuple(F(x + 1, n + 1) for x in range(n)),
                     tuple(F(n - x - 1, 2 * n + 2) for x in range(n)))
        B = IFSubset(n, (F(1),) + (F(0),) * (n - 1), (F(0),) + (F(1),) * (n - 1))
        for X, Y in ((A, A), (A, B), (B, A), (B, B)):
            assert_view_matches(if_product(S, X, Y), carried=True)


@settings(max_examples=100, deadline=None)
@given(subjects(nonempty=False), st.integers(2, 6))
def test_view_is_invisible_to_equality_hash_and_repr(A, scale):
    den, mu, nu = A.view
    # the same grades over a larger denominator: another view, one value
    B = _trusted(A.carrier_order,
                 (den * scale, tuple(k * scale for k in mu), tuple(k * scale for k in nu)))
    C = IFSubset(A.carrier_order, A.mu, A.nu)  # no view yet
    for X in (B, C):
        assert X == A and hash(X) == hash(A) and repr(X) == repr(A)
    assert [f.name for f in dataclasses.fields(IFSubset)] == ["carrier_order", "mu", "nu"]
    assert "view" not in repr(A)
    D = dataclasses.replace(B, mu=A.mu)
    assert D == A and "view" not in vars(D)
    assert_view_matches(D)
