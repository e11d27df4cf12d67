"""Trusted construction: results built from valid subjects skip validation.

``magnify`` (once its alpha bound holds), ``intersect``, ``if_product`` and
``sample_ifs`` build their results without re-validating them, because each
is valid by construction. These tests rebuild every such result through the
validating constructor, and check that the public ways in (``IFSubset(...)``,
``validate_ifs``, ``parse_ifs`` and ``replay_certificate``) still reject
bad grades.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ifsemigroups import (
    AlphaOutOfRange,
    Certificate,
    GradeOutOfRange,
    IFSubset,
    SampleSpec,
    SumConstraintViolation,
    TransformParams,
    builtin_library,
    enumerate_semigroups,
    if_product,
    intersect,
    magnify,
    max_alpha,
    parse_ifs,
    replay_certificate,
    sample_ifs,
    validate_ifs,
)
from ifsemigroups import harness

from conftest import grades, subjects

positive = grades.filter(lambda g: g > 0)


def _revalidated(out):
    return IFSubset(out.carrier_order, out.mu, out.nu)


@st.composite
def admissible(draw):
    """A subject with (beta, alpha) inside magnify's bound."""
    A = draw(subjects(nonempty=False))
    beta = draw(positive)
    alpha = max_alpha(A, beta) * draw(grades)
    return A, TransformParams(beta, alpha)


@settings(max_examples=200, deadline=None)
@given(admissible())
def test_magnify_output_passes_validation(case):
    A, params = case
    out = magnify(A, params)
    assert out == _revalidated(out)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(subjects(order=n, nonempty=False), subjects(order=n, nonempty=False))
))
def test_intersect_output_passes_validation(pair):
    out = intersect(*pair)
    assert out == _revalidated(out)


TABLES = [S for n in (1, 2, 3) for S in enumerate_semigroups(n)] + [
    entry.semigroup for entry in builtin_library()
]


@st.composite
def composable(draw):
    S = draw(st.sampled_from(TABLES))
    return S, draw(subjects(order=S.order, nonempty=False)), draw(
        subjects(order=S.order, nonempty=False))


@settings(max_examples=200, deadline=None)
@given(composable())
def test_product_output_passes_validation(case):
    out = if_product(*case)
    assert out == _revalidated(out)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sampled_subjects_pass_validation(n):
    # the default 1/4 grid, then seeded random subjects
    spec = SampleSpec(random_count=256, seed=n)
    count = 0
    for A in sample_ifs(n, spec):
        assert A == _revalidated(A)
        count += 1
    assert count > spec.random_count


def _fraction_random_subject(n, rng):
    """The random subject's formula on Fractions, through the validating
    constructor: mu = a/d and nu = (b/e)(1 - mu), drawn d, a, e, b."""
    while True:
        mu, nu = [], []
        for _ in range(n):
            d = rng.randint(1, 12)
            m = F(rng.randint(0, d), d)
            e = rng.randint(1, 12)
            nu.append(F(rng.randint(0, e), e) * (1 - m))
            mu.append(m)
        if any(mu):
            return IFSubset(n, tuple(mu), tuple(nu))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_subjects_match_the_fraction_formula(n):
    # the same view and grades as the formula's Fractions give, from the
    # same draws: the generator is left in the same state
    ours, reference = random.Random(n), random.Random(n)
    for _ in range(500):
        A = harness._random_subject(n, ours)
        B = _fraction_random_subject(n, reference)
        assert A.view == B.view
        assert (A.mu, A.nu) == (B.mu, B.nu)
    assert ours.getstate() == reference.getstate()


@settings(max_examples=100, deadline=None)
@given(subjects(nonempty=False), positive, positive)
def test_magnify_above_the_bound_still_raises(A, beta, excess):
    bound = max_alpha(A, beta)
    alpha = bound + excess * (1 - bound)
    assume(bound < 1)
    with pytest.raises(AlphaOutOfRange):
        magnify(A, TransformParams(beta, alpha))


def _entry_points(mu, nu):
    """Each public way of building a one-point subject from (mu, nu)."""
    return (
        lambda: IFSubset(1, (mu,), (nu,)),
        lambda: validate_ifs(1, [mu], [nu]),
        lambda: parse_ifs(f"0 {mu} {nu}\n"),
        lambda: replay_certificate(Certificate(
            "equiv_ideal", "n1", ((0,),), (mu,), (nu,), beta=F(1), alpha=F(0)
        )),
    )


@settings(max_examples=100, deadline=None)
@given(grades, positive, st.booleans(), st.booleans())
def test_public_constructors_reject_grades_outside_the_unit_interval(g, excess, high, on_mu):
    bad = 1 + excess if high else -excess
    mu, nu = (bad, F(0)) if on_mu else (g, bad)
    for build in _entry_points(mu, nu):
        with pytest.raises(GradeOutOfRange):
            build()


@settings(max_examples=100, deadline=None)
@given(grades, grades)
def test_public_constructors_reject_a_sum_above_one(mu, nu):
    assume(mu + nu > 1)
    for build in _entry_points(mu, nu):
        with pytest.raises(SumConstraintViolation):
            build()
