"""The pair-law kernels against a Fraction reference, on both operand kinds.

``intersect``, ``if_product``, ``ifs_leq`` and ``ifs_eq`` read two views
over one denominator as they are and rescale only views over differing
denominators. The pair phase's operands are of the first kind: two grid
subjects share the grid's denominator, and so do their magnifications
under one (beta, alpha). These tests draw pairs of both kinds, check that
each kind reaches its branch, and compare every kernel with grades
computed here on Fractions; operands over different carriers raise
``CarrierMismatch`` from all four.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsemigroups import (
    CarrierMismatch,
    IFSubset,
    TransformParams,
    if_product,
    ifs_eq,
    ifs_leq,
    intersect,
    magnify,
)
from ifsemigroups.ifs import _trusted

from conftest import grades
from test_lazy_grades import TABLES, _reference_product, positive


@st.composite
def _view(draw, n, den):
    """A view-only subject over ``den``, built as a grid subject is, and
    its grades as Fractions."""
    mu, nu = [], []
    for _ in range(n):
        i = draw(st.integers(0, den))
        mu.append(i)
        nu.append(draw(st.integers(0, den - i)))
    A = _trusted(n, view=(den, tuple(mu), tuple(nu)))
    return A, (tuple(F(i, den) for i in mu), tuple(F(j, den) for j in nu))


@st.composite
def operand_pairs(draw):
    """(shared, S, A, B, grades of A, grades of B): A and B over one
    denominator when ``shared``, over two different ones otherwise; with
    or without one magnification applied to both."""
    shared = draw(st.booleans())
    n = draw(st.integers(1, 4))
    S = draw(st.sampled_from(TABLES[n]))
    da = draw(st.integers(1, 12))
    db = da if shared else draw(st.integers(1, 12).filter(lambda d: d != da))
    A, ga = draw(_view(n, da))
    B, gb = draw(_view(n, db))
    if draw(st.booleans()):
        beta = draw(positive)
        alpha = beta * min(ga[1] + gb[1]) * draw(grades)
        params = TransformParams(beta, alpha)
        A, B = magnify(A, params), magnify(B, params)
        ga, gb = ((tuple(beta * m + alpha for m in mu), tuple(beta * v - alpha for v in nu))
                  for mu, nu in (ga, gb))
    return shared, S, A, B, ga, gb


@settings(max_examples=300, deadline=None)
@given(operand_pairs())
def test_kernels_match_the_fraction_reference(case):
    shared, S, A, B, (mu_a, nu_a), (mu_b, nu_b) = case
    assert (A.view[0] == B.view[0]) == shared
    den = math.lcm(A.view[0], B.view[0])

    assert ifs_leq(A, B) == (all(a <= b for a, b in zip(mu_a, mu_b))
                             and all(a >= b for a, b in zip(nu_a, nu_b)))
    assert ifs_eq(A, B) == (mu_a == mu_b and nu_a == nu_b)

    I = intersect(A, B)
    assert I.view[0] == den
    assert I.mu == tuple(map(min, mu_a, mu_b))
    assert I.nu == tuple(map(max, nu_a, nu_b))

    P = if_product(S, A, B)
    assert P.view[0] == den
    n = A.carrier_order
    assert (P.mu, P.nu) == _reference_product(S, IFSubset(n, mu_a, nu_a), IFSubset(n, mu_b, nu_b))


@settings(max_examples=50, deadline=None)
@given(operand_pairs(), st.integers(1, 4))
def test_kernels_refuse_operands_over_different_carriers(case, m):
    """Over one denominator too, where nothing else would notice: ``zip``
    would silently stop at the shorter view."""
    _, S, A, _, _, _ = case
    k = m + (m >= A.carrier_order)  # any order in 1..5 but A's
    for den in (A.view[0], 2 * A.view[0]):
        other = _trusted(k, view=(den, (den,) * k, (0,) * k))
        for kernel in (intersect, ifs_leq, ifs_eq):
            for X, Y in ((A, other), (other, A)):
                with pytest.raises(CarrierMismatch):
                    kernel(X, Y)
        for X, Y in ((A, other), (other, A)):
            with pytest.raises(CarrierMismatch):
                if_product(S, X, Y)
