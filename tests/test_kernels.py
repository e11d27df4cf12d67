"""The pair-law kernels against a Fraction reference, on both operand kinds.

``intersect``, ``if_product``, ``ifs_leq`` and ``ifs_eq`` read two views
over one denominator as they are and rescale only views over differing
denominators. The pair phase's operands are of the first kind: two grid
subjects share the grid's denominator, and so do their magnifications
under one (beta, alpha). These tests draw pairs of both kinds, check that
each kind reaches its branch, and compare every kernel with grades
computed here on Fractions; operands over different carriers raise
``CarrierMismatch`` from all four.

``intersect`` and ``ifs_leq`` run code generated once per carrier order,
``if_product`` code generated once per table. They are also checked at
orders 5 and 6 on cyclic, left-zero and null tables (the null table's
nonzero elements have no factorization), and on every enumerated table of
order <= 3 and every library table, over one denominator and over two;
``ifs_leq`` on the operands of each pair, both ways, and on the meet
under each operand, so both of its outcomes are reached, and at orders 1
to 6 it is shown to read every point of both maps. One table's product
kernel is found again from an equal table built afresh.
"""

import math
import random
from fractions import Fraction as F
from operator import ge, le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsemigroups import (
    CarrierMismatch,
    IFSubset,
    SampleSpec,
    Semigroup,
    TransformParams,
    builtin_library,
    composition,
    enumerate_semigroups,
    if_product,
    ifs_eq,
    ifs_leq,
    intersect,
    magnify,
    replay_certificate,
    run_suite,
)
from ifsemigroups.composition import _product_kernel
from ifsemigroups.ifs import _leq, _meet, _trusted

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


def _hand_built(n):
    """The cyclic, left-zero and null semigroups of order n."""
    return [Semigroup(n, tuple(tuple(f(x, y) for y in range(n)) for x in range(n)))
            for f in (lambda x, y: (x + y) % n, lambda x, y: x, lambda x, y: 0)]


WIDE = {**TABLES, 5: _hand_built(5), 6: _hand_built(6)}
EVERY_TABLE = [S for n in (1, 2, 3) for S in enumerate_semigroups(n)] + [
    entry.semigroup for entry in builtin_library()]


def _grades(view):
    den, mu, nu = view
    return tuple(F(i, den) for i in mu), tuple(F(j, den) for j in nu)


def _leq_reference(mu_a, nu_a, mu_b, nu_b):
    return all(map(le, mu_a, mu_b)) and all(map(ge, nu_a, nu_b))


def _assert_kernels_match(S, A, B):
    """``intersect``, ``ifs_leq`` and ``if_product`` against Fractions."""
    (mu_a, nu_a), (mu_b, nu_b) = _grades(A.view), _grades(B.view)
    den = math.lcm(A.view[0], B.view[0])
    I = intersect(A, B)
    assert I.view[0] == den and I.carrier_order == A.carrier_order
    assert (I.mu, I.nu) == (tuple(map(min, mu_a, mu_b)), tuple(map(max, nu_a, nu_b)))
    assert ifs_leq(A, B) == _leq_reference(mu_a, nu_a, mu_b, nu_b)
    assert ifs_leq(B, A) == _leq_reference(mu_b, nu_b, mu_a, nu_a)
    assert ifs_leq(I, A) and ifs_leq(I, B)
    P = if_product(S, A, B)
    assert P.view[0] == den and P.carrier_order == S.order
    n = S.order
    assert (P.mu, P.nu) == _reference_product(S, IFSubset(n, mu_a, nu_a), IFSubset(n, mu_b, nu_b))


@st.composite
def wide_operand_pairs(draw):
    """(S, A, B): orders 1 to 6, A and B over one denominator or two."""
    n = draw(st.integers(1, 6))
    S = draw(st.sampled_from(WIDE[n]))
    da = draw(st.integers(1, 12))
    db = da if draw(st.booleans()) else draw(st.integers(1, 12).filter(lambda d: d != da))
    return S, draw(_view(n, da))[0], draw(_view(n, db))[0]


@settings(max_examples=300, deadline=None)
@given(wide_operand_pairs())
def test_generated_kernels_match_the_fraction_reference_at_orders_1_to_6(case):
    _assert_kernels_match(*case)


@pytest.mark.parametrize("S", EVERY_TABLE + _hand_built(5) + _hand_built(6),
                         ids=lambda S: "".join(map(str, sum(S.table, ()))))
def test_generated_kernels_match_the_fraction_reference_on_every_table(S):
    """Eight seeded operand pairs per table, four over one denominator and
    four over two, the two numerators of each point drawn as grid subjects are."""
    rng = random.Random(repr(S.table))

    def draw(den):
        mu = [rng.randint(0, den) for _ in range(S.order)]
        nu = [rng.randint(0, den - m) for m in mu]
        return _trusted(S.order, view=(den, tuple(mu), tuple(nu)))

    for k in range(8):
        da = rng.randint(1, 12)
        db = da if k % 2 else rng.choice([d for d in range(1, 13) if d != da])
        _assert_kernels_match(S, draw(da), draw(db))


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("scale", [1, 2], ids=["one_denominator", "two_denominators"])
def test_leq_kernel_reads_every_point_of_both_maps(n, scale):
    """An operand is contained in itself, and no longer once one of its
    points' mu rises or nu falls by 1/12, whatever the point. With scale 2
    the second operand's view is over 24, so ``_common_views`` rescales."""
    rng = random.Random(n)
    mu = [rng.randint(1, 10) for _ in range(n)]
    nu = [rng.randint(1, 11 - m) for m in mu]
    B = _trusted(n, (12 * scale, tuple(m * scale for m in mu), tuple(v * scale for v in nu)))
    assert ifs_leq(_trusted(n, (12, tuple(mu), tuple(nu))), B)
    for x in range(n):
        for values, step in ((mu, 1), (nu, -1)):
            values[x] += step
            assert not ifs_leq(_trusted(n, (12, tuple(mu), tuple(nu))), B)
            values[x] -= step


def test_one_product_kernel_per_table_found_by_value():
    """An equal table built afresh finds the same kernel; a carrier order
    has one meet and one containment kernel."""
    for S in EVERY_TABLE:
        fresh = Semigroup(S.order, [list(row) for row in S.table])
        assert fresh is not S and fresh == S
        assert _product_kernel(fresh) is _product_kernel(S)
    assert _meet(3) is _meet(3) and _leq(3) is _leq(3)


def test_certificate_replay_builds_no_product_kernel(monkeypatch):
    """``replay_certificate`` builds a fresh table from each certificate and
    finds the kernel its run built."""
    reports = run_suite([2], SampleSpec(grade_grid_step=F(1, 2)),
                        theorems=["regular_product"], include_library=False)
    witnesses = [w for r in reports for w in r.witnesses]
    assert witnesses
    built = []
    monkeypatch.setattr(composition, "_product", lambda pairs_for: built.append(pairs_for))
    assert all(replay_certificate(w) for w in witnesses)
    assert built == []
