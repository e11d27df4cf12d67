"""``IFSubset.key`` and the grades the pair core reads.

The pair store keys its operands by ``IFSubset.key``, the integer view
over the least common denominator. These tests check that the key tells
subjects apart exactly as equality does, without making their grades, and
that a run of the pair theorems makes the grades of its pair passers only
for the pairs that yield a certificate.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsemigroups import (
    IFSubset,
    SampleSpec,
    TransformParams,
    enumerate_semigroups,
    harness,
    if_product,
    intersect,
    magnify,
    run_suite,
)

from conftest import subjects
from test_pair_store import PAIR_IDS, _reversing_magnify

TABLES = {n: list(enumerate_semigroups(n)) for n in (1, 2, 3)}


@st.composite
def _built(draw, n):
    """A subject of order n, one of its sampled magnifications, or a meet or
    product of two subjects: every kind of operand the pair store keys."""
    A = draw(subjects(order=n))
    how = draw(st.sampled_from(["subject", "magnified", "meet", "product"]))
    if how == "subject":
        return A
    if how == "magnified":
        beta = draw(st.sampled_from(SampleSpec().beta_grid))
        alpha = draw(st.sampled_from(harness.alpha_samples(A, beta)))
        return magnify(A, TransformParams(beta, alpha))
    B = draw(subjects(order=n))
    if how == "meet":
        return intersect(A, B)
    return if_product(draw(st.sampled_from(TABLES[n])), A, B)


@st.composite
def _two_operands(draw):
    """Two operands of one carrier order; the second is often built equal
    to the first along another route, over another denominator."""
    n = draw(st.integers(min_value=1, max_value=3))
    X = draw(_built(n))
    twin = draw(st.sampled_from(["drawn", "identity", "self-meet", "validated"]))
    if twin == "drawn":
        return X, draw(_built(n))
    if twin == "identity":
        return X, magnify(X, TransformParams(F(1), F(0)))
    if twin == "self-meet":
        return X, intersect(X, X)
    den, mu, nu = X.view  # X's grades, without making them on X
    return X, IFSubset(n, tuple(F(k, den) for k in mu), tuple(F(k, den) for k in nu))


@settings(max_examples=300, deadline=None)
@given(_two_operands())
def test_key_is_equality_over_the_least_denominator(pair):
    for X in pair:
        validated = "mu" in vars(X)
        den, mu, nu = key = X.key
        assert math.gcd(den, *mu, *nu) == 1
        if validated:
            assert key is X.view
        else:
            assert "mu" not in vars(X) and "nu" not in vars(X)
        assert tuple(F(k, den) for k in mu) == X.mu
        assert tuple(F(k, den) for k in nu) == X.nu
    X, Y = pair
    assert (X.key == Y.key) == (X == Y)


def test_equal_subjects_over_two_denominators_share_a_key():
    # a view over 128 for grades over 16
    A = magnify(IFSubset(2, (F(1, 2), F(1, 2)), (F(1, 2), F(1, 4))),
                TransformParams(F(1, 2), F(1, 16)))
    key = A.key
    assert "mu" not in vars(A)
    B = IFSubset(2, A.mu, A.nu)
    assert A.view[0] == 128 and B.view[0] == 16
    assert key == B.key and B.key is B.view


def _pair_run(sabotage):
    """Run the four pair theorems on the 1/2 grid, recording each state's
    passers and each pair the pair core tested, with its certificate."""
    passers, tested = [], []
    true_pairs_report, true_failure = harness._pairs_report, harness._PairTheorem.failure

    def pairs_report(state, *args):
        passers.extend(A for group in state.passers.values() for A in group)
        return true_pairs_report(state, *args)

    def failure(self, ops, A, B, *args):
        cert = true_failure(self, ops, A, B, *args)
        tested.append((A, B, cert))
        return cert

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_pairs_report", pairs_report)
        mp.setattr(harness._PairTheorem, "failure", failure)
        if sabotage is not None:
            sabotage(mp.setattr)
        spec = SampleSpec(grade_grid_step=F(1, 2), max_pair_subjects=8)
        reports = run_suite([1, 2, 3], spec, PAIR_IDS, include_library=False)
    return reports, passers, tested


def test_pair_core_reads_grades_only_for_a_certificate():
    reports, passers, tested = _pair_run(None)
    assert all(r.outcome == "verified" for r in reports)
    assert passers and tested
    assert not any("mu" in vars(A) or "nu" in vars(A) for A in passers)


def test_certificate_subjects_have_their_grades():
    reports, passers, tested = _pair_run(_reversing_magnify)
    failing = {id(X) for A, B, cert in tested if cert is not None for X in (A, B)}
    assert any(r.outcome == "counterexample" for r in reports) and failing
    assert {id(A) for A in passers if "mu" in vars(A)} == failing
