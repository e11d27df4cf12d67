"""The run's operand store against a store-free reference.

The pair core takes its operands from a store keyed by value
(``IFSubset.key``): an operand's variants under a pair's parameters are
built once per run as one tuple, a pair's sampled parameters are keyed by
its least non-membership, and each table decides each pair law on a pair
of operands once. The sweep takes each subject's variant parameters from
the same store, keyed by the subject's least non-membership. These tests
pin the call counts that sharing promises, check that a store which shares
nothing (it magnifies and decides a law at every use) gives the same
reports, and reach the non-regular product witness's branch for a witness
that satisfies the product law, which no correct run reaches.
"""

import dataclasses
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifsemigroups import (
    ElementSubset,
    IFSubset,
    SampleSpec,
    check_regular_iff_product,
    classify,
    enumerate_semigroups,
    multiply_subsets,
    run_suite,
    sample_ifs,
)
from ifsemigroups import harness
from ifsemigroups.transforms import TransformParams, magnify, max_alpha

from conftest import subjects

PAIR_IDS = ["semiprime_intersection", "product_bi_ideal", "product_one_two_ideal",
            "regular_product"]
SINGLE_IDS = [tid for tid in harness.THEOREM_IDS if tid not in PAIR_IDS]


def _counting(patch, name, calls):
    """Replace ``harness.<name>`` with a passthrough that records its arguments."""
    inner = getattr(harness, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    patch(harness, name, counted)


class _FreshOperands:
    """A store that shares nothing: every operand as given, every magnified
    operand built anew, and each pair's parameters from the bound of each
    subject, as ``max_alpha`` states it."""

    def __init__(self, spec=None):
        self.spec = spec or SampleSpec()

    def params(self, A, B):
        return [
            TransformParams(beta, alpha)
            for beta in self.spec.beta_grid
            for alpha in harness._shifts(
                min(max_alpha(A, beta), max_alpha(B, beta)), self.spec.alpha_strategy
            )
        ]

    def variants(self, A, params_list):
        return [harness.magnify(A, params) for params in params_list]


class _FreshTable:
    """Each law verdict decided at every use."""

    def __init__(self, S, operands):
        self.S = S
        self.operands = operands

    def holds(self, law, X, Y):
        return law(self.S, X, Y)


@st.composite
def _operands(draw):
    """A two-point subject, or one of its sampled magnifications, whose view
    is over ``q*s*den`` and often not over its grades' least denominator."""
    A = draw(subjects(order=2))
    if draw(st.booleans()):
        beta = draw(st.sampled_from([F(1, 4), F(1, 2), F(3, 4), F(1)]))
        alpha = draw(st.sampled_from(harness.alpha_samples(A, beta)))
        A = magnify(A, TransformParams(beta, alpha))
    return A


# a view over 128 for grades over 16
_UNREDUCED = magnify(IFSubset(2, (F(1, 2), F(1, 2)), (F(1, 2), F(1, 4))),
                     TransformParams(F(1, 2), F(1, 16)))


@settings(max_examples=200, deadline=None)
@given(st.tuples(_operands(), _operands()), st.sampled_from(harness.ALPHA_STRATEGIES))
# 1/16 over 128 against 1/8 over 8
@example((_UNREDUCED, IFSubset(2, (F(1, 2), F(0)), (F(1, 8), F(1, 2)))), "grid")
# equal least non-memberships: 1/16 over 128 and over 16, 1/3 over 6 and over 3
@example((_UNREDUCED, IFSubset(2, (F(1, 2), F(0)), (F(1, 16), F(1, 2)))), "grid")
@example((IFSubset(2, (F(1, 2), F(0)), (F(1, 3), F(1, 2))),
          IFSubset(2, (F(1, 3), F(1, 3)), (F(1, 3), F(2, 3)))), "grid")
# a least non-membership of zero
@example((IFSubset(2, (F(1, 2), F(1)), (F(1, 2), F(0))),
          IFSubset(2, (F(1, 4), F(1, 4)), (F(1, 4), F(1, 4)))), "grid")
def test_pair_params_match_max_alpha_reference(pair, strategy):
    """A pair's parameters, picked on the views, are those of the smaller
    ``max_alpha`` of its subjects, in either order."""
    spec = SampleSpec(alpha_strategy=strategy)
    A, B = pair
    want = tuple(_FreshOperands(spec).params(A, B))
    store = harness._Operands(spec)
    assert store.params(A, B) == want
    assert store.params(B, A) == want


def _store_free(patch):
    patch(harness, "_Operands", _FreshOperands)
    patch(harness, "_TableOperands", _FreshTable)


def _reversing_magnify(patch):
    """Reverse the grades of every magnification at beta = 1/2, which breaks
    every pair theorem's magnified law somewhere."""
    true_magnify = harness.magnify

    def magnify(A, params):
        B = true_magnify(A, params)
        if params.beta == F(1, 2):
            return IFSubset(B.carrier_order, B.mu[::-1], B.nu[::-1])
        return B

    patch(harness, "magnify", magnify)


@pytest.mark.parametrize("orders, spec, sabotage", [
    ([1, 2, 3], SampleSpec(grade_grid_step=F(1, 2), max_pair_subjects=4,
                           random_count=8, seed=7), None),
    ([1, 2, 3], SampleSpec(grade_grid_step=F(1, 2), max_pair_subjects=3,
                           alpha_strategy="midpoint"), _reversing_magnify),
], ids=["correct", "reversed-magnify"])
def test_store_matches_store_free_reference(orders, spec, sabotage):
    def reports(*patches):
        with pytest.MonkeyPatch.context() as mp:
            for p in patches:
                if p is not None:
                    p(mp.setattr)
            return run_suite(orders, spec, PAIR_IDS)

    stored = reports(sabotage)
    assert stored == reports(sabotage, _store_free)
    if sabotage is not None:
        assert any(r.outcome == "counterexample" for r in stored)


def _law_calls(patch, calls):
    """Make every pair theorem's law record (table position, law, operand keys)."""
    tables: dict = {}
    wrapped: dict = {}

    def recording(law):
        def recorded(S, X, Y):
            table = tables.setdefault(id(S), len(tables))
            calls.append((table, law.__name__, X.key, Y.key))
            return law(S, X, Y)
        return recorded

    patch(harness, "_ENTRY", {
        tid: dataclasses.replace(th, law=wrapped.setdefault(th.law, recording(th.law)))
        if tid in harness._PAIR_THEOREMS else th
        for tid, th in harness._ENTRY.items()
    })


def test_each_table_decides_each_pair_law_once():
    """No table evaluates a law twice on one pair of operand values, and the
    store decides every (law, operands) that a store-free run decides."""
    spec = SampleSpec(grade_grid_step=F(1, 2), max_pair_subjects=4)

    def run(*patches):
        laws = []
        with pytest.MonkeyPatch.context() as mp:
            for p in patches:
                p(mp.setattr)
            _law_calls(mp.setattr, laws)
            reports = run_suite([1, 2, 3], spec, PAIR_IDS)
        return reports, laws

    reports, laws = run()
    fresh_reports, fresh_laws = run(_store_free)
    assert reports == fresh_reports
    assert all(r.outcome == "verified" for r in reports)
    assert len(laws) == len(set(laws))
    assert set(laws) == set(fresh_laws)
    assert len(fresh_laws) > len(laws)


# the default sampling plan, and each other alpha strategy on the 1/2 grid,
# where the library's order-4 tables sweep 1296 grid subjects, not 50625
SWEEP_SPECS = [SampleSpec(random_count=16, seed=3, alpha_strategy="grid")] + [
    SampleSpec(grade_grid_step=F(1, 2), random_count=16, seed=3, alpha_strategy=strategy)
    for strategy in harness.ALPHA_STRATEGIES if strategy != "grid"
]


@pytest.mark.parametrize("spec", SWEEP_SPECS, ids=lambda s: s.alpha_strategy)
def test_sweep_magnifies_each_subject_once_per_sampled_params(monkeypatch, spec):
    """The sweep's variants, with their parameters from the shared store,
    are the ``alpha_samples`` of each swept subject, each magnified once."""
    strategy = spec.alpha_strategy
    calls, sweeping = [], []
    true_sweep = harness._sweep

    def sweep(*args):
        sweeping.append(len(calls))
        true_sweep(*args)
        sweeping.append(len(calls))

    monkeypatch.setattr(harness, "_sweep", sweep)
    _counting(monkeypatch.setattr, "magnify", calls)
    assert len(SINGLE_IDS) == 13
    reports = run_suite([1, 2, 3], spec, SINGLE_IDS)
    assert all(r.outcome == "verified" for r in reports)
    # the converse witnesses and replays magnify outside the sweep
    swept = [c for start, end in zip(sweeping[::2], sweeping[1::2])
             for c in calls[start:end]]
    orders = sorted({S.order for _, S in harness._suite_tasks([1, 2, 3], True)})
    assert orders == [1, 2, 3, 4]
    expected = (
        (A, TransformParams(b, a))
        for n in orders for A in sample_ifs(n, spec)
        for b in spec.beta_grid for a in harness.alpha_samples(A, b, strategy)
    )
    assert swept
    for got, want in itertools.zip_longest(swept, expected):
        assert got == want


def test_non_regular_witness_satisfying_the_product_law_is_reported(monkeypatch):
    """A product that equals the meet on crisp operands makes each non-regular
    table's characteristic witness satisfy the product law."""
    true_product = harness.if_product

    def if_product(S, A, B):
        if set(A.mu + B.mu) <= {0, 1}:
            return harness.intersect(A, B)
        return true_product(S, A, B)

    monkeypatch.setattr(harness, "if_product", if_product)
    orders = [1, 2, 3]
    tables = {
        f"order{n}/{i:03d}": S for n in orders for i, S in enumerate(enumerate_semigroups(n))
    }
    suite = run_suite(orders, SampleSpec(grade_grid_step=F(1, 2), max_pair_subjects=2),
                      ["regular_product"], include_library=False)
    refuted = 0
    for r in suite:
        S = tables[r.semigroup]
        if classify(S).regular:
            assert r.outcome == "verified"
            continue
        refuted += 1
        c = r.certificate
        assert (r.outcome, c.kind, c.beta, c.alpha) == ("counterexample", "fuzzy", None, None)
        assert c.detail == "characteristic witness unexpectedly satisfies the product law"
        # the witness is the characteristic pair of a crisp pair with RL != R n L
        R, L = (
            ElementSubset(S.order, frozenset(x for x, m in enumerate(mu) if m == 1))
            for mu in (c.mu_a, c.mu_b)
        )
        assert multiply_subsets(S, R, L).members != R.members & L.members
        assert c.nu_a == tuple(1 - m for m in c.mu_a)
        assert c.nu_b == tuple(1 - m for m in c.mu_b)
        assert check_regular_iff_product(S, label=r.semigroup) == r
    assert refuted > 0
