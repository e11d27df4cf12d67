"""The pair phase's operand store against a store-free reference.

The pair core takes its operands from a store: each subject and each
magnified operand is interned by value, each (subject, TransformParams) is
magnified once per run, a pair's sampled parameters are keyed by its least
non-membership, and each table computes each meet, product and semiprime
verdict of a meet once. These tests pin the call counts that sharing
promises, check that a store which shares nothing gives the same reports,
and reach the non-regular product witness's branch for a witness that
satisfies the product law, which no correct run reaches.
"""

from fractions import Fraction as F

import pytest

from ifsemigroups import (
    ElementSubset,
    IFSubset,
    SampleSpec,
    check_regular_iff_product,
    classify,
    enumerate_semigroups,
    multiply_subsets,
    run_suite,
)
from ifsemigroups import harness
from ifsemigroups.predicates import FuzzyStructureKind as K
from ifsemigroups.transforms import TransformParams, max_alpha

PAIR_IDS = ["semiprime_intersection", "product_bi_ideal", "product_one_two_ideal",
            "regular_product"]


def _counting(patch, name, calls):
    """Replace ``harness.<name>`` with a passthrough that records its arguments."""
    inner = getattr(harness, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    patch(harness, name, counted)


def test_each_magnified_operand_and_product_is_built_once(monkeypatch):
    magnified, products = [], []
    _counting(monkeypatch.setattr, "magnify", magnified)
    _counting(monkeypatch.setattr, "if_product", products)
    spec = SampleSpec(grade_grid_step=F(1, 2), max_pair_subjects=4)
    reports = run_suite([1, 2], spec, PAIR_IDS)
    assert all(r.outcome == "verified" for r in reports)
    assert magnified and products
    # operands are distinct by value (a subject and its magnification by
    # (1, 0) are one operand), tables by identity: a library table may equal
    # an enumerated one and is still a table of its own
    assert len(magnified) == len(set(magnified))
    assert len(products) == len({(id(S), A, B) for S, A, B in products})


class _FreshOperands:
    """A store that shares nothing: every operand as given, every magnified
    operand built anew, and each pair's parameters from the bound of each
    subject, as ``max_alpha`` states it."""

    def __init__(self, spec=None):
        self.spec = spec or SampleSpec()

    def operand(self, A):
        return A

    def params(self, A, B):
        return [
            TransformParams(beta, alpha)
            for beta in self.spec.beta_grid
            for alpha in harness._shifts(
                min(max_alpha(A, beta), max_alpha(B, beta)), self.spec.alpha_strategy
            )
        ]

    def magnified(self, A, params):
        return harness.magnify(A, params)


class _FreshTable:
    """Each meet, product and semiprime verdict computed at every use."""

    def __init__(self, S, operands):
        self.S = S
        self.operands = operands

    def meet(self, X, Y):
        return harness.intersect(X, Y)

    def semiprime(self, I):
        return harness.check(K.SEMIPRIME, self.S, I)

    def product(self, X, Y):
        return harness.if_product(self.S, X, Y)


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
