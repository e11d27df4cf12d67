import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsemigroups import (
    CarrierMismatch,
    ElementSubset,
    FuzzyStructureKind as K,
    IFSubset,
    characteristic_pair,
    check,
    classify,
    enumerate_semigroups,
    if_product,
    ifs_eq,
    ifs_leq,
    intersect,
    multiply_subsets,
)

from conftest import small_semigroups, subjects


class TestProduct:
    def test_unfactorable_element_gets_defaults(self, null2, worked_subject):
        A = IFSubset(2, (F(1, 3), F(1, 2)), (F(1, 3), F(1, 4)))
        out = if_product(null2, A, A)
        assert out.mu[1] == F(0) and out.nu[1] == F(1)

    def test_full_times_full_in_group(self, mod2):
        full = IFSubset(2, (F(1), F(1)), (F(0), F(0)))
        out = if_product(mod2, full, full)
        assert ifs_eq(out, full)

    def test_characteristic_pairs_on_semilattice(self, semilattice2):
        chi = characteristic_pair(2, ElementSubset(2, frozenset({0})))
        out = if_product(semilattice2, chi, chi)
        assert out.mu == (F(1), F(0)) and out.nu == (F(0), F(1))

    def test_carrier_mismatch(self, mod2, worked_subject):
        with pytest.raises(CarrierMismatch):
            if_product(mod2, worked_subject, worked_subject)


class TestCrispConsistency:
    def test_exhaustive_up_to_order_three(self):
        for n in (1, 2, 3):
            for S in enumerate_semigroups(n):
                nonempty = [
                    ElementSubset(n, frozenset(c))
                    for k in range(1, n + 1)
                    for c in itertools.combinations(range(n), k)
                ]
                for A in nonempty:
                    for B in nonempty:
                        lhs = if_product(
                            S, characteristic_pair(n, A), characteristic_pair(n, B)
                        )
                        rhs = characteristic_pair(n, multiply_subsets(S, A, B))
                        assert ifs_eq(lhs, rhs)


@st.composite
def composable(draw):
    S = draw(small_semigroups())
    A = draw(subjects(order=S.order, nonempty=False))
    B = draw(subjects(order=S.order, nonempty=False))
    return S, A, B


@settings(max_examples=100, deadline=None)
@given(composable())
def test_product_respects_the_sum_bound(case):
    S, A, B = case
    out = if_product(S, A, B)
    assert all(m + v <= 1 for m, v in zip(out.mu, out.nu))


class TestIdealPropositions:
    def grid(self, n):
        values = [F(0), F(1, 2), F(1)]
        pairs = [(m, v) for m in values for v in values if m + v <= 1]
        for combo in itertools.product(pairs, repeat=n):
            mu = tuple(p[0] for p in combo)
            if any(mu):
                yield IFSubset(n, mu, tuple(p[1] for p in combo))

    def test_right_times_left_inside_intersection(self):
        # holds on every semigroup, no regularity needed
        for S in enumerate_semigroups(2):
            rights = [A for A in self.grid(2) if check(K.RIGHT_IDEAL, S, A)]
            lefts = [A for A in self.grid(2) if check(K.LEFT_IDEAL, S, A)]
            for A in rights[:12]:
                for B in lefts[:12]:
                    assert ifs_leq(if_product(S, A, B), intersect(A, B))

    def test_reverse_inclusion_on_regular_semigroups(self):
        for S in enumerate_semigroups(2):
            if not classify(S).regular:
                continue
            rights = [A for A in self.grid(2) if check(K.RIGHT_IDEAL, S, A)]
            lefts = [A for A in self.grid(2) if check(K.LEFT_IDEAL, S, A)]
            for A in rights[:12]:
                for B in lefts[:12]:
                    assert ifs_leq(intersect(A, B), if_product(S, A, B))
