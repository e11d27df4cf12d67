"""Sup-min / inf-max product of fuzzy subjects over a semigroup.

The product at x ranges over every factorization x = u*v in the Cayley
table: membership is the max over factorizations of min(mu_A(u), mu_B(v)),
non-membership the min over factorizations of max(nu_A(u), nu_B(v)). An
element with no factorization gets membership 0 and non-membership 1.

Factorizations are indexed once per semigroup and shared; the harness
calls the product thousands of times per table. The product compares
grades and never computes with them, so it runs on the operands' integer
views over one common denominator and returns a subject that carries only
its view: each result int is one of the operands' ints, or 0 or den where
an element has no factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import CarrierMismatch
from .ifs import IFSubset, _common_views, _trusted
from .semigroups import Semigroup


@dataclass(frozen=True)
class FactorizationIndex:
    """For each element x, every pair (u, v) with u*v = x."""

    carrier_order: int
    pairs_for: tuple[tuple[tuple[int, int], ...], ...]


@lru_cache(maxsize=1024)
def build_factorizations(S: Semigroup) -> FactorizationIndex:
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(S.order)]
    for u in S.elements():
        row = S.table[u]
        for v in S.elements():
            buckets[row[v]].append((u, v))
    return FactorizationIndex(S.order, tuple(tuple(b) for b in buckets))


def if_product(S: Semigroup, A: IFSubset, B: IFSubset) -> IFSubset:
    """Compose two subjects along the multiplication of S."""
    if A.carrier_order != S.order or B.carrier_order != S.order:
        raise CarrierMismatch("subject carrier does not match semigroup order")
    den, mu_a, nu_a, mu_b, nu_b = _common_views(A, B)
    mu, nu = [], []
    for pairs in build_factorizations(S).pairs_for:
        # the running sup and inf over den; the empty sup is 0, the empty inf 1
        best, least = 0, den
        for u, v in pairs:
            a, b = mu_a[u], mu_b[v]
            a = a if a < b else b
            if a > best:
                best = a
            a, b = nu_a[u], nu_b[v]
            a = a if a > b else b
            if a < least:
                least = a
        mu.append(best)
        nu.append(least)
    # valid by construction: where min(mu_a(u), mu_b(v)) attains mu(x), nu(x)
    # is at most max(nu_a(u), nu_b(v)), so mu(x) + nu(x) <= 1
    return _trusted(S.order, view=(den, tuple(mu), tuple(nu)))
