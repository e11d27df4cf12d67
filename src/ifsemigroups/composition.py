"""Sup-min / inf-max product of fuzzy subjects over a semigroup.

The product at x ranges over every factorization x = u*v in the Cayley
table: membership is the max over factorizations of min(mu_A(u), mu_B(v)),
non-membership the min over factorizations of max(nu_A(u), nu_B(v)). An
element with no factorization gets membership 0 and non-membership 1.

Factorizations are indexed once per semigroup and shared; the harness
calls the product thousands of times per table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import CarrierMismatch
from .ifs import IFSubset, ONE, ZERO, _trusted
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
    mu_a, mu_b, nu_a, nu_b = A.mu, B.mu, A.nu, B.nu
    mu = []
    nu = []
    for pairs in build_factorizations(S).pairs_for:
        if not pairs:
            mu.append(ZERO)
            nu.append(ONE)
            continue
        mu.append(max(min(mu_a[u], mu_b[v]) for u, v in pairs))
        nu.append(min(max(nu_a[u], nu_b[v]) for u, v in pairs))
    # valid by construction: where min(mu_a(u), mu_b(v)) attains mu(x), nu(x)
    # is at most max(nu_a(u), nu_b(v)), so mu(x) + nu(x) <= 1
    return _trusted(S.order, tuple(mu), tuple(nu))
