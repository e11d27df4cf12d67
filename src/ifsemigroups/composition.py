"""Sup-min / inf-max product of fuzzy subjects over a semigroup.

The product at x ranges over every factorization x = u*v in the Cayley
table: membership is the max over factorizations of min(mu_A(u), mu_B(v)),
non-membership the min over factorizations of max(nu_A(u), nu_B(v)). An
element with no factorization gets membership 0 and non-membership 1.

Factorizations are indexed once per semigroup and shared; the harness
calls the product thousands of times per table. The product compares
grades and never computes with them, so it runs on the operands' integer
views and returns a subject that carries only its view: each result int is
one of the operands' ints, or 0 or den where an element has no
factorization. Operands already over one denominator, as the pair laws'
operands are, are read as they are; only differing denominators are
rescaled to their least common multiple.

The product itself is straight-line code: ``build_factorizations``, once
per table (its cache finds an equal table by value), writes it through
``ifs._generated``, two statements per factorization pair, and keeps the
function on the index as ``product``. Its source holds fixed identifiers
and the ints u, v of ``pairs_for``, taken from ``range(n)`` of a
validated ``Semigroup``. The build grows with the n^2 pairs: on cyclic
tables it took 0.3 ms at order 3, 4 ms at 12, 17 ms at 24 and 0.48 s at
100 (2-core Xeon VM, Python 3.11.7). The cost guard admits orders <= 12,
so there is no second path for large tables.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import CarrierMismatch
from .ifs import IFSubset, _common_views, _generated, _trusted
from .semigroups import Semigroup


@dataclass(frozen=True)
class FactorizationIndex:
    """For each element x, every pair (u, v) with u*v = x.

    ``build_factorizations`` also sets ``product``, the table's generated
    product kernel; it is not compared, hashed or shown by ``repr``, and
    ``pickle`` and ``replace()`` copy the other two fields alone."""

    carrier_order: int
    pairs_for: tuple[tuple[tuple[int, int], ...], ...]
    product: Callable = field(init=False, repr=False, compare=False)

    def __reduce__(self):
        # a generated function does not pickle
        return FactorizationIndex, (self.carrier_order, self.pairs_for)


def _product(pairs_for) -> Callable:
    """Sup-min / inf-max over ``pairs_for`` as straight-line code: m{x}
    (n{x}) starts at the first pair's min (max) and takes each further
    pair's when larger (smaller); an element with no pair gets 0 (den)."""
    lines, n = [], len(pairs_for)
    for x, pairs in enumerate(pairs_for):
        for best, p, q, op, empty in ((f"m{x}", "a", "b", "<", "0"),
                                      (f"n{x}", "c", "d", ">", "den")):
            picks = [f"{p}{u} if {p}{u} {op} {q}{v} else {q}{v}" for u, v in pairs]
            lines.append(f"{best} = {picks[0] if picks else empty}")
            for pick in picks[1:]:
                lines += [f"g = {pick}", f"if {best} {op} g: {best} = g"]
    return _generated(n, lines, [f"m{x}" for x in range(n)], [f"n{x}" for x in range(n)])


@lru_cache(maxsize=1024)
def build_factorizations(S: Semigroup) -> FactorizationIndex:
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(S.order)]
    for u in S.elements():
        row = S.table[u]
        for v in S.elements():
            buckets[row[v]].append((u, v))
    index = FactorizationIndex(S.order, tuple(tuple(b) for b in buckets))
    object.__setattr__(index, "product", _product(index.pairs_for))
    return index


def if_product(S: Semigroup, A: IFSubset, B: IFSubset) -> IFSubset:
    """Compose two subjects along the multiplication of S."""
    if A.carrier_order != S.order or B.carrier_order != S.order:
        raise CarrierMismatch("subject carrier does not match semigroup order")
    den, mu_a, nu_a = A.view
    db, mu_b, nu_b = B.view
    if den != db:
        den, mu_a, nu_a, mu_b, nu_b = _common_views(A, B)
    # valid by construction: where min(mu_a(u), mu_b(v)) attains mu(x), nu(x)
    # is at most max(nu_a(u), nu_b(v)), so mu(x) + nu(x) <= 1
    return _trusted(S.order, view=build_factorizations(S).product(den, mu_a, mu_b, nu_a, nu_b))
