"""Structural predicates for fuzzy subjects over a semigroup.

Each property is a family of paired inequalities, one on the membership
map and a dual one on the non-membership map, quantified over element
tuples:

  subsemigroup   mu(xy)  >= min(mu(x), mu(y))          nu(xy)  <= max(...)
  bi_ideal       subsemigroup, and over triples
                 mu(xyz) >= min(mu(x), mu(z))          nu(xyz) <= max(...)
  one_two_ideal  subsemigroup, and over quadruples
                 mu(xw(yz)) >= min(mu(x), mu(y), mu(z))  and dually
  left_ideal     mu(xy)  >= mu(y)                      nu(xy)  <= nu(y)
  right_ideal    mu(xy)  >= mu(x)                      nu(xy)  <= nu(x)
  ideal          left_ideal and right_ideal
  semiprime      ideal, and mu(x) >= mu(x*x), nu(x) <= nu(x*x)

Each stage (the inequality pair a row adds; ideal adds none) is defined
once, in ``_STAGES``: how many points it quantifies over, and the tuple
(site, argument points) those points give, where the site is the element
on the left side and the argument points are those on the right side.
The scan index keeps, per stage and in lexicographic order of the points,
only the first points for each (site, argument points): the inequality
depends on nothing else. It drops every tuple whose site is one of its
argument points: mu(p) >= min(..., mu(p), ...) and nu(p) <= max(..., nu(p),
...) always hold, so such a tuple never fails, and dropping it leaves the
first failing tuple, and hence the reported violation, unchanged. Scans
test the mu inequality before the nu inequality, so the reported
violation is the lexicographically first one. The scans only compare
values, so every entry point runs them on the subject's exact integer view
(``IFSubset.view``); a reported violation's sides are read from its
Fractions. ``replay_violation`` recomputes a reported violation from the
formulas above, on the Fractions and without ``_STAGES``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import CarrierMismatch, EmptyFuzzySubset
from .ifs import IFSubset, is_nonempty
from .semigroups import Semigroup


class FuzzyStructureKind(Enum):
    SUBSEMIGROUP = "subsemigroup"
    BI_IDEAL = "bi_ideal"
    ONE_TWO_IDEAL = "one_two_ideal"
    LEFT_IDEAL = "left_ideal"
    RIGHT_IDEAL = "right_ideal"
    IDEAL = "ideal"
    SEMIPRIME = "semiprime"


KIND_ORDER = tuple(FuzzyStructureKind)


@dataclass(frozen=True)
class Violation:
    """First witnessing tuple of a failed inequality, with both sides."""

    kind: FuzzyStructureKind
    stage: str
    component: str  # "mu" or "nu"
    points: tuple[int, ...]
    site: int  # element where the left side is evaluated
    lhs: Fraction
    rhs: Fraction

    def describe(self) -> str:
        pts = ", ".join(str(p) for p in self.points)
        rel = "<" if self.component == "mu" else ">"
        return (
            f"{self.component} inequality of {self.stage} fails at ({pts}): "
            f"{self.lhs} {rel} {self.rhs}"
        )


# --- scans: value-generic, first violating tuple in scan order; one per
# number of argument points. A tuple is (site, *argument points).


def _scan1(tuples, mu, nu):
    for t in tuples:
        p, a = t
        if mu[p] < mu[a]:
            return t, "mu"
        if nu[p] > nu[a]:
            return t, "nu"
    return None


def _scan2(tuples, mu, nu):
    for t in tuples:
        p, a, b = t
        ma, mb = mu[a], mu[b]
        if mu[p] < (ma if ma < mb else mb):
            return t, "mu"
        va, vb = nu[a], nu[b]
        if nu[p] > (va if va > vb else vb):
            return t, "nu"
    return None


def _scan3(tuples, mu, nu):
    for t in tuples:
        p, a, b, c = t
        m = mu[a]
        u = mu[b]
        if u < m:
            m = u
        u = mu[c]
        if u < m:
            m = u
        if mu[p] < m:
            return t, "mu"
        v = nu[a]
        u = nu[b]
        if u > v:
            v = u
        u = nu[c]
        if u > v:
            v = u
        if nu[p] > v:
            return t, "nu"
    return None


# stage -> (its scan, number of quantified points, the tuple of the points
# over a Cayley table T: the site of the left side, then the argument points)
_STAGES = {
    "subsemigroup": (_scan2, 2, lambda T, x, y: (T[x][y], x, y)),
    "bi_ideal": (_scan2, 3, lambda T, x, y, z: (T[T[x][y]][z], x, z)),
    "one_two_ideal": (_scan3, 4, lambda T, x, w, y, z: (T[T[x][w]][T[y][z]], x, y, z)),
    "left_ideal": (_scan1, 2, lambda T, x, y: (T[x][y], y)),
    "right_ideal": (_scan1, 2, lambda T, x, y: (T[x][y], x)),
    "semiprime": (_scan1, 1, lambda T, x: (x, T[x][x])),
}


@lru_cache(maxsize=1024)
def _scan_index(S: Semigroup) -> dict[str, dict[tuple, tuple]]:
    """stage -> {tuple: its first points}, in lexicographic order of the
    points. Points sharing a tuple impose the same inequality, so scanning
    one per tuple finds the same first violating points. A tuple whose site
    is among its argument points is a tautology and is left out: it cannot
    be the first violating one."""
    index = {}
    for stage, (_, k, at) in _STAGES.items():
        first: dict[tuple, tuple] = {}
        for points in itertools.product(range(S.order), repeat=k):
            t = at(S.table, *points)
            if t[0] not in t[1:]:
                first.setdefault(t, points)
        index[stage] = first
    return index


def _profile_from(idx, mu, nu) -> tuple[bool, ...]:
    """All seven flags in KIND_ORDER, sharing scans across the hierarchy as
    ``_KIND_STAGES`` lists them, with each stage read by name."""
    sub = _scan2(idx["subsemigroup"], mu, nu) is None
    bi = sub and _scan2(idx["bi_ideal"], mu, nu) is None
    one_two = sub and _scan3(idx["one_two_ideal"], mu, nu) is None
    left = _scan1(idx["left_ideal"], mu, nu) is None
    right = _scan1(idx["right_ideal"], mu, nu) is None
    ideal = left and right
    semi = ideal and _scan1(idx["semiprime"], mu, nu) is None
    return (sub, bi, one_two, left, right, ideal, semi)


def _require_subject(S: Semigroup, A: IFSubset) -> None:
    if A.carrier_order != S.order:
        raise CarrierMismatch("subject carrier does not match semigroup order")
    if not is_nonempty(A):
        raise EmptyFuzzySubset("subject has identically zero membership")


# kind -> its stages, in the order they are scanned
_KIND_STAGES = {
    FuzzyStructureKind.SUBSEMIGROUP: ("subsemigroup",),
    FuzzyStructureKind.BI_IDEAL: ("subsemigroup", "bi_ideal"),
    FuzzyStructureKind.ONE_TWO_IDEAL: ("subsemigroup", "one_two_ideal"),
    FuzzyStructureKind.LEFT_IDEAL: ("left_ideal",),
    FuzzyStructureKind.RIGHT_IDEAL: ("right_ideal",),
    FuzzyStructureKind.IDEAL: ("left_ideal", "right_ideal"),
    FuzzyStructureKind.SEMIPRIME: ("left_ideal", "right_ideal", "semiprime"),
}


def _violation_of(kind, stages, S: Semigroup, A: IFSubset) -> Violation | None:
    """The first violation over the stages in turn, with exact Fraction sides."""
    idx = _scan_index(S)
    _, mu, nu = A.view
    for stage in stages:
        hit = _STAGES[stage][0](idx[stage], mu, nu)
        if hit is not None:
            t, component = hit
            vals, ints, agg = (A.mu, mu, min) if component == "mu" else (A.nu, nu, max)
            p = t[0]
            rhs = vals[agg(t[1:], key=ints.__getitem__)]
            return Violation(kind, stage, component, idx[stage][t], p, vals[p], rhs)
    return None


def find_violation(kind: FuzzyStructureKind, S: Semigroup, A: IFSubset) -> Violation | None:
    """First violating tuple of the property, or None if it holds.

    Composite kinds scan their parts in definition order: bi and (1,2)
    ideals check the subsemigroup pairs first; ideal checks left before
    right; semiprime checks ideal-ness before the squares.
    """
    _require_subject(S, A)
    stages = _KIND_STAGES.get(kind)
    if stages is None:
        raise ValueError(f"unknown kind {kind!r}")
    return _violation_of(kind, stages, S, A)


def check(kind: FuzzyStructureKind, S: Semigroup, A: IFSubset) -> bool:
    return find_violation(kind, S, A) is None


def profile(S: Semigroup, A: IFSubset) -> dict[FuzzyStructureKind, bool]:
    """All seven properties at once, sharing the scan work."""
    _require_subject(S, A)
    flags = _profile_from(_scan_index(S), *A.view[1:])
    return dict(zip(KIND_ORDER, flags))


def find_semiprime_inequality_violation(S: Semigroup, A: IFSubset) -> Violation | None:
    """The square inequalities alone, without requiring A to be an ideal."""
    _require_subject(S, A)
    return _violation_of(FuzzyStructureKind.SEMIPRIME, ("semiprime",), S, A)


def semiprime_inequalities_hold(S: Semigroup, A: IFSubset) -> bool:
    return find_semiprime_inequality_violation(S, A) is None


def replay_violation(S: Semigroup, A: IFSubset, v: Violation) -> bool:
    """Recompute both sides of a reported violation from scratch.

    True iff the recorded values match the recomputation and the
    inequality indeed fails, i.e. the certificate is genuine.
    """
    T = S.table
    vals = A.mu if v.component == "mu" else A.nu
    agg = min if v.component == "mu" else max
    if v.stage == "subsemigroup":
        x, y = v.points
        site, rhs = T[x][y], agg(vals[x], vals[y])
    elif v.stage == "bi_ideal":
        x, y, z = v.points
        site, rhs = T[T[x][y]][z], agg(vals[x], vals[z])
    elif v.stage == "one_two_ideal":
        x, w, y, z = v.points
        site, rhs = T[T[x][w]][T[y][z]], agg(vals[x], vals[y], vals[z])
    elif v.stage == "left_ideal":
        x, y = v.points
        site, rhs = T[x][y], vals[y]
    elif v.stage == "right_ideal":
        x, y = v.points
        site, rhs = T[x][y], vals[x]
    elif v.stage == "semiprime":
        (x,) = v.points
        site, rhs = x, vals[T[x][x]]
    else:
        return False
    lhs = vals[site]
    if (site, lhs, rhs) != (v.site, v.lhs, v.rhs):
        return False
    return lhs < rhs if v.component == "mu" else lhs > rhs
