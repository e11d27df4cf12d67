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

Scans visit tuples in lexicographic order of the quantified variables and
test the mu inequality before the nu inequality, so the reported violation
is deterministic. The scan helpers only compare values, which lets the
batch harness run them on order-isomorphic integer views of the exact
grades; public entry points work on the Fractions directly.
"""

from __future__ import annotations

import math
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


KIND_ORDER = (
    FuzzyStructureKind.SUBSEMIGROUP,
    FuzzyStructureKind.BI_IDEAL,
    FuzzyStructureKind.ONE_TWO_IDEAL,
    FuzzyStructureKind.LEFT_IDEAL,
    FuzzyStructureKind.RIGHT_IDEAL,
    FuzzyStructureKind.IDEAL,
    FuzzyStructureKind.SEMIPRIME,
)


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


@dataclass(frozen=True)
class _ScanIndex:
    pairs: tuple[tuple[int, int, int], ...]  # (xy, x, y)
    triples: tuple[tuple[int, int, int, int], ...]  # (xyz, x, y, z)
    quads: tuple[tuple[int, int, int, int, int], ...]  # (xw(yz), x, w, y, z)
    squares: tuple[int, ...]
    # deduplicated (site, args) projections: the middle variables only move
    # the site, so tuples sharing site and argument points impose the same
    # condition; boolean scans use these, violation scans use the full lists
    bi_keys: tuple[tuple[int, int, int], ...]
    one_two_keys: tuple[tuple[int, int, int, int], ...]


@lru_cache(maxsize=1024)
def _scan_index(S: Semigroup) -> _ScanIndex:
    n, T = S.order, S.table
    r = range(n)
    pairs = tuple((T[x][y], x, y) for x in r for y in r)
    triples = tuple((T[T[x][y]][z], x, y, z) for x in r for y in r for z in r)
    quads = tuple(
        (T[T[x][w]][T[y][z]], x, w, y, z) for x in r for w in r for y in r for z in r
    )
    squares = tuple(T[x][x] for x in r)
    bi_keys = tuple(dict.fromkeys((p, x, z) for p, x, _, z in triples))
    one_two_keys = tuple(dict.fromkeys((p, x, y, z) for p, x, _, y, z in quads))
    return _ScanIndex(pairs, triples, quads, squares, bi_keys, one_two_keys)


# --- scan helpers: value-generic, first violation in lexicographic order ---


def _scan_sub(pairs, mu, nu):
    for t in pairs:
        p, x, y = t
        mx, my = mu[x], mu[y]
        if mu[p] < (mx if mx < my else my):
            return t, "mu"
        vx, vy = nu[x], nu[y]
        if nu[p] > (vx if vx > vy else vy):
            return t, "nu"
    return None


def _scan_bi(triples, mu, nu):
    for t in triples:
        p, x, _, z = t
        mx, mz = mu[x], mu[z]
        if mu[p] < (mx if mx < mz else mz):
            return t, "mu"
        vx, vz = nu[x], nu[z]
        if nu[p] > (vx if vx > vz else vz):
            return t, "nu"
    return None


def _scan_one_two(quads, mu, nu):
    for t in quads:
        p, x, _, y, z = t
        if mu[p] < min(mu[x], mu[y], mu[z]):
            return t, "mu"
        if nu[p] > max(nu[x], nu[y], nu[z]):
            return t, "nu"
    return None


def _scan_left(pairs, mu, nu):
    for t in pairs:
        p, _, y = t
        if mu[p] < mu[y]:
            return t, "mu"
        if nu[p] > nu[y]:
            return t, "nu"
    return None


def _scan_right(pairs, mu, nu):
    for t in pairs:
        p, x, _ = t
        if mu[p] < mu[x]:
            return t, "mu"
        if nu[p] > nu[x]:
            return t, "nu"
    return None


def _scan_semiprime(squares, mu, nu):
    for x, x2 in enumerate(squares):
        if mu[x] < mu[x2]:
            return (x, x2), "mu"
        if nu[x] > nu[x2]:
            return (x, x2), "nu"
    return None


def _bi_keys_ok(keys, mu, nu) -> bool:
    for p, x, z in keys:
        mx, mz = mu[x], mu[z]
        if mu[p] < (mx if mx < mz else mz):
            return False
        vx, vz = nu[x], nu[z]
        if nu[p] > (vx if vx > vz else vz):
            return False
    return True


def _one_two_keys_ok(keys, mu, nu) -> bool:
    for p, x, y, z in keys:
        m = mu[x]
        t = mu[y]
        if t < m:
            m = t
        t = mu[z]
        if t < m:
            m = t
        if mu[p] < m:
            return False
        v = nu[x]
        t = nu[y]
        if t > v:
            v = t
        t = nu[z]
        if t > v:
            v = t
        if nu[p] > v:
            return False
    return True


def _profile_from(idx: _ScanIndex, mu, nu) -> tuple[bool, ...]:
    """All seven flags in KIND_ORDER, sharing scans across the hierarchy."""
    sub = _scan_sub(idx.pairs, mu, nu) is None
    bi = sub and _bi_keys_ok(idx.bi_keys, mu, nu)
    one_two = sub and _one_two_keys_ok(idx.one_two_keys, mu, nu)
    left = _scan_left(idx.pairs, mu, nu) is None
    right = _scan_right(idx.pairs, mu, nu) is None
    ideal = left and right
    semi = ideal and _scan_semiprime(idx.squares, mu, nu) is None
    return (sub, bi, one_two, left, right, ideal, semi)


def _scaled(A: IFSubset) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Order-isomorphic integer view: all grades over one common denominator."""
    den = 1
    for f in A.mu:
        den = math.lcm(den, f.denominator)
    for f in A.nu:
        den = math.lcm(den, f.denominator)
    mu = tuple(f.numerator * (den // f.denominator) for f in A.mu)
    nu = tuple(f.numerator * (den // f.denominator) for f in A.nu)
    return mu, nu


def _require_subject(S: Semigroup, A: IFSubset) -> None:
    if A.carrier_order != S.order:
        raise CarrierMismatch("subject carrier does not match semigroup order")
    if not is_nonempty(A):
        raise EmptyFuzzySubset("subject has identically zero membership")


# stage -> (scan helper, scan-index field it reads, positions of the argument
# points in each tuple); a tuple's first entry is the site of its left side,
# and a semiprime tuple is (x, x*x)
_STAGES = {
    "subsemigroup": (_scan_sub, "pairs", (1, 2)),
    "bi_ideal": (_scan_bi, "triples", (1, 3)),
    "one_two_ideal": (_scan_one_two, "quads", (1, 3, 4)),
    "left_ideal": (_scan_left, "pairs", (2,)),
    "right_ideal": (_scan_right, "pairs", (1,)),
    "semiprime": (_scan_semiprime, "squares", (1,)),
}

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


def _stage_tuples(idx: _ScanIndex, stage: str):
    """The tuples a stage quantifies over, in scan order."""
    field = _STAGES[stage][1]
    return tuple(enumerate(idx.squares)) if field == "squares" else getattr(idx, field)


def _violation_of(kind, stage, hit, A: IFSubset) -> Violation:
    """Build a Violation with exact Fraction sides from a scan hit."""
    t, component = hit
    vals = A.mu if component == "mu" else A.nu
    agg = min if component == "mu" else max
    p = t[0]
    points = (p,) if stage == "semiprime" else t[1:]
    rhs = agg(vals[t[i]] for i in _STAGES[stage][2])
    return Violation(kind, stage, component, points, p, vals[p], rhs)


def find_violation(kind: FuzzyStructureKind, S: Semigroup, A: IFSubset) -> Violation | None:
    """First violating tuple of the property, or None if it holds.

    Composite kinds scan their parts in definition order: bi and (1,2)
    ideals check the subsemigroup pairs first; ideal checks left before
    right; semiprime checks ideal-ness before the squares.
    """
    _require_subject(S, A)
    if kind not in _KIND_STAGES:
        raise ValueError(f"unknown kind {kind!r}")
    idx = _scan_index(S)
    for stage in _KIND_STAGES[kind]:
        scan, field, _ = _STAGES[stage]
        hit = scan(getattr(idx, field), A.mu, A.nu)
        if hit is not None:
            return _violation_of(kind, stage, hit, A)
    return None


def check(kind: FuzzyStructureKind, S: Semigroup, A: IFSubset) -> bool:
    return find_violation(kind, S, A) is None


def profile(S: Semigroup, A: IFSubset) -> dict[FuzzyStructureKind, bool]:
    """All seven properties at once, sharing the scan work."""
    _require_subject(S, A)
    flags = _profile_from(_scan_index(S), *_scaled(A))
    return dict(zip(KIND_ORDER, flags))


def find_semiprime_inequality_violation(S: Semigroup, A: IFSubset) -> Violation | None:
    """The square inequalities alone, without requiring A to be an ideal."""
    _require_subject(S, A)
    hit = _scan_semiprime(_scan_index(S).squares, A.mu, A.nu)
    if hit is None:
        return None
    return _violation_of(FuzzyStructureKind.SEMIPRIME, "semiprime", hit, A)


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
