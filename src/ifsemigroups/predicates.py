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
formulas above, on the Fractions and without ``_STAGES``. ``check`` and
``find_violation`` share one scan loop over the kind's runs
(``_KIND_RUNS``): consecutive stages that share a scan are joined into one
pass, so semiprime is one ``_scan1`` pass over the left, right and square
tuples, and bi-ideal one ``_scan2`` pass. A violation names the first of
the kind's stages that holds its tuple.

Every scan compares mu only with mu and nu only with nu. The sweep's
decision core rests on that premise (Lemma 1): ``_verdict`` decides what the
sweep asks of one view, ``_join`` joins it from a mu half and a nu half, and
``_Patterns`` decides each weak-order pattern once per semigroup.
``break_property``, the mutation probe, breaks the mu inequality of the
stage its kind adds (``_KIND_STAGES``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from operator import and_

from .errors import CarrierMismatch, EmptySubset
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


class _Index(dict):
    """``_scan_index``'s stage -> {tuple: its first points}, with ``runs``:
    kind -> its runs (``_runs``), each kind's built on its first scan."""

    __slots__ = ("runs",)


@lru_cache(maxsize=1024)
def _scan_index(S: Semigroup) -> _Index:
    """stage -> {tuple: its first points}, in lexicographic order of the
    points. Points sharing a tuple impose the same inequality, so scanning
    one per tuple finds the same first violating points. A tuple whose site
    is among its argument points is a tautology and is left out: it cannot
    be the first violating one."""
    index = _Index()
    index.runs = {}
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
        raise EmptySubset("subject has identically zero membership")


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


def _stages_of(kind) -> tuple[str, ...]:
    """The stages of ``kind``; anything but a ``FuzzyStructureKind``, hashable
    or not, is an unknown kind (``ValueError``)."""
    if not isinstance(kind, FuzzyStructureKind):
        raise ValueError(f"unknown kind {kind!r}")
    return _KIND_STAGES[kind]


# kind -> its runs (scan, stages): its stages in order, with consecutive
# stages that share a scan joined into one run
_KIND_RUNS = {
    kind: tuple((scan, tuple(run))
                for scan, run in itertools.groupby(stages, lambda stage: _STAGES[stage][0]))
    for kind, stages in _KIND_STAGES.items()
}


def _runs(idx: _Index, kind) -> tuple:
    """The runs of ``kind`` over one table, (scan, tuples, stages) each, kept
    in ``idx.runs``; an unknown kind is refused. A joined run scans each
    tuple once, in its first stage's place: a later stage's copy imposes
    the same inequality, which the earlier scan already passed, so the
    run's first violating tuple is the one the stages scanned one by one
    would find first."""
    _stages_of(kind)
    runs = []
    for scan, stages in _KIND_RUNS[kind]:
        firsts = [idx[stage] for stage in stages]
        tuples = firsts[0] if len(firsts) == 1 else tuple(
            dict.fromkeys(itertools.chain.from_iterable(firsts)))
        runs.append((scan, tuples, stages))
    runs = idx.runs[kind] = tuple(runs)
    return runs


def _first_violating(kind, S: Semigroup, A: IFSubset):
    """The one scan loop of ``check`` and ``find_violation``: ((tuple,
    component), its run's stages) for the first violating tuple, or None.
    It refuses, in this order, a subject over another carrier, one with
    zero membership and an unknown kind."""
    _, mu, nu = A.view
    if A.carrier_order != S.order or not any(mu):
        _require_subject(S, A)
    idx = _scan_index(S)
    runs = idx.runs.get(kind) if kind.__class__ is FuzzyStructureKind else None
    for scan, tuples, stages in runs or _runs(idx, kind):
        hit = scan(tuples, mu, nu)
        if hit is not None:
            return hit, stages
    return None


def find_violation(kind: FuzzyStructureKind, S: Semigroup, A: IFSubset) -> Violation | None:
    """First violating tuple of the property, or None if it holds.

    Composite kinds scan their parts in definition order: bi and (1,2)
    ideals check the subsemigroup pairs first; ideal checks left before
    right; semiprime checks ideal-ness before the squares. The stage named
    is the first of the kind's stages that holds the violating tuple.
    """
    found = _first_violating(kind, S, A)
    if found is None:
        return None
    (t, component), stages = found
    idx = _scan_index(S)
    stage = next(stage for stage in stages if t in idx[stage])
    vals, ints, agg = (A.mu, A.view[1], min) if component == "mu" else (A.nu, A.view[2], max)
    p = t[0]
    rhs = vals[agg(t[1:], key=ints.__getitem__)]
    return Violation(kind, stage, component, idx[stage][t], p, vals[p], rhs)


def break_property(S: Semigroup, A: IFSubset, kind: FuzzyStructureKind) -> IFSubset | None:
    """Mutate one membership grade so the mu-inequality of the stage the kind
    adds fails: the last of ``_KIND_STAGES[kind]``, or the first for ideal,
    which adds none. Picks the first tuple in scan order (whose site is never
    among its argument points) with a positive required minimum, then lowers
    the membership at the site to at most half that minimum. Returns None
    when no such tuple exists for this subject. It refuses what
    ``find_violation`` refuses: a subject over another carrier or with zero
    membership, and an unknown kind (``ValueError``).
    """
    _require_subject(S, A)
    stages = _stages_of(kind)
    mu = A.mu
    for p, *args in _scan_index(S)[stages[0 if kind is FuzzyStructureKind.IDEAL else -1]]:
        required = min(mu[a] for a in args)
        if required > 0:
            new_mu = list(mu)
            new_mu[p] = min(mu[p], required / 2)
            return IFSubset(A.carrier_order, tuple(new_mu), A.nu)
    return None


def check(kind: FuzzyStructureKind, S: Semigroup, A: IFSubset) -> bool:
    return _first_violating(kind, S, A) is None


def profile(S: Semigroup, A: IFSubset) -> dict[FuzzyStructureKind, bool]:
    """All seven properties at once, sharing the scan work."""
    _require_subject(S, A)
    flags = _profile_from(_scan_index(S), *A.view[1:])
    return dict(zip(KIND_ORDER, flags))


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


# --- the sweep's decision core


def _weak_order(values) -> tuple[int, ...]:
    """Each value's rank among the distinct values."""
    return tuple(map(sorted(set(values)).index, values))


def _verdict(S: Semigroup, mu, nu) -> tuple:
    """Everything the sweep asks of one grade view on one semigroup:
    (profile flags, first x whose grades differ from those of x*x, whether
    both maps are constant, first x breaking a semiprime square inequality),
    with None where there is no such x.

    By the module docstring's premise, and since a constant map breaks no
    inequality and differs nowhere, a flag or the constancy holds iff it
    holds for both (mu, a constant) and (a constant, nu), and a first x is
    the earlier of those two verdicts' first x: ``_join``."""
    idx = _scan_index(S)
    squares = idx["semiprime"]  # (x, x*x) for each x that is not idempotent, by x
    fixed = next((x for x, x2 in squares if mu[x] != mu[x2] or nu[x] != nu[x2]), None)
    hit = _scan1(squares, mu, nu)
    return (
        _profile_from(idx, mu, nu),
        fixed,
        len(set(mu)) <= 1 and len(set(nu)) <= 1,
        None if hit is None else hit[0][0],
    )


def _first(x, y):
    return y if x is None else x if y is None else min(x, y)


def _join(v: tuple, w: tuple) -> tuple:
    """The verdict of (mu, nu) from those of (mu, a constant) and (a constant,
    nu), by the module docstring's premise."""
    return (tuple(map(and_, v[0], w[0])), _first(v[1], w[1]), v[2] and w[2],
            _first(v[3], w[3]))


class _Patterns:
    """Dense ids for the weak-order patterns of one carrier order's views,
    and every semigroup's verdict on each.

    A view's pattern is the pair of ids of the weak orders of its mu and of
    its nu; each distinct int tuple's weak order is computed once. By the
    module docstring's premise, views sharing a pattern share their verdict
    on every semigroup, and ``extend`` joins it from two halves that each
    read one weak order (``_join``), kept per semigroup. Each pattern keeps
    the number of swept subjects with it, which every semigroup of the order
    shares. Verdicts are interned here so that the semigroups of one order
    share the few distinct ones. ``pattern`` gives a swept view's id again.
    """

    def __init__(self):
        self._orders: dict = {}  # int tuple -> order id
        self._order_ids: dict = {}  # weak order -> order id, in id order
        self._ids: dict = {}  # (mu order id, nu order id) -> pattern id
        self.pairs: list = []  # pattern id -> (mu order id, nu order id)
        self.counts: list = []  # pattern id -> subjects swept with it
        self._halves: dict = {}  # semigroup -> order id -> (mu half, nu half)
        self._verdicts: dict = {}  # verdict -> itself: one object per distinct verdict
        self._joins: dict = {}  # (id(mu half), id(nu half)) -> their interned join

    def _order(self, ints) -> int:
        """The order id of an int tuple ``_orders`` lacks, kept there."""
        ids = self._order_ids
        oid = self._orders[ints] = ids.setdefault(_weak_order(ints), len(ids))
        return oid

    def pattern(self, mu, nu) -> int:
        orders = self._orders
        m, n = orders.get(mu), orders.get(nu)
        key = (self._order(mu) if m is None else m, self._order(nu) if n is None else n)
        pid = self._ids.get(key)
        if pid is None:
            pid = self._ids[key] = len(self.pairs)
            self.pairs.append(key)
            self.counts.append(0)
        return pid

    def extend(self, S: Semigroup, verdicts: list) -> None:
        """Extend ``S``'s verdict list (pattern id -> verdict) to every
        pattern seen so far. ``S`` first decides the two halves of each new
        order id: the verdicts of the weak order itself (its ranks are a view
        with that weak order) as mu beside a constant nu, and as nu beside a
        constant mu. Each new pattern's verdict is then the interned join of
        its halves, joined once per pair of halves."""
        intern, joins = self._verdicts.setdefault, self._joins
        halves = self._halves.setdefault(S, [])
        for order in itertools.islice(self._order_ids, len(halves), None):
            flat = (0,) * len(order)
            mu_half, nu_half = _verdict(S, order, flat), _verdict(S, flat, order)
            halves.append((intern(mu_half, mu_half), intern(nu_half, nu_half)))
        for m, n in self.pairs[len(verdicts):]:
            mu_half, nu_half = halves[m][0], halves[n][1]
            v = joins.get(key := (id(mu_half), id(nu_half)))
            if v is None:
                v = _join(mu_half, nu_half)
                v = joins[key] = intern(v, v)
            verdicts.append(v)
