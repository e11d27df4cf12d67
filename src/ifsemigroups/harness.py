"""Exhaustive desk-scale verification of the transform theorems.

Every theorem is checked over enumerated semigroups (orders 1..3), the
curated library, grid-sampled fuzzy subjects, and a small grid of
transform parameters. A check either verifies (with exhaustion counters)
or produces a certificate that replays to a concrete violation through
the public predicate and transform APIs. The converse exhibits of the
characterizations and of the product law share one helper: a witness
that breaks its law, plainly and magnified, is attached to the verified
report; one that does not is a counterexample claiming ``exhibit_failed``,
a certificate field that ``--machine`` does not print. ``_report`` replays
every certificate and witness.

Each single-subject theorem is one ``_THEOREMS`` entry, run by both the
suite sweep and the public check (its gates, then the entry's test). Each
pair theorem is one ``_PAIR_THEOREMS`` entry: its hypothesis flags, the
profile positions of its operands, its law and its certificate fields.
One core tests a pair against that law, plainly and magnified; the suite
runs it on the subjects its sweep already gated, the public checks after
their gates.

The suite runner shares work but never changes what is evaluated. Subject
profiles evaluate through the same scan code as the public predicates, on
the exact integer view each subject carries (``IFSubset.view``: a
magnified variant gets its view from ``magnify``, a grid subject from the
grid's integers, a random subject computes its own once). Every
predicate compares mu only with mu and nu only with nu, so a view's
verdicts depend only on the weak order of each grade map: each semigroup
decides each such pattern once. The sweep magnifies each subject under
each of its sampled parameters once, for every semigroup of its carrier
order, and hands them one record per subject: its pattern and the walk
to the variants whose pattern pair no earlier walk step reached. When the
order's stream ends each semigroup keeps one tally, swept subjects per
profile, from which its reports count checked and skipped subjects.

The pair theorems and the sweep's variants take their operands and
sampled parameters from a store with two scopes: ``_Operands`` for one run
and ``_TableOperands`` while one table's reports are built (their
docstrings say what each keeps). Every stored value comes from this
module's ``magnify``, ``intersect`` and ``if_product``, looked up at call
time, so a patched layer still sees every call that is made.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from . import predicates
from .composition import if_product
from .errors import HypothesisNotMet, NotAGroup, PreconditionNotMet
from .ifs import (
    IFSubset,
    ONE,
    ZERO,
    _trusted,
    characteristic_pair,
    ifs_eq,
    ifs_leq,
    intersect,
    is_constant,
    is_nonempty,
)
from .predicates import KIND_ORDER, FuzzyStructureKind, check
from .semigroups import (
    Classification,
    ElementSubset,
    Semigroup,
    builtin_library,
    classify,
    enumerate_semigroups,
    is_crisp_structure,
    multiply_subsets,
    principal_left_ideal,
    principal_right_ideal,
    principal_two_sided_ideal,
    regularity_gap,
)
from .transforms import TransformParams, magnify, max_alpha

K = FuzzyStructureKind

EQUIV_THEOREMS = {f"equiv_{kind.value}": kind for kind in KIND_ORDER}

THEOREM_IDS = tuple(EQUIV_THEOREMS) + (
    "group_constant",
    "semiprime_intersection",
    "fixedpoint",
    "char_intra_regular",
    "char_left_regular",
    "char_right_regular",
    "archimedean_constant",
    "product_bi_ideal",
    "product_one_two_ideal",
    "regular_product",
)

ALPHA_STRATEGIES = ("zero", "max", "midpoint", "grid")

# regularity flag -> (the ideals its characterization samples, the principal
# ideal its converse witness is built from)
_CHAR_RELEVANT = {
    "intra_regular": (K.IDEAL, principal_two_sided_ideal),
    "left_regular": (K.LEFT_IDEAL, principal_left_ideal),
    "right_regular": (K.RIGHT_IDEAL, principal_right_ideal),
}

# positions of the profile flags the theorems read, in KIND_ORDER
_BI, _ONE_TWO, _LEFT, _RIGHT, _SEMIPRIME = (
    KIND_ORDER.index(kind)
    for kind in (K.BI_IDEAL, K.ONE_TWO_IDEAL, K.LEFT_IDEAL, K.RIGHT_IDEAL, K.SEMIPRIME)
)

_SUBJECT_CHUNK = 512


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic sampling plan for subjects and transform parameters."""

    grade_grid_step: Fraction = Fraction(1, 4)
    beta_grid: tuple[Fraction, ...] = (
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(3, 4),
        Fraction(1),
    )
    alpha_strategy: str = "grid"
    random_count: int = 0
    seed: int = 0
    max_pair_subjects: int = 16

    def __post_init__(self):
        object.__setattr__(self, "grade_grid_step", Fraction(self.grade_grid_step))
        object.__setattr__(self, "beta_grid", tuple(Fraction(b) for b in self.beta_grid))
        step = self.grade_grid_step
        if not 0 < step <= 1 or (1 / step).denominator != 1:
            raise ValueError(f"grid step {step} must divide 1 exactly")
        if not self.beta_grid:
            raise ValueError("beta grid is empty: no magnified variant would be built")
        for b in self.beta_grid:
            if not 0 < b <= 1:
                raise ValueError(f"beta {b} outside (0, 1]")
        if self.alpha_strategy not in ALPHA_STRATEGIES:
            raise ValueError(
                f"alpha strategy {self.alpha_strategy!r} not in {ALPHA_STRATEGIES}"
            )
        if self.random_count < 0:
            raise ValueError("random_count must be non-negative")
        if self.max_pair_subjects < 1:
            raise ValueError("max_pair_subjects must be positive")


def _grid(step: Fraction) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(k, the numerators (i, j) of the grid points (i/k, j/k)) for a step of 1/k."""
    k = int(1 / step)
    return k, tuple((i, j) for i in range(k + 1) for j in range(k + 1 - i))


def grid_grade_pairs(step: Fraction) -> tuple[tuple[Fraction, Fraction], ...]:
    """All (mu, nu) grid points with mu + nu <= 1, in lexicographic order."""
    k, pairs = _grid(step)
    return tuple((Fraction(i, k), Fraction(j, k)) for i, j in pairs)


# the most subjects a sweep takes from one carrier order: 20 times the
# default spec's largest order (order 4 at the 1/4 grid, 50 000 subjects)
MAX_SUBJECTS_PER_ORDER = 10**6


def subject_count(carrier_order: int, spec: SampleSpec) -> int:
    """How many subjects ``sample_ifs`` yields: a 1/k grid has (k+1)(k+2)/2
    (mu, nu) pairs and k+1 values of nu, and all-zero memberships are skipped."""
    k = int(1 / spec.grade_grid_step)
    return ((k + 1) * (k + 2) // 2) ** carrier_order - (k + 1) ** carrier_order + spec.random_count


def _refuse_costly(carrier_order: int, spec: SampleSpec) -> None:
    """Raise when a sweep of this order would take more than
    ``MAX_SUBJECTS_PER_ORDER`` subjects, without building any of them."""
    if subject_count(carrier_order, spec) > MAX_SUBJECTS_PER_ORDER:
        raise ValueError(f"order {carrier_order} has more than {MAX_SUBJECTS_PER_ORDER} "
                         "sampled subjects; use a coarser grid step or fewer random subjects")


def _random_subject(n: int, rng: random.Random) -> IFSubset:
    while True:
        mu = []
        nu = []
        for _ in range(n):
            d = rng.randint(1, 12)
            m = Fraction(rng.randint(0, d), d)
            e = rng.randint(1, 12)
            nu.append(Fraction(rng.randint(0, e), e) * (1 - m))
            mu.append(m)
        if any(mu):
            return IFSubset(n, tuple(mu), tuple(nu))


def sample_ifs(carrier_order: int, spec: SampleSpec) -> Iterator[IFSubset]:
    """Deterministic subject stream: full grid first, then seeded randoms.

    Subjects with identically zero membership are skipped (they fail the
    non-emptiness precondition of every predicate). A grid subject carries
    only its integer view over the grid's denominator and makes its
    Fractions on first read. An order with more than
    ``MAX_SUBJECTS_PER_ORDER`` subjects is refused before the grid is built.
    """
    if carrier_order < 1:
        raise ValueError(f"carrier order {carrier_order} must be at least 1")
    _refuse_costly(carrier_order, spec)
    k, pairs = _grid(spec.grade_grid_step)
    for combo in itertools.product(pairs, repeat=carrier_order):
        mu = tuple([p[0] for p in combo])
        if not any(mu):
            continue
        # grid pairs have i + j <= k
        yield _trusted(carrier_order, view=(k, mu, tuple([p[1] for p in combo])))
    rng = random.Random(spec.seed)
    for _ in range(spec.random_count):
        yield _random_subject(carrier_order, rng)


def _shifts(bound: Fraction, strategy: str) -> tuple[Fraction, ...]:
    """The sampled shifts in [0, bound]: zero, boundary, midpoint."""
    if strategy == "zero":
        return (ZERO,)
    if strategy == "max":
        return (bound,)
    if strategy == "midpoint":
        return (bound / 2,)
    if strategy == "grid":
        return (ZERO,) if bound == 0 else (ZERO, bound / 2, bound)
    raise ValueError(f"alpha strategy {strategy!r} not in {ALPHA_STRATEGIES}")


def alpha_samples(A: IFSubset, beta: Fraction, strategy: str = "grid") -> tuple[Fraction, ...]:
    """Shifts sampled for a subject at a given scaling: zero, boundary, midpoint."""
    return _shifts(max_alpha(A, beta), strategy)


# ---------------------------------------------------------------------------
# reports and certificates


@dataclass(frozen=True)
class Certificate:
    """Complete replay data for one violated (or exhibited) inequality."""

    theorem_id: str
    semigroup: str
    table: tuple[tuple[int, ...], ...]
    mu_a: tuple[Fraction, ...]
    nu_a: tuple[Fraction, ...]
    mu_b: tuple[Fraction, ...] | None = None
    nu_b: tuple[Fraction, ...] | None = None
    beta: Fraction | None = None
    alpha: Fraction | None = None
    kind: str | None = None
    points: tuple[int, ...] = ()
    detail: str = ""
    exhibit_failed: bool = False  # claims a converse exhibit failed, not a law


@dataclass(frozen=True)
class VerificationReport:
    theorem_id: str
    semigroup: str
    semigroups_checked: int
    subjects_checked: int
    hypothesis_skipped: int
    outcome: str  # "verified" | "counterexample"
    certificate: Certificate | None = None
    witnesses: tuple[Certificate, ...] = ()


def _subject_of(cert: Certificate, which: str) -> IFSubset:
    n = len(cert.table)
    if which == "a":
        return IFSubset(n, cert.mu_a, cert.nu_a)
    return IFSubset(n, cert.mu_b, cert.nu_b)


def replay_certificate(cert: Certificate) -> bool:
    """Recompute a certificate's claim through the public APIs.

    True iff the recorded violation is reproduced exactly: for
    counterexample certificates that means the theorem really fails on the
    recorded data; for converse witnesses it means the exhibited failure
    is genuine; for a failed exhibit (``exhibit_failed``), that it fails.
    """
    S = Semigroup(len(cert.table), cert.table)
    A = _subject_of(cert, "a")
    params = (
        TransformParams(cert.beta, cert.alpha) if cert.beta is not None else None
    )
    tid = cert.theorem_id
    if cert.exhibit_failed and cert.alpha:
        chis = (A,) if cert.mu_b is None else (A, _subject_of(cert, "b"))
        return min(max_alpha(X, cert.beta) for X in chis) == cert.alpha

    if tid in EQUIV_THEOREMS:
        kind = EQUIV_THEOREMS[tid]
        return check(kind, S, A) != check(kind, S, magnify(A, params))
    if tid == "group_constant":
        return check(K.BI_IDEAL, S, A) != is_constant(magnify(A, params))
    if tid == "fixedpoint":
        if not check(K.SEMIPRIME, S, A):
            return False
        return not _squares_fixed(S, magnify(A, params))
    if tid == "archimedean_constant":
        return (
            classify(S).archimedean
            and check(K.SEMIPRIME, S, A)
            and not is_constant(magnify(A, params))
        )
    if tid == "semiprime_intersection":
        B = _subject_of(cert, "b")
        if not (check(K.SEMIPRIME, S, A) and check(K.SEMIPRIME, S, B)):
            return False
        if params is not None:
            A, B = magnify(A, params), magnify(B, params)
        C = intersect(A, B)
        return is_nonempty(C) and not check(K.SEMIPRIME, S, C)
    if tid.startswith("char_"):
        relevant = FuzzyStructureKind(cert.kind)
        if not check(relevant, S, A):
            return cert.exhibit_failed
        A2 = magnify(A, params) if params is not None else A
        m = cert.points[0]
        m2 = S.table[m][m]
        return (A2.mu[m] < A2.mu[m2] or A2.nu[m] > A2.nu[m2]) != cert.exhibit_failed
    if tid in ("product_bi_ideal", "product_one_two_ideal"):
        B = _subject_of(cert, "b")
        A2, B2 = magnify(A, params), magnify(B, params)
        I = intersect(A2, B2)
        return not (
            ifs_leq(I, if_product(S, A2, B2)) and ifs_leq(I, if_product(S, B2, A2))
        )
    if tid == "regular_product":
        if cert.kind == "crisp":
            R = ElementSubset(S.order, frozenset(x for x, m in enumerate(cert.mu_a) if m == 1))
            L = ElementSubset(S.order, frozenset(x for x, m in enumerate(cert.mu_b) if m == 1))
            return multiply_subsets(S, R, L).members != R.members & L.members
        if cert.kind == "crisp_agreement":
            rights, lefts = _crisp_one_sided_ideals(S)
            law = all(
                multiply_subsets(S, R, L).members == R.members & L.members
                for R in rights
                for L in lefts
            )
            return law != classify(S).regular
        B = _subject_of(cert, "b")
        if params is not None:
            A, B = magnify(A, params), magnify(B, params)
        return ifs_eq(if_product(S, A, B), intersect(A, B)) == cert.exhibit_failed
    return False


def _squares_fixed(S: Semigroup, A: IFSubset) -> bool:
    T = S.table
    return all(
        A.mu[x] == A.mu[T[x][x]] and A.nu[x] == A.nu[T[x][x]] for x in S.elements()
    )


def _report(tid: str, label: str, subjects: int, skipped: int = 0,
            cert: Certificate | None = None,
            witnesses: tuple[Certificate, ...] = ()) -> VerificationReport:
    """Verified without a certificate, refuted by one; every certificate and
    converse witness is emitted only once it replays."""
    if cert is not None and not replay_certificate(cert):
        raise AssertionError(f"unsound certificate for {tid}: does not replay")
    if not all(map(replay_certificate, witnesses)):
        raise AssertionError(f"converse witness for {tid} does not replay")
    outcome = "verified" if cert is None else "counterexample"
    return VerificationReport(tid, label, 1, subjects, skipped, outcome, cert, witnesses)


def _label(S: Semigroup, label: str | None) -> str:
    return label if label is not None else f"n{S.order}"


# ---------------------------------------------------------------------------
# the single-subject theorems: one table, run by the suite and the public checks


@dataclass(frozen=True)
class _Theorem:
    """One single-subject theorem. ``test(table, v, w)`` maps the verdicts
    (see ``_verdict``) of a subject and of one magnified variant to the
    certificate fields of a failure, or None. Without the hypothesis, the
    suite tallies a skip (or exhibits the converse witness of a regularity
    flag) and the public check raises ``refusal``."""

    tid: str
    test: Callable
    hypothesis: str | None = None  # Classification flag the semigroup needs
    refusal: tuple = ()  # (error type, message)
    precondition: int | None = None  # profile position the subject must pass

    def failure(self, label, T, A, beta, alpha, v, w) -> Certificate | None:
        fields = self.test(T, v, w)
        if fields is None:
            return None
        return Certificate(self.tid, label, T, A.mu, A.nu, beta=beta, alpha=alpha, **fields)


def _equiv_test(pos: int, kind: str) -> Callable:
    def test(T, v, w):
        before, after = v[0][pos], w[0][pos]
        if before == after:
            return None
        return {"kind": kind, "detail": f"{kind}: original={before}, transformed={after}"}
    return test


def _group_constant_test(T, v, w):
    bi, const = v[0][_BI], w[2]
    return None if bi == const else {"detail": f"bi_ideal={bi} but constant={const}"}


def _fixedpoint_test(T, v, w):
    x = w[1]
    if x is None:
        return None
    return {"points": (x,), "detail": f"transformed grades differ between {x} and {T[x][x]}"}


def _archimedean_constant_test(T, v, w):
    return None if w[2] else {"detail": "magnified semiprime ideal is not constant"}


def _char_test(relevant: str) -> Callable:
    def test(T, v, w):
        x = w[3]
        if x is None:
            return None
        return {"kind": relevant, "points": (x,),
                "detail": "magnified relevant ideal breaks a semiprime inequality"}
    return test


_THEOREMS = {th.tid: th for th in (
    *(_Theorem(tid, _equiv_test(pos, kind.value))
      for pos, (tid, kind) in enumerate(EQUIV_THEOREMS.items())),
    _Theorem("group_constant", _group_constant_test, "is_group",
             (NotAGroup, "the constant-function equivalence requires a group")),
    _Theorem("fixedpoint", _fixedpoint_test, precondition=_SEMIPRIME),
    *(_Theorem(f"char_{kind}", _char_test(relevant.value), kind,
               precondition=KIND_ORDER.index(relevant))
      for kind, (relevant, _) in _CHAR_RELEVANT.items()),
    _Theorem("archimedean_constant", _archimedean_constant_test, "archimedean",
             (PreconditionNotMet, "semigroup is not archimedean"), _SEMIPRIME),
)}


def _check_single(tid: str, S: Semigroup, A: IFSubset, params: TransformParams,
                  label: str | None) -> VerificationReport:
    """Gate, then test: the suite's step on one subject and one variant, with
    gates that raise where the suite would tally a skip."""
    th = _THEOREMS[tid]
    if th.hypothesis is not None and not getattr(classify(S), th.hypothesis):
        raise th.refusal[0](th.refusal[1])
    predicates._require_subject(S, A)
    idx = predicates._scan_index(S)
    v = _verdict(idx, *A.view[1:])
    if th.precondition is not None and not v[0][th.precondition]:
        raise PreconditionNotMet(
            f"subject is not a {KIND_ORDER[th.precondition].value} ideal"
        )
    w = _verdict(idx, *magnify(A, params).view[1:])
    name = _label(S, label)
    return _report(tid, name, 1, 0, th.failure(name, S.table, A, params.beta, params.alpha, v, w))


def check_transform_equivalence(
    kind: FuzzyStructureKind,
    S: Semigroup,
    A: IFSubset,
    params: TransformParams,
    label: str | None = None,
) -> VerificationReport:
    """Property holds on A iff it holds on the magnified A."""
    return _check_single(f"equiv_{kind.value}", S, A, params, label)


def check_group_constant(
    S: Semigroup, A: IFSubset, params: TransformParams, label: str | None = None
) -> VerificationReport:
    """On a group: A is a bi-ideal iff its magnified translation is constant."""
    return _check_single("group_constant", S, A, params, label)


def check_semiprime_fixedpoint(
    S: Semigroup, A: IFSubset, params: TransformParams, label: str | None = None
) -> VerificationReport:
    """Magnified semiprime ideals take equal values at x and x*x."""
    return _check_single("fixedpoint", S, A, params, label)


def check_archimedean_constant(
    S: Semigroup, A: IFSubset, params: TransformParams, label: str | None = None
) -> VerificationReport:
    """On archimedean semigroups, magnified semiprime ideals are constant."""
    return _check_single("archimedean_constant", S, A, params, label)


def _converse_witness(kind: str, ops: _TableOperands, name: str):
    """The exhibit of a characterization's converse: the characteristic pair
    of the principal ideal of m*m must be a relevant ideal whose magnified
    translation violates a semiprime inequality at the gap element m."""
    S, (relevant, principal) = ops.S, _CHAR_RELEVANT[kind]
    m = regularity_gap(S, kind)  # not None: classify's flag is "no gap"
    m2 = S.table[m][m]
    W = characteristic_pair(S.order, principal(S, m2))
    cert = functools.partial(Certificate, f"char_{kind}", name, S.table, W.mu, W.nu,
                             kind=relevant.value, points=(m,))
    if not check(relevant, S, W):
        return (), cert(exhibit_failed=True,
                        detail="principal-ideal witness fails the relevant ideal predicate"), 0
    return _exhibit(
        ops, (W,), lambda X: X.mu[m] < X.mu[m2] or X.nu[m] > X.nu[m2], cert,
        {"detail": f"characteristic pair of the principal ideal of {m2} is a "
                   f"{relevant.value} whose magnified translation breaks "
                   f"semiprimeness at {m}"},
        {"detail": "witness fails to violate the semiprime inequalities"},
    )


def check_characterization(
    kind: str,
    S: Semigroup,
    spec: SampleSpec | None = None,
    label: str | None = None,
) -> VerificationReport:
    """Two-sided regularity characterization via magnified ideals.

    Forward: when the classify flag holds, the magnified translation of
    every sampled relevant ideal satisfies the semiprime inequalities; this
    is the suite's sweep over the subject stream for this one semigroup.
    Converse: when it fails, the characteristic pair of the principal
    ideal of m*m (m the gap element) is exhibited breaking them.
    """
    if kind not in _CHAR_RELEVANT:
        raise ValueError(f"unknown characterization kind {kind!r}")
    return _one_table(f"char_{kind}", kind, S, spec, label)


def _one_table(tid: str, flag: str, S: Semigroup, spec: SampleSpec | None,
               label: str | None) -> VerificationReport:
    """The suite over one semigroup and one theorem on the sampled
    subjects; the sweep runs only when the semigroup has ``flag``, the
    theorem's hypothesis."""
    spec = spec or SampleSpec()
    state = _TaskState(_label(S, label), S, classify(S))
    operands = _Operands(spec)
    if getattr(state.cls, flag):
        _sweep([state], sample_ifs(S.order, spec), (tid,), spec, operands)
    (report,) = _finish_task(state, (tid,), _TableOperands(S, operands))
    return report


# ---------------------------------------------------------------------------
# the pair theorems: one table, run by the suite and the public checks


class _Operands:
    """The sampled parameters and pair operands of one run, shared by the
    sweep, every table and every pair theorem.

    Operands are interned by value, so equal subjects (a subject and its
    magnification by (1, 0), say) are one object and the identity keys
    here and in ``_TableOperands`` stand for values; the store holds every
    object it keys by identity. Interning hashes and compares ``Fraction``
    grades, so it materialises the grades of every view-only operand it
    stores (each magnified operand). Each (operand, TransformParams) is
    magnified once, through ``magnify``. A subject's sampled parameters
    depend only on its least non-membership, and a pair's on the smaller
    least non-membership of its two subjects, since
    max_alpha(X, beta) = beta * min(X.nu) with beta > 0, so the subjects
    and pairs with one least non-membership share one tuple of parameters.
    Nothing here depends on a semigroup.
    """

    def __init__(self, spec: SampleSpec | None = None):
        self.spec = spec or SampleSpec()
        self._operands: dict = {}  # IFSubset -> the stored one equal to it
        self._transforms: dict = {}  # TransformParams -> the stored one equal to it
        self._params: dict = {}  # least nu of a subject or pair -> its TransformParams
        self._magnified: dict = {}  # (id(operand), id(params)) -> (magnified, params)

    def operand(self, A: IFSubset) -> IFSubset:
        return self._operands.setdefault(A, A)

    def params(self, A: IFSubset, B: IFSubset) -> tuple[TransformParams, ...]:
        """Each sampled (beta, alpha) admissible for both subjects of a pair,
        keyed by the smaller least non-membership, picked on the views."""
        da, _, nu_a = A.view
        db, _, nu_b = B.view
        if min(nu_a) * db > min(nu_b) * da:
            da, nu_a = db, nu_b
        return self.sampled(Fraction(min(nu_a), da))

    def sampled(self, low: Fraction) -> tuple[TransformParams, ...]:
        """Each sampled (beta, alpha), in sampling order, for a least
        non-membership ``low``: a subject's variants, or a pair's."""
        found = self._params.get(low)
        if found is None:
            spec = self.spec
            found = self._params[low] = tuple(
                self._transforms.setdefault(p, p) for p in (
                    TransformParams(beta, alpha) for beta in spec.beta_grid
                    for alpha in _shifts(beta * low, spec.alpha_strategy)
                )
            )
        return found

    def magnified(self, A: IFSubset, params: TransformParams) -> IFSubset:
        """``magnify(A, params)`` as a stored operand; A must be stored."""
        key = (id(A), id(params))
        found = self._magnified.get(key)
        if found is None:
            found = self._magnified[key] = (self.operand(magnify(A, params)), params)
        return found[0]


class _TableOperands:
    """Meets and products of stored operands over one semigroup, each
    computed once through ``intersect`` and ``if_product``. The plain and
    magnified laws, the empty-meet test and every pair theorem of the table
    share them; the suite drops them once the table's reports are done.
    Meets are not interned: equal meets of two pairs are two objects."""

    def __init__(self, S: Semigroup, operands: _Operands):
        self.S = S
        self.operands = operands
        self._meets: dict = {}  # (id(X), id(Y)) -> intersect(X, Y)
        self._products: dict = {}  # (id(X), id(Y)) -> if_product(S, X, Y)

    def meet(self, X: IFSubset, Y: IFSubset) -> IFSubset:
        key = (id(X), id(Y))
        found = self._meets.get(key)
        if found is None:
            found = self._meets[key] = intersect(X, Y)
        return found

    def product(self, X: IFSubset, Y: IFSubset) -> IFSubset:
        key = (id(X), id(Y))
        found = self._products.get(key)
        if found is None:
            found = self._products[key] = if_product(self.S, X, Y)
        return found


def _semiprime_meet(ops: _TableOperands, A: IFSubset, B: IFSubset) -> bool:
    return check(K.SEMIPRIME, ops.S, ops.meet(A, B))


def _meet_inside_products(ops: _TableOperands, A: IFSubset, B: IFSubset) -> bool:
    I = ops.meet(A, B)
    return ifs_leq(I, ops.product(A, B)) and ifs_leq(I, ops.product(B, A))


def _product_is_meet(ops: _TableOperands, A: IFSubset, B: IFSubset) -> bool:
    return ifs_eq(ops.product(A, B), ops.meet(A, B))


@dataclass(frozen=True)
class _PairTheorem:
    """One pair theorem: on a semigroup with every flag in ``flags``, each
    pair of subjects passing the profile ``positions`` satisfies
    ``law(ops, A, B)``, plainly and under every sampled (beta, alpha). One
    position pairs the unordered pairs of its passers, two pair the first
    position's passers with the second's. ``plain`` and ``magnified`` are
    the certificate fields of a failure; the plain pair is not tested when
    ``plain`` is None."""

    tid: str
    flags: tuple[str, ...]
    positions: tuple[int, ...]
    law: Callable
    plain: dict | None
    magnified: dict
    skip_empty: bool = False  # pairs with an empty intersection are skipped

    def holds(self, cls: Classification) -> bool:
        return all(getattr(cls, flag) for flag in self.flags)

    def pairs(self, passers: list, operands: _Operands) -> Iterator[tuple[IFSubset, IFSubset]]:
        """The pairs of stored passers the theorem tests."""
        lists = [[operands.operand(A) for A in passers[pos]] for pos in self.positions]
        if len(lists) == 2:
            return itertools.product(*lists)
        return itertools.combinations_with_replacement(lists[0], 2)

    def failure(self, ops: _TableOperands, A: IFSubset, B: IFSubset, params_list,
                name: str) -> Certificate | None:
        """The first failure of the law on a pair of stored operands, plain,
        then magnified under each given (beta, alpha)."""
        cert = functools.partial(
            Certificate, self.tid, name, ops.S.table, A.mu, A.nu, B.mu, B.nu
        )
        if self.plain is not None and not self.law(ops, A, B):
            return cert(**self.plain)
        magnified = ops.operands.magnified
        for params in params_list:
            if not self.law(ops, magnified(A, params), magnified(B, params)):
                return cert(beta=params.beta, alpha=params.alpha, **self.magnified)
        return None


_INCLUSION_FAILURE = {"detail": "magnified intersection escapes a magnified product"}

_PAIR_THEOREMS = {th.tid: th for th in (
    _PairTheorem("semiprime_intersection", (), (_SEMIPRIME,), _semiprime_meet,
                 {"detail": "plain intersection is not semiprime"},
                 {"detail": "magnified intersection is not semiprime"}, skip_empty=True),
    _PairTheorem("product_bi_ideal", ("regular", "intra_regular"), (_BI,),
                 _meet_inside_products, None, _INCLUSION_FAILURE),
    _PairTheorem("product_one_two_ideal", ("regular", "intra_regular", "left_regular"),
                 (_ONE_TWO,), _meet_inside_products, None, _INCLUSION_FAILURE),
    _PairTheorem("regular_product", ("regular",), (_RIGHT, _LEFT), _product_is_meet,
                 {"kind": "fuzzy",
                  "detail": "product differs from intersection on a regular semigroup"},
                 {"kind": "magnified",
                  "detail": "magnified product differs from magnified intersection"}),
)}

_PAIR_KINDS = {"bi_ideal_pair": "product_bi_ideal", "one_two_pair": "product_one_two_ideal"}


def check_semiprime_intersection(
    S: Semigroup,
    A: IFSubset,
    B: IFSubset,
    spec: SampleSpec | None = None,
    label: str | None = None,
) -> VerificationReport:
    """Intersections of semiprime ideals are semiprime, before and after magnifying."""
    name = _label(S, label)
    if not (check(K.SEMIPRIME, S, A) and check(K.SEMIPRIME, S, B)):
        raise PreconditionNotMet("both subjects must be semiprime ideals")
    ops = _TableOperands(S, _Operands(spec))
    A, B = ops.operands.operand(A), ops.operands.operand(B)
    if not is_nonempty(ops.meet(A, B)):
        raise PreconditionNotMet("intersection is empty")
    th = _PAIR_THEOREMS["semiprime_intersection"]
    cert = th.failure(ops, A, B, ops.operands.params(A, B), name)
    return _report(th.tid, name, 1, 0, cert)


def check_product_inclusions(
    S: Semigroup,
    A: IFSubset,
    B: IFSubset,
    params: TransformParams,
    kind: str,
    label: str | None = None,
) -> VerificationReport:
    """Magnified intersections sit inside both magnified products.

    kind 'bi_ideal_pair' requires a regular and intra-regular semigroup and
    bi-ideal subjects; 'one_two_pair' additionally requires left regularity
    and (1,2)-ideal subjects. Containment is non-strict.
    """
    if kind not in _PAIR_KINDS:
        raise ValueError(f"unknown pair kind {kind!r}")
    th = _PAIR_THEOREMS[_PAIR_KINDS[kind]]
    if not th.holds(classify(S)):
        raise HypothesisNotMet(f"semigroup lacks the flags required for {kind}")
    (pk,) = (KIND_ORDER[pos] for pos in th.positions)
    if not (check(pk, S, A) and check(pk, S, B)):
        raise HypothesisNotMet(f"subjects are not both {pk.value}s")
    name = _label(S, label)
    ops = _TableOperands(S, _Operands())
    A, B = ops.operands.operand(A), ops.operands.operand(B)
    return _report(th.tid, name, 1, 0, th.failure(ops, A, B, (params,), name))


def _crisp_one_sided_ideals(S: Semigroup) -> tuple[list[ElementSubset], list[ElementSubset]]:
    """(right ideals, left ideals) over all non-empty subsets, in subset order."""
    subsets = [
        ElementSubset(S.order, frozenset(c))
        for k in range(1, S.order + 1)
        for c in itertools.combinations(range(S.order), k)
    ]
    rights = [A for A in subsets if is_crisp_structure("right_ideal", S, A)]
    lefts = [A for A in subsets if is_crisp_structure("left_ideal", S, A)]
    return rights, lefts


def check_regular_iff_product(
    S: Semigroup,
    spec: SampleSpec | None = None,
    label: str | None = None,
) -> VerificationReport:
    """Regularity against the product laws, at three levels.

    Level 1 (crisp): RL = R n L over every crisp right/left ideal pair
    must agree with the classify flag. Level 2: on regular semigroups the
    fuzzy product of sampled right and left ideals equals the
    intersection; on non-regular ones a characteristic-pair witness
    breaks the equality. Level 3 repeats level 2 on magnified subjects
    (the witness pins alpha to zero because its nu vanishes on the ideal).
    """
    return _one_table("regular_product", "regular", S, spec, label)


def _regular_product(state: _TaskState, ops: _TableOperands) -> VerificationReport:
    """The crisp level of the regularity/product-law theorem, then the pair
    core on the right and left ideals a sweep gated (regular) or the
    characteristic-pair witness (non-regular)."""
    S, name, regular = state.S, state.label, state.cls.regular
    tid = "regular_product"

    crisp_rights, crisp_lefts = _crisp_one_sided_ideals(S)
    crisp_pairs = len(crisp_rights) * len(crisp_lefts)
    crisp_gap = next((
        (R, L) for R in crisp_rights for L in crisp_lefts
        if multiply_subsets(S, R, L).members != R.members & L.members
    ), None)
    if crisp_gap is None:
        if regular:
            return _pairs_report(state, ops, tid, crisp_pairs)
        # flagged non-regular, yet the law holds on every crisp pair
        cert = Certificate(
            tid, name, S.table, (ONE,) * S.order, (ZERO,) * S.order,
            kind="crisp_agreement",
            detail="crisp product law disagrees with the regularity flag",
        )
        return _report(tid, name, crisp_pairs, 0, cert)
    chi_r, chi_l = (characteristic_pair(S.order, X) for X in crisp_gap)
    cert = functools.partial(
        Certificate, tid, name, S.table, chi_r.mu, chi_r.nu, chi_l.mu, chi_l.nu, kind="fuzzy"
    )
    if regular:
        # flagged regular, yet a concrete pair breaks the law
        return _report(tid, name, crisp_pairs, 0,
                       cert(kind="crisp", detail="regular semigroup with RL != R n L"))

    # non-regular: the failing crisp pair yields a characteristic-pair witness
    witnesses, bad, tested = _exhibit(
        ops, (chi_r, chi_l), lambda R, L: not _product_is_meet(ops, R, L), cert,
        {"detail": "characteristic pair of a failing crisp pair breaks the product law"},
        {"kind": "magnified",
         "detail": "magnified witness unexpectedly satisfies the product law"},
        {"detail": "characteristic witness unexpectedly satisfies the product law"},
    )
    return _report(tid, name, crisp_pairs + tested, 0, bad, witnesses)


def _exhibit(ops: _TableOperands, chis: tuple[IFSubset, ...], breaks: Callable,
             cert: Callable, witness: dict, magnified: dict, plain: dict | None = None):
    """(witnesses, counterexample, cases tested) of a converse exhibit: the
    characteristic pair(s) ``chis`` must break a law, ``breaks(*chis)``.
    They are tested plainly when ``plain`` gives the fields of that failure,
    then magnified under each (beta, alpha) the run samples for them, whose
    vanishing nu forces alpha = 0. ``cert`` completes the certificate fields;
    a failure's certificate claims ``exhibit_failed``. The witness is the
    first case tested; ``_report`` replays it."""
    store = ops.operands
    chis = tuple(store.operand(X) for X in chis)
    failed = functools.partial(cert, exhibit_failed=True)
    sampled = store.params(chis[0], chis[-1])
    if plain is not None and not breaks(*chis):
        return (), failed(**plain), 0
    tested = int(plain is not None)  # the plain case, which passed
    for params in sampled:
        tested += 1
        shift = min(max_alpha(X, params.beta) for X in chis)
        if shift != 0:
            return (), failed(beta=params.beta, alpha=shift,
                              detail=f"witness admits the non-zero shift {shift}"), tested
        if not breaks(*(store.magnified(X, params) for X in chis)):
            return (), failed(beta=params.beta, alpha=params.alpha, **magnified), tested
    first = {} if plain is not None else {"beta": sampled[0].beta, "alpha": sampled[0].alpha}
    return (cert(**first, **witness),), None, tested


# ---------------------------------------------------------------------------
# mutation probes (guard against vacuously-true equivalence runs)


# the stage whose mu inequality each property's mutation breaks
_BREAK_STAGES = {
    K.SUBSEMIGROUP: "subsemigroup",
    K.BI_IDEAL: "bi_ideal",
    K.ONE_TWO_IDEAL: "one_two_ideal",
    K.LEFT_IDEAL: "left_ideal",
    K.RIGHT_IDEAL: "right_ideal",
    K.IDEAL: "left_ideal",
    K.SEMIPRIME: "semiprime",
}


def break_property(S: Semigroup, A: IFSubset, kind: FuzzyStructureKind) -> IFSubset | None:
    """Mutate one membership grade so the property's mu-inequality fails.

    Picks the first tuple in scan order (whose site is never among its
    argument points) with a positive required minimum, then lowers the
    membership at the site to at most half that minimum. Returns None when
    no such tuple exists for this subject.
    """
    mu = A.mu
    for p, *args in predicates._scan_index(S)[_BREAK_STAGES[kind]]:
        required = min(mu[a] for a in args)
        if required > 0:
            new_mu = list(mu)
            new_mu[p] = min(mu[p], required / 2)
            return IFSubset(A.carrier_order, tuple(new_mu), A.nu)
    return None


# ---------------------------------------------------------------------------
# the suite runner


@dataclass
class _TaskState:
    """Accumulators for one semigroup across the shared subject sweep.

    Report assembly reads the certificates, the passers and the tally, which
    ``_sweep`` fills in once the carrier order's stream ends: the number of
    swept subjects per profile flag tuple. A subject's profile is its
    pattern's, so the tally has one entry per distinct profile among the
    order's patterns, and a count of the subjects passing some positions
    sums over those few entries."""

    label: str
    S: Semigroup
    cls: Classification
    certs: dict = field(default_factory=dict)  # tid -> first Certificate
    verdicts: list = field(default_factory=list)  # pattern id -> verdict on this semigroup
    tally: dict = field(default_factory=dict)  # profile flags -> swept subjects with them
    # profile position -> the first subjects passing it, capped, for the pair theorems
    passers: list = field(default_factory=lambda: [[] for _ in KIND_ORDER])

    @property
    def subjects(self) -> int:
        return sum(self.tally.values())

    def held(self, *positions: int) -> int:
        """Swept subjects passing any of the given profile positions."""
        return sum(c for flags, c in self.tally.items() if any(flags[p] for p in positions))


def _normalize_theorems(theorems) -> tuple[str, ...]:
    if theorems is None:
        return THEOREM_IDS
    requested = [theorems] if isinstance(theorems, str) else list(theorems)
    bad = [t for t in requested if t not in THEOREM_IDS]
    if bad:
        raise ValueError(
            f"unknown theorem id(s) {bad}; valid ids: {', '.join(THEOREM_IDS)}"
        )
    return tuple(t for t in THEOREM_IDS if t in requested)


def _suite_tasks(orders, include_library) -> list[tuple[str, Semigroup]]:
    tasks: list[tuple[str, Semigroup]] = []
    for n in sorted(set(orders)):
        for i, S in enumerate(enumerate_semigroups(n)):
            tasks.append((f"order{n}/{i:03d}", S))
    if include_library:
        for entry in builtin_library():
            tasks.append((f"lib:{entry.name}", entry.semigroup))
    return tasks


def _weak_order(values) -> tuple[int, ...]:
    """Each value's rank among the distinct values."""
    return tuple(map(sorted(set(values)).index, values))


def _verdict(idx: dict, mu, nu) -> tuple:
    """Everything the sweep asks of one grade view on one semigroup:
    (profile flags, first x whose grades differ from those of x*x, whether
    both maps are constant, first x breaking a semiprime square inequality),
    with None where there is no such x."""
    squares = idx["semiprime"]  # (x, x*x) for each x that is not idempotent
    fixed = next((x for x, x2 in squares if mu[x] != mu[x2] or nu[x] != nu[x2]), None)
    hit = predicates._scan1(squares, mu, nu)
    return (
        predicates._profile_from(idx, mu, nu),
        fixed,
        len(set(mu)) <= 1 and len(set(nu)) <= 1,
        None if hit is None else hit[0][0],
    )


class _Patterns:
    """Dense ids for the weak-order patterns of one carrier order's views.

    A view's pattern is the weak order of its mu and of its nu. The scans
    compare mu only with mu and nu only with nu, so views sharing a pattern
    share their verdict on every semigroup; each pattern keeps the first
    view seen with it to compute that verdict from, and the number of swept
    subjects with it, which every semigroup of the order shares. Verdicts
    are interned here so that the semigroups of one order share the few
    distinct ones. ``reached`` holds the (pattern, variant pattern) pairs
    that some subject's walk already steps on (see ``_prepare``).
    """

    def __init__(self):
        self._ids: dict = {}
        self.views: list = []
        self.counts: list = []  # pattern id -> subjects prepared with it
        self.reached: set = set()
        self._verdicts: dict = {}

    def pattern(self, mu, nu) -> int:
        key = (_weak_order(mu), _weak_order(nu))
        pid = self._ids.get(key)
        if pid is None:
            pid = self._ids[key] = len(self.views)
            self.views.append((mu, nu))
            self.counts.append(0)
        return pid

    def verdict(self, idx: dict, pid: int) -> tuple:
        v = _verdict(idx, *self.views[pid])
        return self._verdicts.setdefault(v, v)


def _prepare(A: IFSubset, patterns: _Patterns, operands: _Operands, need_variants: bool):
    """The record (subject, pattern id, walk) that every semigroup of the
    subject's carrier order sweeps, with the subject counted under its
    pattern for all of them. When ``need_variants``, A is magnified under
    each (beta, alpha) that ``operands`` samples for its least
    non-membership, in sampling order, and the walk lists (beta, alpha,
    variant pattern id) of each variant whose (pattern, variant pattern)
    pair no earlier walk step reached. Every semigroup meets the subjects
    in the same order, so the walks are the same for all of them."""
    pid = patterns.pattern(*A.view[1:])
    patterns.counts[pid] += 1
    walk = []
    if need_variants:
        den, _, nu = A.view
        for params in operands.sampled(Fraction(min(nu), den)):
            step = (pid, patterns.pattern(*magnify(A, params).view[1:]))
            if step not in patterns.reached:
                patterns.reached.add(step)
                walk.append((params.beta, params.alpha, step[1]))
    return A, pid, walk


def _sweep_chunk(state: _TaskState, chunk, tids, spec: SampleSpec,
                 patterns: _Patterns) -> None:
    """Process a block of prepared subjects against one semigroup.

    The semigroup first decides every pattern that is new since its last
    block. Each position the pair theorems still need passers for then
    takes the block's first subjects passing it, up to the cap. Only the
    records' walks run, on the subjects that have one: a pair an earlier
    walk reached meets the same verdicts, so it cannot record a
    certificate the earlier one did not. Each step tests the
    theorems whose hypothesis the semigroup has and whose precondition the
    subject passes.
    """
    S, cls, T = state.S, state.cls, state.S.table
    idx = predicates._scan_index(S)
    cap = spec.max_pair_subjects
    active = [
        th for tid in tids
        if (th := _THEOREMS.get(tid)) is not None
        and (th.hypothesis is None or getattr(cls, th.hypothesis))
    ]
    passers = state.passers
    filling = {
        pos for tid in tids
        if (pair := _PAIR_THEOREMS.get(tid)) is not None and pair.holds(cls)
        for pos in pair.positions if len(passers[pos]) < cap
    }
    verdicts, certs = state.verdicts, state.certs
    verdicts.extend([patterns.verdict(idx, pid)
                     for pid in range(len(verdicts), len(patterns.views))])

    for pos in filling:
        passers[pos].extend(itertools.islice(
            (A for A, pid, _ in chunk if verdicts[pid][0][pos]), cap - len(passers[pos])
        ))

    for A, pid, walk in filter(itemgetter(2), chunk):
        v = verdicts[pid]
        for beta, alpha, vid in walk:
            w = verdicts[vid]
            for th in active:
                if th.tid in certs or (
                    th.precondition is not None and not v[0][th.precondition]
                ):
                    continue
                cert = th.failure(state.label, T, A, beta, alpha, v, w)
                if cert is not None:
                    certs[th.tid] = cert


def _sweep(group: list[_TaskState], subjects, tids, spec: SampleSpec,
           operands: _Operands) -> None:
    """Sweep a stream of subjects of one carrier order past its semigroups,
    then give each its tally; magnified variants are built only for the
    single-subject theorems, with parameters from the run's ``operands``."""
    patterns = _Patterns()
    need_variants = any(tid in _THEOREMS for tid in tids)
    subjects = iter(subjects)
    while block := list(itertools.islice(subjects, _SUBJECT_CHUNK)):
        chunk = [_prepare(A, patterns, operands, need_variants) for A in block]
        for st in group:
            _sweep_chunk(st, chunk, tids, spec, patterns)
    for st in group:
        for count, v in zip(patterns.counts, st.verdicts):
            st.tally[v[0]] = st.tally.get(v[0], 0) + count


def _theorem_report(th: _Theorem, state: _TaskState, ops: _TableOperands) -> VerificationReport:
    """A single-subject theorem's report from one table's sweep, or its converse exhibit."""
    label, n = state.label, state.subjects
    if th.hypothesis is not None and not getattr(state.cls, th.hypothesis):
        if th.hypothesis not in _CHAR_RELEVANT:
            return _report(th.tid, label, 0, n)
        witnesses, bad, _ = _converse_witness(th.hypothesis, ops, label)
        return _report(th.tid, label, 1, 0, bad, witnesses)
    held = n if th.precondition is None else state.held(th.precondition)
    return _report(th.tid, label, held, n - held, state.certs.get(th.tid))


def _finish_task(state: _TaskState, tids, ops: _TableOperands) -> list[VerificationReport]:
    """Report assembly: the swept theorems, then the pair theorems on the
    passers, sharing one table's meets and products."""
    reports: list[VerificationReport] = []
    for tid in tids:
        if tid in _THEOREMS:
            reports.append(_theorem_report(_THEOREMS[tid], state, ops))
        elif tid == "regular_product":
            reports.append(_regular_product(state, ops))
        else:
            reports.append(_pairs_report(state, ops, tid))
    return reports


def _pairs_report(state: _TaskState, ops: _TableOperands, tid: str,
                  checked: int = 0) -> VerificationReport:
    """A pair theorem's core over the pairs of the capped passers the sweep
    gated for it, counted on top of ``checked``."""
    th, label, operands = _PAIR_THEOREMS[tid], state.label, ops.operands
    if not th.holds(state.cls):
        return _report(tid, label, 0, state.subjects)
    skipped = state.subjects - state.held(*th.positions)
    for A, B in th.pairs(state.passers, operands):
        if th.skip_empty and not is_nonempty(ops.meet(A, B)):
            skipped += 1
            continue
        checked += 1
        cert = th.failure(ops, A, B, operands.params(A, B), label)
        if cert is not None:
            return _report(tid, label, checked, skipped, cert)
    return _report(tid, label, checked, skipped)


def run_suite(
    orders: Sequence[int],
    spec: SampleSpec | None = None,
    theorems=None,
    include_library: bool = True,
) -> list[VerificationReport]:
    """Check the selected theorems over every enumerated semigroup of the
    given orders plus the curated library, against the sampled subjects.

    Reports come out sorted by (semigroup position, theorem id position)
    and are a pure function of the arguments. A carrier order with more
    than ``MAX_SUBJECTS_PER_ORDER`` subjects is refused before any sweep.
    """
    spec = spec or SampleSpec()
    tids = _normalize_theorems(theorems)
    tasks = _suite_tasks(orders, include_library)
    for n in sorted({S.order for _, S in tasks}):
        _refuse_costly(n, spec)
    states = [_TaskState(label, S, classify(S)) for label, S in tasks]

    by_order: dict[int, list[_TaskState]] = {}
    for st in states:
        by_order.setdefault(st.S.order, []).append(st)

    operands = _Operands(spec)
    for n, group in sorted(by_order.items()):
        _sweep(group, sample_ifs(n, spec), tids, spec, operands)

    reports: list[VerificationReport] = []
    for st in states:
        reports.extend(_finish_task(st, tids, _TableOperands(st.S, operands)))
    return reports
