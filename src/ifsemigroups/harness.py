"""Exhaustive desk-scale verification of the transform theorems.

Every theorem is checked over enumerated semigroups (orders 1..3), the
curated library, grid-sampled fuzzy subjects, and a small grid of
transform parameters. A check either verifies (with exhaustion counters)
or produces a certificate that replays to a concrete violation through
the public predicate and transform APIs. The converse exhibits of the
characterizations and of the product law are their entries' ``converse``
and share one helper: a witness that breaks its law, plainly and
magnified, is attached to the verified report; one that does not is a
counterexample claiming ``exhibit_failed``, a certificate field that
``--machine`` does not print.

Each theorem is one entry of ``_ENTRIES``, in report order: a
single-subject ``_Theorem``, tested on a subject and one magnified variant,
or a ``_PairTheorem``, whose law is tested on pairs of subjects, plainly and
magnified. The suite and the public checks run the same entry, and read its
gates from it: where the semigroup lacks the entry's flags (``_holds``) or a
subject fails its profile position, the suite tallies a skip and the public
check raises by what failed, ``HypothesisNotMet`` for the semigroup and
``PreconditionNotMet`` for a subject.

Reports are a pure function of the arguments, and every certificate and
witness replays before it is reported. The suite shares work but never
changes what is evaluated: every stored value comes from this module's
``magnify``, ``intersect``, ``if_product`` and ``check``, looked up at call
time, so a patched layer still sees every call that is made.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from typing import Callable, ClassVar, Iterator, Sequence

from .composition import if_product
from .errors import HypothesisNotMet, PreconditionNotMet
from .ifs import (
    IFSubset,
    ONE,
    ZERO,
    _exact,
    _trusted,
    characteristic_pair,
    ifs_eq,
    ifs_leq,
    intersect,
    is_constant,
    is_nonempty,
)
from .predicates import (KIND_ORDER, FuzzyStructureKind, _Patterns, _require_subject, _verdict,
                         check)
from .semigroups import (
    Classification,
    ElementSubset,
    Semigroup,
    _size,
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

# positions of the profile flags the theorems read, in KIND_ORDER
_BI, _ONE_TWO, _LEFT, _RIGHT, _SEMIPRIME = (
    KIND_ORDER.index(kind)
    for kind in (K.BI_IDEAL, K.ONE_TWO_IDEAL, K.LEFT_IDEAL, K.RIGHT_IDEAL, K.SEMIPRIME)
)

_SUBJECT_CHUNK = 512


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic sampling plan for subjects and transform parameters.
    Every subject is magnified at each beta of ``beta_grid`` and at the
    shifts of ``alpha_samples``, the one ``alpha_strategy``: both constants."""

    beta_grid: ClassVar[tuple[Fraction, ...]] = (
        Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), ONE)
    alpha_strategy: ClassVar[str] = "grid"

    grade_grid_step: Fraction = Fraction(1, 4)
    random_count: int = 0
    seed: int = 0
    max_pair_subjects: int = 16

    def __post_init__(self):
        object.__setattr__(self, "grade_grid_step", Fraction(1, _grid_k(self.grade_grid_step)))
        for name in ("random_count", "max_pair_subjects", "seed"):
            if type(getattr(self, name)) is not int:  # a bool is refused too
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.random_count < 0:
            raise ValueError("random_count must be non-negative")
        if self.max_pair_subjects < 1:
            raise ValueError("max_pair_subjects must be positive")


# the most subjects a sweep takes from one carrier order: 20 times the
# default spec's largest order (order 4 at the 1/4 grid, 50 000 subjects)
MAX_SUBJECTS_PER_ORDER = 10**6


def _grid_k(step) -> int:
    """k for a grid step of 1/k; any other step, or one that is not exact, is refused."""
    step = Fraction(_exact(step, "grid step"))
    if not 0 < step <= 1 or step.numerator != 1:
        raise ValueError(f"grid step {step} must divide 1 exactly")
    return step.denominator


def _grid(k: int) -> tuple[tuple[int, int], ...]:
    """The numerators (i, j) of the grid points (i/k, j/k), for a step of 1/k."""
    return tuple((i, j) for i in range(k + 1) for j in range(k + 1 - i))


def subject_count(carrier_order: int, spec: SampleSpec) -> int:
    """How many subjects ``sample_ifs`` yields: a 1/k grid has (k+1)(k+2)/2
    (mu, nu) pairs and k+1 values of nu, and all-zero memberships are skipped."""
    k = _grid_k(spec.grade_grid_step)
    return ((k + 1) * (k + 2) // 2) ** carrier_order - (k + 1) ** carrier_order + spec.random_count


def _refuse_costly(carrier_order: int, spec: SampleSpec) -> int:
    """The order's ``subject_count``; raise when a sweep of it would take more
    than ``MAX_SUBJECTS_PER_ORDER`` subjects, without building any of them."""
    count = subject_count(carrier_order, spec)
    if count > MAX_SUBJECTS_PER_ORDER:
        raise ValueError(f"order {carrier_order} has more than {MAX_SUBJECTS_PER_ORDER} "
                         "sampled subjects; use a coarser grid step or fewer random subjects")
    return count


def _random_subject(n: int, rng: random.Random) -> IFSubset:
    """A seeded random subject with mu = a/d and nu = (b/e)(1 - mu) at each
    point (d, e in 1..12, a in 0..d, b in 0..e), drawn until some mu is
    positive. It carries the view those Fractions give, over their least
    common denominator, and is valid by construction: 0 <= nu <= 1 - mu."""
    while True:
        points = []
        for _ in range(n):
            d = rng.randint(1, 12)
            a = rng.randint(0, d)
            e = rng.randint(1, 12)
            points.append((a, d, rng.randint(0, e), e))
        if any(a for a, *_ in points):
            # a*e/(d*e) and b*(d-a)/(d*e) over the lcm of the d*e, then over the
            # least common denominator (key)
            den = math.lcm(*[d * e for _, d, _, e in points])
            mu = tuple([a * (den // d) for a, d, _, _ in points])
            nu = tuple([b * (d - a) * (den // (d * e)) for a, d, b, e in points])
            return _trusted(n, view=_trusted(n, view=(den, mu, nu)).key)


def sample_ifs(carrier_order: int, spec: SampleSpec) -> Iterator[IFSubset]:
    """Deterministic subject stream: full grid first, then seeded randoms.

    Subjects with identically zero membership are skipped (they fail the
    non-emptiness precondition of every predicate). A grid or random
    subject carries only its integer view and makes its Fractions on first
    read. An order with more than ``MAX_SUBJECTS_PER_ORDER`` subjects is
    refused before the grid is built.
    """
    _size(carrier_order, "carrier order")
    _refuse_costly(carrier_order, spec)
    k = _grid_k(spec.grade_grid_step)
    for combo in itertools.product(_grid(k), repeat=carrier_order):
        mu = tuple([p[0] for p in combo])
        if not any(mu):
            continue
        # grid pairs have i + j <= k
        yield _trusted(carrier_order, view=(k, mu, tuple([p[1] for p in combo])))
    rng = random.Random(spec.seed)
    for _ in range(spec.random_count):
        yield _random_subject(carrier_order, rng)


def _shifts(bound: Fraction) -> tuple[Fraction, ...]:
    """The sampled shifts in [0, bound]: zero, midpoint and boundary, or zero
    alone when the bound is zero."""
    return (ZERO,) if bound == 0 else (ZERO, bound / 2, bound)


def alpha_samples(A: IFSubset, beta: Fraction, strategy: str = "grid") -> tuple[Fraction, ...]:
    """Shifts sampled for a subject at a given scaling: ``_shifts`` of its
    ``max_alpha``. ``strategy`` must be ``SampleSpec.alpha_strategy``."""
    if strategy != SampleSpec.alpha_strategy:
        raise ValueError(f"alpha strategy {strategy!r} not in ('grid',)")
    return _shifts(max_alpha(A, beta))


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


# the theorems whose certificates claim only a magnified failure
_MAGNIFIED_CLAIMS = {*EQUIV_THEOREMS, "group_constant", "fixedpoint", "archimedean_constant",
                     "product_bi_ideal", "product_one_two_ideal"}


def replay_certificate(cert: Certificate) -> bool:
    """Recompute a certificate's claim through the public APIs.

    True iff the recorded violation is reproduced exactly: for
    counterexample certificates that means the theorem really fails on the
    recorded data; for converse witnesses it means the exhibited failure
    is genuine; for a failed exhibit (``exhibit_failed``), that it fails.

    It checks each subject's precondition (a semiprime, relevant, bi-,
    (1,2)-, right or left ideal, as the theorem asks) and no flag of the
    table, except the archimedean flag that ``archimedean_constant``'s
    claim needs. So a converse witness, which lives on a table without the
    flags, replays through the branch of a counterexample: the
    ``regular_product`` witnesses, and any later ones of ``group_constant``
    or the product theorems. A certificate that lacks a field its branch
    reads (a beta where only a magnified failure is claimed, the second
    subject of a pair theorem, a char_* kind or point) replays False; bad
    data in the fields it has (its table, either subject) raises.
    """
    n = len(cert.table)
    S = Semigroup(n, cert.table)
    A = IFSubset(n, cert.mu_a, cert.nu_a)
    B = None if cert.mu_b is None or cert.nu_b is None else IFSubset(n, cert.mu_b, cert.nu_b)
    params = (
        TransformParams(cert.beta, cert.alpha) if cert.beta is not None else None
    )
    tid = cert.theorem_id
    if (params is None and (tid in _MAGNIFIED_CLAIMS or cert.exhibit_failed and cert.alpha)
            or B is None and isinstance(_ENTRY.get(tid), _PairTheorem)
            and cert.kind != "crisp_agreement"
            or tid.startswith("char_") and (cert.kind is None or not cert.points)):
        return False
    if cert.exhibit_failed and cert.alpha:
        chis = (A,) if B is None else (A, B)
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
        kind = K.BI_IDEAL if tid == "product_bi_ideal" else K.ONE_TWO_IDEAL
        if not (check(kind, S, A) and check(kind, S, B)):
            return False
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
        if not (check(K.RIGHT_IDEAL, S, A) and check(K.LEFT_IDEAL, S, B)):
            return False
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
# the single-subject theorems and the gates of the public checks


@dataclass(frozen=True)
class _Theorem:
    """One single-subject theorem. ``test(table, v, w)`` maps the verdicts
    (see ``_verdict``) of a subject and of one magnified variant to the
    certificate fields of a failure, or None."""

    tid: str
    test: Callable
    flags: tuple[str, ...] = ()  # the Classification flags the semigroup needs
    positions: tuple[int, ...] = ()  # the profile position, if any, the subject must pass
    converse: Callable | None = None  # see _finish_task

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


def _holds(th: _Theorem | _PairTheorem, cls: Classification) -> bool:
    """Whether a semigroup classified ``cls`` meets the entry's hypothesis:
    the one rule of a table's plan and of ``_gate``."""
    return all(getattr(cls, f) for f in th.flags)


def _gate(th: _Theorem | _PairTheorem, S: Semigroup, *subjects: IFSubset) -> None:
    """Raise where the suite would tally a skip, by what failed:
    ``HypothesisNotMet`` when the semigroup lacks the entry's flags,
    ``PreconditionNotMet`` when a subject fails its profile position (a
    pair's first subject the first position, its second the last)."""
    if not _holds(th, classify(S)):
        raise HypothesisNotMet(f"semigroup does not meet the hypothesis of {th.tid}")
    for X in subjects:
        _require_subject(S, X)
    for X, pos in zip(subjects, th.positions * 2):
        if not check(KIND_ORDER[pos], S, X):
            raise PreconditionNotMet(
                f"subject fails the {KIND_ORDER[pos].value} precondition of {th.tid}")


def _check_single(tid: str, S: Semigroup, A: IFSubset, params: TransformParams,
                  label: str | None) -> VerificationReport:
    """Gate, then test: the suite's step on one subject and one variant."""
    th = _ENTRY[tid]
    _gate(th, S, A)
    v, w = (_verdict(S, *X.view[1:]) for X in (A, magnify(A, params)))
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
    if not isinstance(kind, FuzzyStructureKind):
        raise ValueError(f"unknown kind {kind!r}")
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


def _characterization(kind: str, relevant: FuzzyStructureKind,
                      principal: Callable) -> _Theorem:
    """The entry of the characterization of the regularity flag ``kind`` by
    its ``relevant`` ideals. Its test: no magnified relevant ideal breaks a
    semiprime inequality. Its converse, on a table without the flag: the
    characteristic pair of the ``principal`` ideal of m*m (m the gap
    element) must be a relevant ideal whose magnified translation violates a
    semiprime inequality at m. The exhibit reports one subject."""
    tid = f"char_{kind}"

    def test(T, v, w):
        x = w[3]
        return None if x is None else {
            "kind": relevant.value, "points": (x,),
            "detail": "magnified relevant ideal breaks a semiprime inequality"}

    def converse(state: _TaskState, ops: _TableOperands):
        if tid in state.held:
            return 0, None
        S, name = state.S, state.label
        m = regularity_gap(S, kind)  # not None: classify's flag is "no gap"
        m2 = S.table[m][m]
        W = characteristic_pair(S.order, principal(S, m2))
        cert = functools.partial(Certificate, tid, name, S.table, W.mu, W.nu,
                                 kind=relevant.value, points=(m,))
        if not check(relevant, S, W):
            return 1, _report(tid, name, 1, 0, cert(exhibit_failed=True, detail="principal-ideal "
                                                    "witness fails the relevant ideal predicate"))

        def breaks(X):
            _, mu, nu = X.view  # one denominator: the ints compare as the grades
            return mu[m] < mu[m2] or nu[m] > nu[m2]

        witnesses, bad, _ = _exhibit(
            ops.operands, (W,), breaks, cert,
            {"detail": f"characteristic pair of the principal ideal of {m2} is a "
                       f"{relevant.value} whose magnified translation breaks "
                       f"semiprimeness at {m}"},
            {"detail": "witness fails to violate the semiprime inequalities"},
        )
        return 1, _report(tid, name, 1, 0, bad, witnesses)
    return _Theorem(tid, test, (kind,), (KIND_ORDER.index(relevant),), converse=converse)


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
    if f"char_{kind}" not in _ENTRY:
        raise ValueError(f"unknown characterization kind {kind!r}")
    return _run([(_label(S, label), S)], spec, (f"char_{kind}",))[0]


# ---------------------------------------------------------------------------
# the pair theorems, then the one table of every theorem


class _Operands:
    """The sampled parameters and magnified operands of one run, shared by
    the sweep, every table and every pair theorem.

    A subject's sampled parameters depend only on its least
    non-membership, and a pair's on the smaller least non-membership of its
    two subjects, since max_alpha(X, beta) = beta * min(X.nu) with
    beta > 0, so the subjects and pairs with one least non-membership share
    one tuple of parameters. Each operand's variants under that tuple are
    built once, through ``magnify``, and kept as one tuple keyed by the
    operand's value (``IFSubset.key``), so equal subjects (a subject and its
    magnification by (1, 0), say) share them. Parameter tuples are keyed by
    identity, which spares hashing their ``Fraction``s at each lookup:
    ``_params`` holds each tuple the run samples, and a public check the one
    it passes for the length of the call, so no identity key outlives its
    object. Nothing here depends on a semigroup.
    """

    def __init__(self, spec: SampleSpec | None = None):
        self.spec = spec or SampleSpec()
        self._params: dict = {}  # (least nu numerator, den) -> its TransformParams
        self._variants: dict = {}  # (operand key, id(params tuple)) -> its magnified operands

    def params(self, A: IFSubset, B: IFSubset) -> tuple[TransformParams, ...]:
        """Each sampled (beta, alpha) admissible for both subjects of a pair,
        keyed by the smaller least non-membership, picked on the views."""
        da, _, nu_a = A.view
        db, _, nu_b = B.view
        low_a, low_b = min(nu_a), min(nu_b)
        if low_a * db > low_b * da:
            return self.sampled(low_b, db)
        return self.sampled(low_a, da)

    def sampled(self, low: int, den: int) -> tuple[TransformParams, ...]:
        """Each sampled (beta, alpha), in sampling order, for a least
        non-membership ``low / den``: a subject's variants, or a pair's.
        Keyed by the view's raw ints, so ``Fraction``s are made only on a
        miss, each beta's bound beta * low / den in one step; equal values
        under two keys get equal tuples."""
        found = self._params.get((low, den))
        if found is None:
            found = self._params[low, den] = tuple(
                TransformParams(beta, alpha) for beta in SampleSpec.beta_grid
                for alpha in _shifts(Fraction(beta.numerator * low, beta.denominator * den))
            )
        return found

    def variants(self, A: IFSubset, params_list) -> tuple[IFSubset, ...]:
        """``magnify(A, params)`` for each params of a tuple ``_params`` holds,
        in its order, built once per operand value."""
        key = (A.key, id(params_list))
        found = self._variants.get(key)
        if found is None:
            found = self._variants[key] = tuple([magnify(A, p) for p in params_list])
        return found


class _TableOperands:
    """The pair-law verdicts of operands over one semigroup, each decided
    once. Every pair theorem of the table shares them (the two product
    theorems share a law); the suite drops them once the table's reports
    are done."""

    def __init__(self, S: Semigroup, operands: _Operands):
        self.S = S
        self.operands = operands
        self._verdicts: dict = {}  # (law, X.key, Y.key) -> law(S, X, Y)

    def holds(self, law: Callable, X: IFSubset, Y: IFSubset) -> bool:
        key = (law, X.key, Y.key)
        found = self._verdicts.get(key)
        if found is None:
            found = self._verdicts[key] = law(self.S, X, Y)
        return found


def _semiprime_meet(S: Semigroup, A: IFSubset, B: IFSubset) -> bool:
    return check(K.SEMIPRIME, S, intersect(A, B))


def _meet_inside_products(S: Semigroup, A: IFSubset, B: IFSubset) -> bool:
    I = intersect(A, B)
    return ifs_leq(I, if_product(S, A, B)) and ifs_leq(I, if_product(S, B, A))


def _product_is_meet(S: Semigroup, A: IFSubset, B: IFSubset) -> bool:
    return ifs_eq(if_product(S, A, B), intersect(A, B))


@dataclass(frozen=True)
class _PairTheorem:
    """One pair theorem: on a semigroup with every flag in ``flags``, each
    pair of subjects passing the profile ``positions`` satisfies
    ``law(S, A, B)``, plainly and under every sampled (beta, alpha). One
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
    converse: Callable | None = None  # see _finish_task

    def pairs(self, passers: list) -> Iterator[tuple[IFSubset, IFSubset]]:
        """The pairs of passers the theorem tests."""
        lists = [passers[pos] for pos in self.positions]
        if len(lists) == 2:
            return itertools.product(*lists)
        return itertools.combinations_with_replacement(lists[0], 2)

    def failure(self, ops: _TableOperands, A: IFSubset, B: IFSubset, params_list,
                name: str) -> Certificate | None:
        """The first failure of the law on a pair of operands, plain, then
        magnified under each given (beta, alpha), with every verdict read
        through the table's store. Only a failure reads the pair's grades."""
        def cert(**fields):
            return Certificate(self.tid, name, ops.S.table, A.mu, A.nu, B.mu, B.nu, **fields)
        holds, law = ops.holds, self.law
        if self.plain is not None and not holds(law, A, B):
            return cert(**self.plain)
        variants = ops.operands.variants
        for params, X, Y in zip(params_list, variants(A, params_list),
                                variants(B, params_list)):
            if not holds(law, X, Y):
                return cert(beta=params.beta, alpha=params.alpha, **self.magnified)
        return None


def _regular_converse(state: _TaskState, ops: _TableOperands):
    """The crisp level of the regularity/product-law theorem: the law on
    every crisp right/left ideal pair must agree with the flag, and on a
    non-regular table the characteristic pair of a failing crisp pair is
    the witness. A regular table with no crisp gap is left to the pair
    core, which counts its pairs on top of the crisp ones."""
    S, name, tid = state.S, state.label, "regular_product"

    crisp_rights, crisp_lefts = _crisp_one_sided_ideals(S)
    crisp_pairs = len(crisp_rights) * len(crisp_lefts)
    crisp_gap = next((
        (R, L) for R in crisp_rights for L in crisp_lefts
        if multiply_subsets(S, R, L).members != R.members & L.members
    ), None)
    if crisp_gap is None:
        if tid in state.held:
            return crisp_pairs, None
        # flagged non-regular, yet the law holds on every crisp pair
        cert = Certificate(tid, name, S.table, (ONE,) * S.order, (ZERO,) * S.order,
                           kind="crisp_agreement",
                           detail="crisp product law disagrees with the regularity flag")
        return crisp_pairs, _report(tid, name, crisp_pairs, 0, cert)
    chi_r, chi_l = (characteristic_pair(S.order, X) for X in crisp_gap)
    cert = functools.partial(
        Certificate, tid, name, S.table, chi_r.mu, chi_r.nu, chi_l.mu, chi_l.nu, kind="fuzzy"
    )
    if tid in state.held:
        # flagged regular, yet a concrete pair breaks the law
        return crisp_pairs, _report(tid, name, crisp_pairs, 0, cert(
            kind="crisp", detail="regular semigroup with RL != R n L"))

    # non-regular: the failing crisp pair yields a characteristic-pair witness
    witnesses, bad, tested = _exhibit(
        ops.operands, (chi_r, chi_l), lambda R, L: not _product_is_meet(S, R, L), cert,
        {"detail": "characteristic pair of a failing crisp pair breaks the product law"},
        {"kind": "magnified",
         "detail": "magnified witness unexpectedly satisfies the product law"},
        {"detail": "characteristic witness unexpectedly satisfies the product law"},
    )
    checked = crisp_pairs + tested
    return checked, _report(tid, name, checked, 0, bad, witnesses)


_INCLUSION_FAILURE = {"detail": "magnified intersection escapes a magnified product"}

# every theorem, in report order
_ENTRIES = (
    *(_Theorem(tid, _equiv_test(pos, kind.value))
      for pos, (tid, kind) in enumerate(EQUIV_THEOREMS.items())),
    _Theorem("group_constant", _group_constant_test, ("is_group",)),
    _PairTheorem("semiprime_intersection", (), (_SEMIPRIME,), _semiprime_meet,
                 {"detail": "plain intersection is not semiprime"},
                 {"detail": "magnified intersection is not semiprime"}),
    _Theorem("fixedpoint", _fixedpoint_test, positions=(_SEMIPRIME,)),
    _characterization("intra_regular", K.IDEAL, principal_two_sided_ideal),
    _characterization("left_regular", K.LEFT_IDEAL, principal_left_ideal),
    _characterization("right_regular", K.RIGHT_IDEAL, principal_right_ideal),
    _Theorem("archimedean_constant", _archimedean_constant_test, ("archimedean",), (_SEMIPRIME,)),
    _PairTheorem("product_bi_ideal", ("regular", "intra_regular"), (_BI,),
                 _meet_inside_products, None, _INCLUSION_FAILURE),
    _PairTheorem("product_one_two_ideal", ("regular", "intra_regular", "left_regular"),
                 (_ONE_TWO,), _meet_inside_products, None, _INCLUSION_FAILURE),
    _PairTheorem("regular_product", ("regular",), (_RIGHT, _LEFT), _product_is_meet,
                 {"kind": "fuzzy",
                  "detail": "product differs from intersection on a regular semigroup"},
                 {"kind": "magnified",
                  "detail": "magnified product differs from magnified intersection"},
                 converse=_regular_converse),
)
THEOREM_IDS = tuple(th.tid for th in _ENTRIES)
_ENTRY = {th.tid: th for th in _ENTRIES}

_PAIR_KINDS = {"bi_ideal_pair": "product_bi_ideal", "one_two_pair": "product_one_two_ideal"}


def _check_pair(tid: str, S: Semigroup, A: IFSubset, B: IFSubset, label: str | None,
                spec: SampleSpec | None = None,
                params: TransformParams | None = None) -> VerificationReport:
    """Gate, then the pair core on (A, B): magnified under ``params``, or
    under each (beta, alpha) that ``spec`` samples for the pair."""
    th = _ENTRY[tid]
    _gate(th, S, A, B)
    name = _label(S, label)
    ops = _TableOperands(S, _Operands(spec))
    params_list = ops.operands.params(A, B) if params is None else (params,)
    return _report(tid, name, 1, 0, th.failure(ops, A, B, params_list, name))


def check_semiprime_intersection(
    S: Semigroup,
    A: IFSubset,
    B: IFSubset,
    spec: SampleSpec | None = None,
    label: str | None = None,
) -> VerificationReport:
    """Intersections of semiprime ideals are semiprime, before and after magnifying."""
    return _check_pair("semiprime_intersection", S, A, B, label, spec)


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
    if not isinstance(kind, str) or kind not in _PAIR_KINDS:
        raise ValueError(f"unknown pair kind {kind!r}")
    return _check_pair(_PAIR_KINDS[kind], S, A, B, label, params=params)


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
    return _run([(_label(S, label), S)], spec, ("regular_product",))[0]


def _exhibit(operands: _Operands, chis: tuple[IFSubset, ...], breaks: Callable,
             cert: Callable, witness: dict, magnified: dict, plain: dict | None = None):
    """(witnesses, counterexample, cases tested) of a converse exhibit: the
    characteristic pair(s) ``chis`` must break a law, ``breaks(*chis)``.
    They are tested plainly when ``plain`` gives the fields of that failure,
    then magnified under each (beta, alpha) the run samples for them, whose
    vanishing nu forces alpha = 0, taken from their variant tuples in
    ``operands``. ``cert`` completes the certificate fields; a failure's
    certificate claims ``exhibit_failed``. The witness is the first case
    tested; ``_report`` replays it."""
    failed = functools.partial(cert, exhibit_failed=True)
    sampled = operands.params(chis[0], chis[-1])
    if plain is not None and not breaks(*chis):
        return (), failed(**plain), 0
    tested = int(plain is not None)  # the plain case, which passed
    for params, *variants in zip(sampled, *(operands.variants(X, sampled) for X in chis)):
        tested += 1
        shift = min(max_alpha(X, params.beta) for X in chis)
        if shift != 0:
            return (), failed(beta=params.beta, alpha=shift,
                              detail=f"witness admits the non-zero shift {shift}"), tested
        if not breaks(*variants):
            return (), failed(beta=params.beta, alpha=params.alpha, **magnified), tested
    first = {} if plain is not None else {"beta": sampled[0].beta, "alpha": sampled[0].alpha}
    return (cert(**first, **witness),), None, tested


# ---------------------------------------------------------------------------
# the suite runner


@dataclass
class _TaskState:
    """One semigroup's plan and its accumulators across the shared sweep.

    The plan is decided once, from the table's ``classify`` and the
    ``requested`` ids: ``entries``, the requested entries in report order;
    ``held``, the ids among them whose flags the semigroup has (``_holds``),
    the one hypothesis decision that the sweep, the converses and report
    assembly read; ``swept``, the held ``_Theorem``s; ``passers``, keyed by
    the profile positions the held pair theorems read. ``_sweep`` fills in
    the tally once the carrier order's stream ends: swept subjects per
    profile flag tuple, one entry per distinct profile among the order's
    patterns, which ``passing`` sums over. Report assembly reads these, the
    certificates and the subject total (the carrier order's
    ``subject_count``)."""

    label: str
    S: Semigroup
    requested: InitVar[Sequence[str]]
    total: int = 0  # the carrier order's subject_count, which _run passes
    certs: dict = field(default_factory=dict)  # tid -> first Certificate
    verdicts: list = field(default_factory=list)  # pattern id -> verdict (_Patterns.extend)
    tested: set = field(default_factory=set)  # (id(v), id(w)) of the verdict pairs tested
    tally: dict = field(default_factory=dict)  # profile flags -> swept subjects with them

    def __post_init__(self, requested):
        cls = classify(self.S)
        self.entries = tuple(_ENTRY[tid] for tid in requested)
        held = [th for th in self.entries if _holds(th, cls)]
        self.held = tuple(th.tid for th in held)
        self.swept = tuple(th for th in held if isinstance(th, _Theorem))
        # profile position a held pair theorem reads -> its first passers, capped
        self.passers = {pos: [] for th in held if isinstance(th, _PairTheorem)
                        for pos in th.positions}

    def passing(self, *positions: int) -> int:
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


def _sweep_chunk(state: _TaskState, block, pids, steps, cap: int,
                 patterns: _Patterns) -> None:
    """Process a block of subjects, their pattern ids and the block's steps
    (see ``_sweep``) against one semigroup.

    The semigroup's verdict list is first extended to the block's new
    patterns (``_Patterns.extend``). Each position of its plan then takes
    the block's first subjects passing it, until it holds ``cap`` of them.
    Each step then tests the plan's swept theorems whose precondition its
    subject passes. A test reads only the table and the two verdicts, and
    verdicts are interned per carrier order, so each (subject verdict,
    variant verdict) pair is tested once per table (``state.tested``): a
    later step with that pair fails only theorems its first step already
    certified, so the first failing step stays first.
    """
    T, verdicts, certs, tested = state.S.table, state.verdicts, state.certs, state.tested
    patterns.extend(state.S, verdicts)

    for pos, found in state.passers.items():
        found.extend(itertools.islice(
            (A for A, pid in zip(block, pids) if verdicts[pid][0][pos]), cap - len(found)))

    for A, beta, alpha, pid, vid in steps:
        v, w = verdicts[pid], verdicts[vid]
        if (pair := (id(v), id(w))) in tested:
            continue
        tested.add(pair)
        for th in state.swept:
            if th.tid in certs or not all([v[0][p] for p in th.positions]):
                continue
            cert = th.failure(state.label, T, A, beta, alpha, v, w)
            if cert is not None:
                certs[th.tid] = cert


def _sweep(group: list[_TaskState], subjects, operands: _Operands) -> _Patterns:
    """Sweep a stream of subjects of one carrier order past its semigroups,
    give each its tally, and return the order's patterns.

    When some semigroup's plan sweeps a theorem, each subject is magnified
    under each (beta, alpha) ``operands`` samples for its least
    non-membership, in sampling order, and a block's steps (A, beta, alpha,
    pattern id, variant pattern id) are the variants whose (pattern, variant
    pattern) pair no earlier step reached: a later one meets the same
    verdicts, so it cannot record a certificate the earlier one did not. A
    variant whose mu and nu ints both equal the subject's (with a correct
    ``magnify``, each beta = 1/q, alpha = 0 variant) takes the subject's
    pattern id without computing it; one with other ints, a sabotaged one
    among them, gets its own: the steps are those computing every one gives."""
    patterns = _Patterns()
    need_variants = any(st.swept for st in group)
    cap = operands.spec.max_pair_subjects
    reached = set()  # the (pattern id, variant pattern id) pairs stepped on
    subjects = iter(subjects)
    while block := list(itertools.islice(subjects, _SUBJECT_CHUNK)):
        pids, steps = [], []
        for A in block:
            den, mu, nu = A.view
            pid = patterns.pattern(mu, nu)
            patterns.counts[pid] += 1
            pids.append(pid)
            for params in operands.sampled(min(nu), den) if need_variants else ():
                _, vmu, vnu = magnify(A, params).view
                step = (pid, pid if vmu == mu and vnu == nu else patterns.pattern(vmu, vnu))
                if step not in reached:
                    reached.add(step)
                    steps.append((A, params.beta, params.alpha, *step))
        for st in group:
            _sweep_chunk(st, block, pids, steps, cap, patterns)
    for st in group:
        for count, v in zip(patterns.counts, st.verdicts):
            st.tally[v[0]] = st.tally.get(v[0], 0) + count
    return patterns


def _finish_task(state: _TaskState, ops: _TableOperands) -> list[VerificationReport]:
    """Report assembly of the table's requested entries, sharing its pair-law
    verdicts. An entry's ``converse(state, ops)`` returns (cases checked,
    its report), or no report where it does not decide it. Then an entry
    outside the table's ``held`` skips every subject, a swept theorem
    reports the sweep's first certificate, and a pair theorem the pair core
    on top of those cases."""
    label, n = state.label, state.total
    reports: list[VerificationReport] = []
    for th in state.entries:
        tid = th.tid
        checked, report = th.converse(state, ops) if th.converse else (0, None)
        if report is not None:
            reports.append(report)
        elif tid not in state.held:
            reports.append(_report(tid, label, 0, n))
        elif isinstance(th, _PairTheorem):
            reports.append(_pairs_report(state, ops, th, checked))
        else:
            passing = state.passing(*th.positions) if th.positions else n
            reports.append(_report(tid, label, passing, n - passing, state.certs.get(tid)))
    return reports


def _pairs_report(state: _TaskState, ops: _TableOperands, th: _PairTheorem,
                  checked: int) -> VerificationReport:
    """A pair theorem's core over the pairs of the capped passers the sweep
    gated for it, counted on top of ``checked``."""
    tid, label, operands = th.tid, state.label, ops.operands
    skipped = state.total - state.passing(*th.positions)
    for A, B in th.pairs(state.passers):
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
    tids = _normalize_theorems(theorems)
    return _run(_suite_tasks(orders, include_library), spec, tids)


def _run(tasks: list[tuple[str, Semigroup]], spec: SampleSpec | None,
         tids) -> list[VerificationReport]:
    """The suite driver of ``run_suite`` and the one-table checks: the reports
    of theorems ``tids`` on each (label, semigroup) task, in task order. Each
    carrier order's ``subject_count`` is its tables' subject total, refused
    above ``MAX_SUBJECTS_PER_ORDER`` before any sweep. Each table's plan is
    decided once, and a table joins its order's sweep only where its plan
    holds some requested theorem: a theorem's report reads no subject where
    its hypothesis fails."""
    spec = spec or SampleSpec()
    totals = {n: _refuse_costly(n, spec) for n in sorted({S.order for _, S in tasks})}
    states: list[_TaskState] = []
    by_order: dict[int, list[_TaskState]] = {}
    for label, S in tasks:
        states.append(st := _TaskState(label, S, tids, totals[S.order]))
        if st.held:
            by_order.setdefault(S.order, []).append(st)

    operands = _Operands(spec)
    for n, group in sorted(by_order.items()):
        _sweep(group, sample_ifs(n, spec), operands)

    reports: list[VerificationReport] = []
    for st in states:
        reports.extend(_finish_task(st, _TableOperands(st.S, operands)))
    return reports
