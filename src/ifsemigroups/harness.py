"""Exhaustive desk-scale verification of the transform theorems.

Every theorem is checked over enumerated semigroups (orders 1..3), the
curated library, grid-sampled fuzzy subjects, and a small grid of
transform parameters. A check either verifies (with exhaustion counters)
or produces a certificate that replays to a concrete violation through
the public predicate and transform APIs. Expected-failure exhibits (the
converse witnesses of the characterization theorems, the non-regular
product witnesses) are attached to verified reports as witnesses.

The suite runner shares work aggressively but never changes semantics:
subject profiles evaluate through the same scan code as the public
predicates, on order-isomorphic integer views of the exact grades, and
magnified variants are built once per subject and reused across every
semigroup of that carrier size. Every predicate compares mu only with mu
and nu only with nu, so a view's verdicts depend only on the weak order
of each grade map: each semigroup decides each such pattern once.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

from . import predicates
from .composition import if_product
from .errors import HypothesisNotMet, NotAGroup, OrderTooLarge, PreconditionNotMet
from .ifs import (
    IFSubset,
    ONE,
    ZERO,
    characteristic_pair,
    ifs_eq,
    ifs_leq,
    intersect,
    is_constant,
    is_nonempty,
)
from .predicates import (
    KIND_ORDER,
    FuzzyStructureKind,
    check,
    find_semiprime_inequality_violation,
)
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

# theorems whose suite sweep consumes the per-subject magnified variants;
# the pair-based theorems sample their own parameters instead
_VARIANT_THEOREMS = frozenset(EQUIV_THEOREMS) | {
    "group_constant",
    "fixedpoint",
    "char_intra_regular",
    "char_left_regular",
    "char_right_regular",
    "archimedean_constant",
}

_CHAR_RELEVANT = {
    "intra_regular": K.IDEAL,
    "left_regular": K.LEFT_IDEAL,
    "right_regular": K.RIGHT_IDEAL,
}

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


def grid_grade_pairs(step: Fraction) -> tuple[tuple[Fraction, Fraction], ...]:
    """All (mu, nu) grid points with mu + nu <= 1, in lexicographic order."""
    count = int(1 / step)
    values = [step * i for i in range(count + 1)]
    return tuple((m, v) for m in values for v in values if m + v <= 1)


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
    non-emptiness precondition of every predicate).
    """
    pairs = grid_grade_pairs(spec.grade_grid_step)
    for combo in itertools.product(pairs, repeat=carrier_order):
        mu = tuple(p[0] for p in combo)
        if not any(mu):
            continue
        yield IFSubset(carrier_order, mu, tuple(p[1] for p in combo))
    rng = random.Random(spec.seed)
    for _ in range(spec.random_count):
        yield _random_subject(carrier_order, rng)


def alpha_samples(A: IFSubset, beta: Fraction, strategy: str = "grid") -> tuple[Fraction, ...]:
    """Shifts sampled for a subject at a given scaling: zero, boundary, midpoint."""
    m = max_alpha(A, beta)
    if strategy == "zero":
        return (ZERO,)
    if strategy == "max":
        return (m,)
    if strategy == "midpoint":
        return (m / 2,)
    if strategy == "grid":
        return (ZERO,) if m == 0 else (ZERO, m / 2, m)
    raise ValueError(f"alpha strategy {strategy!r} not in {ALPHA_STRATEGIES}")


def _pair_alphas(A: IFSubset, B: IFSubset, beta: Fraction, strategy: str) -> tuple[Fraction, ...]:
    """Shifts admissible for both subjects of a pair at once."""
    m = min(max_alpha(A, beta), max_alpha(B, beta))
    if strategy == "zero":
        return (ZERO,)
    if strategy == "max":
        return (m,)
    if strategy == "midpoint":
        return (m / 2,)
    return (ZERO,) if m == 0 else (ZERO, m / 2, m)


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
    is genuine.
    """
    S = Semigroup(len(cert.table), cert.table)
    A = _subject_of(cert, "a")
    params = (
        TransformParams(cert.beta, cert.alpha) if cert.beta is not None else None
    )
    tid = cert.theorem_id

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
            return False
        A2 = magnify(A, params) if params is not None else A
        m = cert.points[0]
        m2 = S.table[m][m]
        return A2.mu[m] < A2.mu[m2] or A2.nu[m] > A2.nu[m2]
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
        return not ifs_eq(if_product(S, A, B), intersect(A, B))
    return False


def _squares_fixed(S: Semigroup, A: IFSubset) -> bool:
    T = S.table
    return all(
        A.mu[x] == A.mu[T[x][x]] and A.nu[x] == A.nu[T[x][x]] for x in S.elements()
    )


def _verified(tid: str, label: str, subjects: int, skipped: int = 0,
              witnesses: tuple[Certificate, ...] = ()) -> VerificationReport:
    return VerificationReport(tid, label, 1, subjects, skipped, "verified", None, witnesses)


def _refuted(tid: str, label: str, subjects: int, skipped: int,
             cert: Certificate) -> VerificationReport:
    if not replay_certificate(cert):
        raise AssertionError(f"unsound certificate for {tid}: does not replay")
    return VerificationReport(tid, label, 1, subjects, skipped, "counterexample", cert)


def _label(S: Semigroup, label: str | None) -> str:
    return label if label is not None else f"n{S.order}"


# ---------------------------------------------------------------------------
# single-case theorem checks (the public per-theorem operations)


def check_transform_equivalence(
    kind: FuzzyStructureKind,
    S: Semigroup,
    A: IFSubset,
    params: TransformParams,
    label: str | None = None,
) -> VerificationReport:
    """Property holds on A iff it holds on the magnified A."""
    tid = f"equiv_{kind.value}"
    name = _label(S, label)
    before = check(kind, S, A)
    after = check(kind, S, magnify(A, params))
    if before == after:
        return _verified(tid, name, 1)
    cert = Certificate(
        tid, name, S.table, A.mu, A.nu, beta=params.beta, alpha=params.alpha,
        kind=kind.value,
        detail=f"{kind.value}: original={before}, transformed={after}",
    )
    return _refuted(tid, name, 1, 0, cert)


def check_group_constant(
    S: Semigroup, A: IFSubset, params: TransformParams, label: str | None = None
) -> VerificationReport:
    """On a group: A is a bi-ideal iff its magnified translation is constant."""
    name = _label(S, label)
    if not classify(S).is_group:
        raise NotAGroup("the constant-function equivalence requires a group")
    bi = check(K.BI_IDEAL, S, A)
    const = is_constant(magnify(A, params))
    if bi == const:
        return _verified("group_constant", name, 1)
    cert = Certificate(
        "group_constant", name, S.table, A.mu, A.nu,
        beta=params.beta, alpha=params.alpha,
        detail=f"bi_ideal={bi} but constant={const}",
    )
    return _refuted("group_constant", name, 1, 0, cert)


def check_semiprime_fixedpoint(
    S: Semigroup, A: IFSubset, params: TransformParams, label: str | None = None
) -> VerificationReport:
    """Magnified semiprime ideals take equal values at x and x*x."""
    name = _label(S, label)
    if not check(K.SEMIPRIME, S, A):
        raise PreconditionNotMet("subject is not a semiprime ideal")
    A2 = magnify(A, params)
    T = S.table
    for x in S.elements():
        x2 = T[x][x]
        if A2.mu[x] != A2.mu[x2] or A2.nu[x] != A2.nu[x2]:
            cert = Certificate(
                "fixedpoint", name, S.table, A.mu, A.nu,
                beta=params.beta, alpha=params.alpha, points=(x,),
                detail=f"transformed grades differ between {x} and {x2}",
            )
            return _refuted("fixedpoint", name, 1, 0, cert)
    return _verified("fixedpoint", name, 1)


def check_semiprime_intersection(
    S: Semigroup,
    A: IFSubset,
    B: IFSubset,
    spec: SampleSpec | None = None,
    label: str | None = None,
) -> VerificationReport:
    """Intersections of semiprime ideals are semiprime, before and after magnifying."""
    name = _label(S, label)
    spec = spec or SampleSpec()
    if not (check(K.SEMIPRIME, S, A) and check(K.SEMIPRIME, S, B)):
        raise PreconditionNotMet("both subjects must be semiprime ideals")
    C = intersect(A, B)
    if not is_nonempty(C):
        raise PreconditionNotMet("intersection is empty")
    if not check(K.SEMIPRIME, S, C):
        cert = Certificate(
            "semiprime_intersection", name, S.table, A.mu, A.nu, B.mu, B.nu,
            detail="plain intersection is not semiprime",
        )
        return _refuted("semiprime_intersection", name, 1, 0, cert)
    for beta in spec.beta_grid:
        for alpha in _pair_alphas(A, B, beta, spec.alpha_strategy):
            params = TransformParams(beta, alpha)
            C2 = intersect(magnify(A, params), magnify(B, params))
            if not check(K.SEMIPRIME, S, C2):
                cert = Certificate(
                    "semiprime_intersection", name, S.table, A.mu, A.nu, B.mu, B.nu,
                    beta=beta, alpha=alpha,
                    detail="magnified intersection is not semiprime",
                )
                return _refuted("semiprime_intersection", name, 1, 0, cert)
    return _verified("semiprime_intersection", name, 1)


def check_archimedean_constant(
    S: Semigroup, A: IFSubset, params: TransformParams, label: str | None = None
) -> VerificationReport:
    """On archimedean semigroups, magnified semiprime ideals are constant."""
    name = _label(S, label)
    if not classify(S).archimedean:
        raise PreconditionNotMet("semigroup is not archimedean")
    if not check(K.SEMIPRIME, S, A):
        raise PreconditionNotMet("subject is not a semiprime ideal")
    A2 = magnify(A, params)
    if is_constant(A2):
        return _verified("archimedean_constant", name, 1)
    cert = Certificate(
        "archimedean_constant", name, S.table, A.mu, A.nu,
        beta=params.beta, alpha=params.alpha,
        detail="magnified semiprime ideal is not constant",
    )
    return _refuted("archimedean_constant", name, 1, 0, cert)


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
    name = _label(S, label)
    cls = classify(S)
    if kind == "bi_ideal_pair":
        tid, pk = "product_bi_ideal", K.BI_IDEAL
        hyp = cls.regular and cls.intra_regular
    elif kind == "one_two_pair":
        tid, pk = "product_one_two_ideal", K.ONE_TWO_IDEAL
        hyp = cls.regular and cls.intra_regular and cls.left_regular
    else:
        raise ValueError(f"unknown pair kind {kind!r}")
    if not hyp:
        raise HypothesisNotMet(f"semigroup lacks the flags required for {kind}")
    if not (check(pk, S, A) and check(pk, S, B)):
        raise HypothesisNotMet(f"subjects are not both {pk.value}s")
    A2, B2 = magnify(A, params), magnify(B, params)
    I = intersect(A2, B2)
    if ifs_leq(I, if_product(S, A2, B2)) and ifs_leq(I, if_product(S, B2, A2)):
        return _verified(tid, name, 1)
    cert = Certificate(
        tid, name, S.table, A.mu, A.nu, B.mu, B.nu,
        beta=params.beta, alpha=params.alpha,
        detail="magnified intersection escapes a magnified product",
    )
    return _refuted(tid, name, 1, 0, cert)


def _regularity_gap(kind: str, S: Semigroup) -> int | None:
    """First element with no witness for the regularity equation, if any."""
    T = S.table
    els = range(S.order)
    for m in els:
        m2 = T[m][m]
        if kind == "intra_regular":
            ok = any(T[T[x][m2]][y] == m for x in els for y in els)
        elif kind == "left_regular":
            ok = any(T[x][m2] == m for x in els)
        else:
            ok = any(T[m2][x] == m for x in els)
        if not ok:
            return m
    return None


def _principal_for(kind: str, S: Semigroup, g: int) -> ElementSubset:
    if kind == "intra_regular":
        return principal_two_sided_ideal(S, g)
    if kind == "left_regular":
        return principal_left_ideal(S, g)
    return principal_right_ideal(S, g)


def _converse_witness(
    kind: str, S: Semigroup, spec: SampleSpec, name: str
) -> tuple[Certificate | None, Certificate | None]:
    """(witness, counterexample): the characteristic pair of the principal
    ideal of m*m must be a relevant ideal whose magnified translation
    violates a semiprime inequality at the gap element m. A returned
    witness has been replayed."""
    tid = f"char_{kind}"
    relevant = _CHAR_RELEVANT[kind]
    m = _regularity_gap(kind, S)
    if m is None:
        raise HypothesisNotMet("no regularity gap: the flag holds")
    m2 = S.table[m][m]
    W = characteristic_pair(S.order, _principal_for(kind, S, m2))
    if not check(relevant, S, W):
        cert = Certificate(
            tid, name, S.table, W.mu, W.nu, kind=relevant.value, points=(m,),
            detail="principal-ideal witness fails the relevant ideal predicate",
        )
        return None, cert
    witness: Certificate | None = None
    for beta in spec.beta_grid:
        # nu of the witness vanishes on the ideal, forcing a zero shift
        shift = max_alpha(W, beta)
        if shift != 0:
            cert = Certificate(
                tid, name, S.table, W.mu, W.nu, beta=beta, alpha=shift,
                kind=relevant.value, points=(m,),
                detail=f"witness admits the non-zero shift {shift}",
            )
            return None, cert
        W2 = magnify(W, TransformParams(beta, ZERO))
        if not (W2.mu[m] < W2.mu[m2] or W2.nu[m] > W2.nu[m2]):
            cert = Certificate(
                tid, name, S.table, W.mu, W.nu, beta=beta, alpha=ZERO,
                kind=relevant.value, points=(m,),
                detail="witness fails to violate the semiprime inequalities",
            )
            return None, cert
        if witness is None:
            witness = Certificate(
                tid, name, S.table, W.mu, W.nu, beta=beta, alpha=ZERO,
                kind=relevant.value, points=(m,),
                detail=(
                    f"characteristic pair of the principal ideal of {m2} is a "
                    f"{relevant.value} whose magnified translation breaks "
                    f"semiprimeness at {m}"
                ),
            )
    if not replay_certificate(witness):
        raise AssertionError(f"converse witness for {tid} does not replay")
    return witness, None


def check_characterization(
    kind: str,
    S: Semigroup,
    spec: SampleSpec | None = None,
    subjects: Sequence[IFSubset] | None = None,
    label: str | None = None,
) -> VerificationReport:
    """Two-sided regularity characterization via magnified ideals.

    Forward: when the classify flag holds, the magnified translation of
    every sampled relevant ideal satisfies the semiprime inequalities.
    Converse: when it fails, the characteristic pair of the principal
    ideal of m*m (m the gap element) is exhibited breaking them.
    """
    if kind not in _CHAR_RELEVANT:
        raise ValueError(f"unknown characterization kind {kind!r}")
    tid = f"char_{kind}"
    name = _label(S, label)
    spec = spec or SampleSpec()
    relevant = _CHAR_RELEVANT[kind]
    flag = getattr(classify(S), kind)

    if not flag:
        witness, bad = _converse_witness(kind, S, spec, name)
        if bad is not None:
            return VerificationReport(tid, name, 1, 1, 0, "counterexample", bad)
        return _verified(tid, name, 1, witnesses=(witness,))

    if subjects is None:
        subjects = sample_ifs(S.order, spec)
    checked = 0
    skipped = 0
    for A in subjects:
        if not check(relevant, S, A):
            skipped += 1
            continue
        checked += 1
        for beta in spec.beta_grid:
            for alpha in alpha_samples(A, beta, spec.alpha_strategy):
                A2 = magnify(A, TransformParams(beta, alpha))
                v = find_semiprime_inequality_violation(S, A2)
                if v is not None:
                    cert = Certificate(
                        tid, name, S.table, A.mu, A.nu, beta=beta, alpha=alpha,
                        kind=relevant.value, points=v.points,
                        detail=v.describe(),
                    )
                    return _refuted(tid, name, checked, skipped, cert)
    return _verified(tid, name, checked, skipped)


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
    magnified: bool = True,
    subjects: Sequence[IFSubset] | None = None,
    label: str | None = None,
    _prefiltered: tuple[list[IFSubset], list[IFSubset], int] | None = None,
) -> VerificationReport:
    """Regularity against the product laws, at three levels.

    Level 1 (crisp): RL = R n L over every crisp right/left ideal pair
    must agree with the classify flag. Level 2: on regular semigroups the
    fuzzy product of sampled right and left ideals equals the
    intersection; on non-regular ones a characteristic-pair witness
    breaks the equality. Level 3 repeats level 2 on magnified subjects
    (the witness pins alpha to zero because its nu vanishes on the ideal).
    """
    tid = "regular_product"
    name = _label(S, label)
    spec = spec or SampleSpec()
    regular = classify(S).regular

    rights, lefts = _crisp_one_sided_ideals(S)
    crisp_pairs = 0
    crisp_gap: tuple[ElementSubset, ElementSubset] | None = None
    for R in rights:
        for L in lefts:
            crisp_pairs += 1
            if multiply_subsets(S, R, L).members != R.members & L.members:
                if crisp_gap is None:
                    crisp_gap = (R, L)
    if (crisp_gap is None) != regular:
        if crisp_gap is not None:
            # flagged regular, yet a concrete pair breaks the law
            chi_r = characteristic_pair(S.order, crisp_gap[0])
            chi_l = characteristic_pair(S.order, crisp_gap[1])
            cert = Certificate(
                tid, name, S.table, chi_r.mu, chi_r.nu, chi_l.mu, chi_l.nu,
                kind="crisp", detail="regular semigroup with RL != R n L",
            )
        else:
            # flagged non-regular, yet the law holds on every crisp pair
            cert = Certificate(
                tid, name, S.table, (ONE,) * S.order, (ZERO,) * S.order,
                kind="crisp_agreement",
                detail="crisp product law disagrees with the regularity flag",
            )
        return _refuted(tid, name, crisp_pairs, 0, cert)

    checked = crisp_pairs
    witnesses: tuple[Certificate, ...] = ()

    if regular:
        cap = spec.max_pair_subjects
        if _prefiltered is not None:
            right_f, left_f, skipped = _prefiltered
            right_f, left_f = right_f[:cap], left_f[:cap]
        else:
            if subjects is None:
                subjects = sample_ifs(S.order, spec)
            right_f = []
            left_f = []
            skipped = 0
            for A in subjects:
                r = check(K.RIGHT_IDEAL, S, A)
                l = check(K.LEFT_IDEAL, S, A)
                if r and len(right_f) < cap:
                    right_f.append(A)
                if l and len(left_f) < cap:
                    left_f.append(A)
                if not (r or l):
                    skipped += 1
        for A in right_f:
            for B in left_f:
                checked += 1
                if not ifs_eq(if_product(S, A, B), intersect(A, B)):
                    cert = Certificate(
                        tid, name, S.table, A.mu, A.nu, B.mu, B.nu, kind="fuzzy",
                        detail="product differs from intersection on a regular semigroup",
                    )
                    return _refuted(tid, name, checked, skipped, cert)
                if magnified:
                    for beta in spec.beta_grid:
                        for alpha in _pair_alphas(A, B, beta, spec.alpha_strategy):
                            params = TransformParams(beta, alpha)
                            A2, B2 = magnify(A, params), magnify(B, params)
                            if not ifs_eq(if_product(S, A2, B2), intersect(A2, B2)):
                                cert = Certificate(
                                    tid, name, S.table, A.mu, A.nu, B.mu, B.nu,
                                    beta=beta, alpha=alpha, kind="magnified",
                                    detail="magnified product differs from magnified intersection",
                                )
                                return _refuted(tid, name, checked, skipped, cert)
        return _verified(tid, name, checked, skipped)

    # non-regular: the failing crisp pair yields a characteristic-pair witness
    R, L = crisp_gap
    chi_r = characteristic_pair(S.order, R)
    chi_l = characteristic_pair(S.order, L)
    if ifs_eq(if_product(S, chi_r, chi_l), intersect(chi_r, chi_l)):
        cert = Certificate(
            tid, name, S.table, chi_r.mu, chi_r.nu, chi_l.mu, chi_l.nu, kind="fuzzy",
            detail="characteristic witness unexpectedly satisfies the product law",
        )
        return VerificationReport(tid, name, 1, checked, 0, "counterexample", cert)
    wit = Certificate(
        tid, name, S.table, chi_r.mu, chi_r.nu, chi_l.mu, chi_l.nu, kind="fuzzy",
        detail="characteristic pair of a failing crisp pair breaks the product law",
    )
    if not replay_certificate(wit):
        raise AssertionError("non-regular product witness does not replay")
    witnesses = (wit,)
    checked += 1
    if magnified:
        for beta in spec.beta_grid:
            # alpha is pinned to zero: both witnesses have vanishing nu somewhere
            params = TransformParams(beta, ZERO)
            A2, B2 = magnify(chi_r, params), magnify(chi_l, params)
            checked += 1
            if ifs_eq(if_product(S, A2, B2), intersect(A2, B2)):
                cert = Certificate(
                    tid, name, S.table, chi_r.mu, chi_r.nu, chi_l.mu, chi_l.nu,
                    beta=beta, alpha=ZERO, kind="magnified",
                    detail="magnified witness unexpectedly satisfies the product law",
                )
                return VerificationReport(tid, name, 1, checked, 0, "counterexample", cert)
    return _verified(tid, name, checked, 0, witnesses=witnesses)


# ---------------------------------------------------------------------------
# mutation probes (guard against vacuously-true equivalence runs)


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

    Picks the first tuple (in scan order) whose product point is disjoint
    from the tuple's argument points and whose required minimum is
    positive, then halves the membership there. Returns None when no such
    tuple exists for this subject.
    """
    T = S.table
    mu = A.mu
    stage = _BREAK_STAGES[kind]
    els = range(S.order)

    def mutate(point: int, required: Fraction) -> IFSubset:
        new_mu = list(mu)
        new_mu[point] = required / 2
        return IFSubset(A.carrier_order, tuple(new_mu), A.nu)

    if stage == "subsemigroup":
        for x in els:
            for y in els:
                p = T[x][y]
                req = min(mu[x], mu[y])
                if p not in (x, y) and req > 0:
                    return mutate(p, req)
    elif stage == "bi_ideal":
        for x in els:
            for y in els:
                for z in els:
                    p = T[T[x][y]][z]
                    req = min(mu[x], mu[z])
                    if p not in (x, z) and req > 0:
                        return mutate(p, req)
    elif stage == "one_two_ideal":
        for x in els:
            for w in els:
                for y in els:
                    for z in els:
                        p = T[T[x][w]][T[y][z]]
                        req = min(mu[x], mu[y], mu[z])
                        if p not in (x, y, z) and req > 0:
                            return mutate(p, req)
    elif stage == "left_ideal":
        for x in els:
            for y in els:
                p = T[x][y]
                if p != y and mu[y] > 0:
                    return mutate(p, mu[y])
    elif stage == "right_ideal":
        for x in els:
            for y in els:
                p = T[x][y]
                if p != x and mu[x] > 0:
                    return mutate(p, mu[x])
    else:  # semiprime: lower mu at x below mu at x*x
        for x in els:
            x2 = T[x][x]
            if x2 != x and mu[x2] > 0:
                return mutate(x, mu[x2])
    return None


# ---------------------------------------------------------------------------
# the suite runner


@dataclass
class _TaskState:
    """Accumulators for one semigroup across the shared subject sweep."""

    label: str
    S: Semigroup
    cls: Classification
    subjects: int = 0
    certs: dict = field(default_factory=dict)  # tid -> Certificate
    semiprime_passers: list[IFSubset] = field(default_factory=list)
    semiprime_total: int = 0
    bi_passers: list[IFSubset] = field(default_factory=list)
    bi_total: int = 0
    one_two_passers: list[IFSubset] = field(default_factory=list)
    one_two_total: int = 0
    right_passers: list[IFSubset] = field(default_factory=list)
    left_passers: list[IFSubset] = field(default_factory=list)
    one_sided_misses: int = 0
    relevant_counts: dict = field(default_factory=lambda: {
        "intra_regular": 0, "left_regular": 0, "right_regular": 0,
    })
    # pattern id -> verdict on this semigroup (None until first needed)
    verdicts: list = field(default_factory=list)
    # signature id -> 1 once a subject with that signature walked its variants
    walked: bytearray = field(default_factory=bytearray)


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


# positions of the profile flags the sweep reads, in KIND_ORDER
_BI, _ONE_TWO, _LEFT, _RIGHT, _SEMIPRIME = (
    KIND_ORDER.index(kind)
    for kind in (K.BI_IDEAL, K.ONE_TWO_IDEAL, K.LEFT_IDEAL, K.RIGHT_IDEAL, K.SEMIPRIME)
)


def _suite_tasks(orders, include_library) -> list[tuple[str, Semigroup]]:
    tasks: list[tuple[str, Semigroup]] = []
    for n in sorted(set(orders)):
        if not 1 <= n <= 3:
            raise OrderTooLarge(n)
        for i, S in enumerate(enumerate_semigroups(n)):
            tasks.append((f"order{n}/{i:03d}", S))
    if include_library:
        for entry in builtin_library():
            tasks.append((f"lib:{entry.name}", entry.semigroup))
    return tasks


def _weak_order(values) -> tuple[int, ...]:
    """Each value's rank among the distinct values."""
    rank = {v: i for i, v in enumerate(sorted(set(values)))}
    return tuple([rank[v] for v in values])


def _verdict(idx: predicates._ScanIndex, mu, nu) -> tuple:
    """Everything the sweep asks of one grade view on one semigroup:
    (profile flags, first x whose grades differ from those of x*x, whether
    both maps are constant, first x breaking a semiprime square inequality),
    with None where there is no such x."""
    squares = idx.squares
    fixed = next(
        (x for x, x2 in enumerate(squares) if mu[x] != mu[x2] or nu[x] != nu[x2]), None
    )
    hit = predicates._scan_semiprime(squares, mu, nu)
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
    view seen with it to compute that verdict from. A subject's signature
    is its pattern id and the ids of its variants, in order: subjects that
    share one get identical verdicts throughout. Verdicts are interned here
    so that the semigroups of one order share the few distinct ones.
    """

    def __init__(self):
        self._ids: dict = {}
        self.views: list = []
        self.signatures: dict = {}
        self._verdicts: dict = {}

    def pattern(self, mu, nu) -> int:
        key = (_weak_order(mu), _weak_order(nu))
        pid = self._ids.get(key)
        if pid is None:
            pid = self._ids[key] = len(self.views)
            self.views.append((mu, nu))
        return pid

    def signature(self, pid: int, vids: tuple[int, ...]) -> int:
        return self.signatures.setdefault((pid, vids), len(self.signatures))

    def verdict(self, idx: predicates._ScanIndex, pid: int) -> tuple:
        v = _verdict(idx, *self.views[pid])
        return self._verdicts.setdefault(v, v)


def _variants_for(A: IFSubset, spec: SampleSpec, patterns: _Patterns):
    """(beta, alpha, pattern id) of each magnified variant, in sampling order."""
    out = []
    for beta in spec.beta_grid:
        for alpha in alpha_samples(A, beta, spec.alpha_strategy):
            A2 = magnify(A, TransformParams(beta, alpha))
            out.append((beta, alpha, patterns.pattern(*predicates._scaled(A2))))
    return tuple(out)


def _prepare(A: IFSubset, spec: SampleSpec, patterns: _Patterns, need_variants: bool):
    """(subject, pattern id, signature id, variants), shared by every semigroup
    of the subject's carrier order."""
    pid = patterns.pattern(*predicates._scaled(A))
    variants = _variants_for(A, spec, patterns) if need_variants else ()
    return A, pid, patterns.signature(pid, tuple(v[2] for v in variants)), variants


def _sweep_chunk(state: _TaskState, chunk, tids, spec: SampleSpec,
                 patterns: _Patterns) -> None:
    """Process a block of prepared subjects against one semigroup.

    Every subject counts towards the hypothesis tallies and pair passers.
    Only the first subject with a given signature walks its variants: a
    later one meets the same verdicts in the same order, so it cannot
    record a certificate the first one did not.
    """
    S, cls = state.S, state.cls
    idx = predicates._scan_index(S)
    squares = idx.squares
    cap = spec.max_pair_subjects
    want_equiv = any(t in EQUIV_THEOREMS for t in tids)
    want_group = "group_constant" in tids and cls.is_group
    want_fixed = "fixedpoint" in tids
    want_arch = "archimedean_constant" in tids and cls.archimedean
    char_kinds = [
        (k, f"char_{k}", KIND_ORDER.index(_CHAR_RELEVANT[k]), _CHAR_RELEVANT[k].value)
        for k in ("intra_regular", "left_regular", "right_regular")
        if f"char_{k}" in tids and getattr(cls, k)
    ]
    verdicts, walked, certs = state.verdicts, state.walked, state.certs
    verdicts.extend([None] * (len(patterns.views) - len(verdicts)))
    walked.extend(bytes(len(patterns.signatures) - len(walked)))

    for A, pid, sid, variants in chunk:
        state.subjects += 1
        v = verdicts[pid]
        if v is None:
            v = verdicts[pid] = patterns.verdict(idx, pid)
        base = v[0]
        if base[_SEMIPRIME]:
            state.semiprime_total += 1
            if len(state.semiprime_passers) < cap:
                state.semiprime_passers.append(A)
        if base[_BI]:
            state.bi_total += 1
            if len(state.bi_passers) < cap:
                state.bi_passers.append(A)
        if base[_ONE_TWO]:
            state.one_two_total += 1
            if len(state.one_two_passers) < cap:
                state.one_two_passers.append(A)
        r_flag = base[_RIGHT]
        l_flag = base[_LEFT]
        if r_flag and len(state.right_passers) < cap:
            state.right_passers.append(A)
        if l_flag and len(state.left_passers) < cap:
            state.left_passers.append(A)
        if not (r_flag or l_flag):
            state.one_sided_misses += 1
        for k, _, pos, _ in char_kinds:
            if base[pos]:
                state.relevant_counts[k] += 1

        if walked[sid]:
            continue
        walked[sid] = 1
        for beta, alpha, vid in variants:
            w = verdicts[vid]
            if w is None:
                w = verdicts[vid] = patterns.verdict(idx, vid)
            after, fixed_x, const, char_x = w
            if want_equiv and after != base:
                for pos, kind in enumerate(KIND_ORDER):
                    tid = f"equiv_{kind.value}"
                    if base[pos] != after[pos] and tid in tids and tid not in certs:
                        certs[tid] = Certificate(
                            tid, state.label, S.table, A.mu, A.nu,
                            beta=beta, alpha=alpha, kind=kind.value,
                            detail=(
                                f"{kind.value}: original={base[pos]}, "
                                f"transformed={after[pos]}"
                            ),
                        )
            if want_group and "group_constant" not in certs and base[_BI] != const:
                certs["group_constant"] = Certificate(
                    "group_constant", state.label, S.table, A.mu, A.nu,
                    beta=beta, alpha=alpha,
                    detail=f"bi_ideal={base[_BI]} but constant={const}",
                )
            if base[_SEMIPRIME]:
                if want_fixed and "fixedpoint" not in certs and fixed_x is not None:
                    certs["fixedpoint"] = Certificate(
                        "fixedpoint", state.label, S.table, A.mu, A.nu,
                        beta=beta, alpha=alpha, points=(fixed_x,),
                        detail=(
                            f"transformed grades differ between {fixed_x} "
                            f"and {squares[fixed_x]}"
                        ),
                    )
                if want_arch and "archimedean_constant" not in certs and not const:
                    certs["archimedean_constant"] = Certificate(
                        "archimedean_constant", state.label, S.table, A.mu, A.nu,
                        beta=beta, alpha=alpha,
                        detail="magnified semiprime ideal is not constant",
                    )
            if char_x is not None:
                for _, tid, pos, relevant in char_kinds:
                    if base[pos] and tid not in certs:
                        certs[tid] = Certificate(
                            tid, state.label, S.table, A.mu, A.nu,
                            beta=beta, alpha=alpha, kind=relevant,
                            points=(char_x,),
                            detail="magnified relevant ideal breaks a semiprime inequality",
                        )


def _finish_task(state: _TaskState, tids, spec: SampleSpec) -> list[VerificationReport]:
    """Pair-based theorems, converse witnesses, and report assembly."""
    S, cls, label = state.S, state.cls, state.label
    reports: list[VerificationReport] = []
    n_subjects = state.subjects

    def refute(tid, subjects, skipped):
        return _refuted(tid, label, subjects, skipped, state.certs[tid])

    for tid in tids:
        if tid in EQUIV_THEOREMS:
            reports.append(
                refute(tid, n_subjects, 0) if tid in state.certs
                else _verified(tid, label, n_subjects)
            )
        elif tid == "group_constant":
            if not cls.is_group:
                reports.append(_verified(tid, label, 0, n_subjects))
            elif tid in state.certs:
                reports.append(refute(tid, n_subjects, 0))
            else:
                reports.append(_verified(tid, label, n_subjects))
        elif tid == "fixedpoint":
            skipped = n_subjects - state.semiprime_total
            if tid in state.certs:
                reports.append(refute(tid, state.semiprime_total, skipped))
            else:
                reports.append(_verified(tid, label, state.semiprime_total, skipped))
        elif tid == "archimedean_constant":
            if not cls.archimedean:
                reports.append(_verified(tid, label, 0, n_subjects))
            elif tid in state.certs:
                skipped = n_subjects - state.semiprime_total
                reports.append(refute(tid, state.semiprime_total, skipped))
            else:
                skipped = n_subjects - state.semiprime_total
                reports.append(_verified(tid, label, state.semiprime_total, skipped))
        elif tid.startswith("char_"):
            kind = tid[len("char_"):]
            if getattr(cls, kind):
                checked = state.relevant_counts[kind]
                skipped = n_subjects - checked
                if tid in state.certs:
                    reports.append(refute(tid, checked, skipped))
                else:
                    reports.append(_verified(tid, label, checked, skipped))
            else:
                witness, bad = _converse_witness(kind, S, spec, label)
                if bad is not None:
                    reports.append(
                        VerificationReport(tid, label, 1, 1, 0, "counterexample", bad)
                    )
                else:
                    reports.append(_verified(tid, label, 1, 0, witnesses=(witness,)))
        elif tid == "semiprime_intersection":
            reports.append(_pairwise_intersection_report(state, spec))
        elif tid in ("product_bi_ideal", "product_one_two_ideal"):
            reports.append(_product_pairs_report(state, spec, tid))
        elif tid == "regular_product":
            reports.append(
                check_regular_iff_product(
                    S, spec, magnified=True, label=label,
                    _prefiltered=(
                        state.right_passers, state.left_passers,
                        state.one_sided_misses,
                    ),
                )
            )
    return reports


def _pairwise_intersection_report(state: _TaskState, spec: SampleSpec) -> VerificationReport:
    tid = "semiprime_intersection"
    S, label = state.S, state.label
    passers = state.semiprime_passers
    skipped = state.subjects - state.semiprime_total
    pairs = 0
    for i, A in enumerate(passers):
        for B in passers[i:]:
            C = intersect(A, B)
            if not is_nonempty(C):
                skipped += 1
                continue
            pairs += 1
            rep = check_semiprime_intersection(S, A, B, spec, label)
            if rep.outcome == "counterexample":
                return VerificationReport(
                    tid, label, 1, pairs, skipped, "counterexample", rep.certificate
                )
    return _verified(tid, label, pairs, skipped)


def _product_pairs_report(state: _TaskState, spec: SampleSpec, tid: str) -> VerificationReport:
    S, cls, label = state.S, state.cls, state.label
    if tid == "product_bi_ideal":
        hyp = cls.regular and cls.intra_regular
        passers, total = state.bi_passers, state.bi_total
        pair_kind = "bi_ideal_pair"
    else:
        hyp = cls.regular and cls.intra_regular and cls.left_regular
        passers, total = state.one_two_passers, state.one_two_total
        pair_kind = "one_two_pair"
    if not hyp:
        return _verified(tid, label, 0, state.subjects)
    skipped = state.subjects - total
    pairs = 0
    for i, A in enumerate(passers):
        for B in passers[i:]:
            pairs += 1
            for beta in spec.beta_grid:
                for alpha in _pair_alphas(A, B, beta, spec.alpha_strategy):
                    rep = check_product_inclusions(
                        S, A, B, TransformParams(beta, alpha), pair_kind, label
                    )
                    if rep.outcome == "counterexample":
                        return VerificationReport(
                            tid, label, 1, pairs, skipped, "counterexample",
                            rep.certificate,
                        )
    return _verified(tid, label, pairs, skipped)


def run_suite(
    orders: Sequence[int],
    spec: SampleSpec | None = None,
    theorems=None,
    include_library: bool = True,
) -> list[VerificationReport]:
    """Check the selected theorems over every enumerated semigroup of the
    given orders plus the curated library, against the sampled subjects.

    Reports come out sorted by (semigroup position, theorem id position)
    and are a pure function of the arguments.
    """
    spec = spec or SampleSpec()
    tids = _normalize_theorems(theorems)
    tasks = _suite_tasks(orders, include_library)
    states = [_TaskState(label, S, classify(S)) for label, S in tasks]

    by_order: dict[int, list[_TaskState]] = {}
    for st in states:
        by_order.setdefault(st.S.order, []).append(st)

    need_variants = any(t in _VARIANT_THEOREMS for t in tids)
    for n, group in sorted(by_order.items()):
        patterns = _Patterns()
        stream = sample_ifs(n, spec)
        while True:
            block = list(itertools.islice(stream, _SUBJECT_CHUNK))
            if not block:
                break
            chunk = [_prepare(A, spec, patterns, need_variants) for A in block]
            for st in group:
                _sweep_chunk(st, chunk, tids, spec, patterns)

    reports: list[VerificationReport] = []
    for st in states:
        reports.extend(_finish_task(st, tids, spec))
    return reports
