import dataclasses
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsemigroups import (
    Semigroup,
    CarrierMismatch,
    ElementSubset,
    EmptySubset,
    FuzzyStructureKind as K,
    IFSubset,
    SampleSpec,
    break_property,
    builtin_library,
    characteristic_pair,
    check,
    enumerate_semigroups,
    find_violation,
    is_crisp_structure,
    profile,
    replay_violation,
    sample_ifs,
    Violation,
)

from conftest import small_semigroups, subjects

ALL_KINDS = list(K)


def grid_subjects(n, step=F(1, 2)):
    values = [step * i for i in range(int(1 / step) + 1)]
    pairs = [(m, v) for m in values for v in values if m + v <= 1]
    for combo in itertools.product(pairs, repeat=n):
        mu = tuple(p[0] for p in combo)
        if any(mu):
            yield IFSubset(n, mu, tuple(p[1] for p in combo))


class TestExamples:
    def test_constant_subject_passes_everything(self, mod2, leftzero2, null2):
        A = IFSubset(2, (F(1, 3), F(1, 3)), (F(1, 2), F(1, 2)))
        for S in (mod2, leftzero2, null2):
            for kind in ALL_KINDS:
                assert check(kind, S, A)

    def test_characteristic_left_ideal_on_semilattice(self, semilattice2):
        A = characteristic_pair(2, ElementSubset(2, frozenset({0})))
        assert check(K.LEFT_IDEAL, semilattice2, A)

    def test_characteristic_left_ideal_fails_in_group(self, mod2):
        A = characteristic_pair(2, ElementSubset(2, frozenset({0})))
        v = find_violation(K.LEFT_IDEAL, mod2, A)
        assert v is not None
        assert v.points == (1, 0)
        assert v.component == "mu"
        assert (v.lhs, v.rhs) == (F(0), F(1))

    def test_semiprime_trivial_on_idempotent_tables(self, semilattice2):
        # x*x = x makes the square inequalities equalities for every ideal
        for A in grid_subjects(2):
            if check(K.IDEAL, semilattice2, A):
                assert check(K.SEMIPRIME, semilattice2, A)


class TestPreconditions:
    def test_empty_subject_rejected(self, mod2):
        dead = IFSubset(2, (F(0), F(0)), (F(1), F(1)))
        with pytest.raises(EmptySubset):
            check(K.SUBSEMIGROUP, mod2, dead)

    def test_carrier_mismatch(self, mod2):
        A = IFSubset(3, (F(1),) * 3, (F(0),) * 3)
        with pytest.raises(CarrierMismatch):
            check(K.SUBSEMIGROUP, mod2, A)


class TestHierarchy:
    def test_over_order2_grid(self):
        for S in enumerate_semigroups(2):
            for A in grid_subjects(2):
                flags = profile(S, A)
                if flags[K.IDEAL]:
                    assert flags[K.LEFT_IDEAL] and flags[K.RIGHT_IDEAL]
                if flags[K.LEFT_IDEAL] or flags[K.RIGHT_IDEAL]:
                    assert flags[K.SUBSEMIGROUP]
                if flags[K.BI_IDEAL] or flags[K.ONE_TWO_IDEAL]:
                    assert flags[K.SUBSEMIGROUP]
                if flags[K.SEMIPRIME]:
                    assert flags[K.IDEAL]


class TestCharacteristicBridge:
    def test_exhaustive_orders_up_to_three(self):
        pairs = (("left_ideal", K.LEFT_IDEAL), ("right_ideal", K.RIGHT_IDEAL))
        for n in (1, 2, 3):
            for S in enumerate_semigroups(n):
                for k in range(1, n + 1):
                    for combo in itertools.combinations(range(n), k):
                        crisp = ElementSubset(n, frozenset(combo))
                        fuzzy = characteristic_pair(n, crisp)
                        for crisp_kind, fuzzy_kind in pairs:
                            assert is_crisp_structure(crisp_kind, S, crisp) == check(
                                fuzzy_kind, S, fuzzy
                            )


class TestViolationReporting:
    def test_lexicographically_first(self):
        # all products land on 0; (1,1), (1,2), (2,1), (2,2) all violate the
        # membership inequality and the scan must report (1,1)
        null3 = Semigroup(3, ((0, 0, 0), (0, 0, 0), (0, 0, 0)))
        A = IFSubset(3, (F(0), F(1, 2), F(1)), (F(1), F(0), F(0)))
        v = find_violation(K.SUBSEMIGROUP, null3, A)
        assert v is not None and v.points == (1, 1)
        assert (v.lhs, v.rhs) == (F(0), F(1, 2))

    def test_mu_checked_before_nu(self):
        # at (1,1) the membership inequality holds but non-membership fails;
        # a later pair fails on membership too, yet (1,1)/nu comes first
        null3 = Semigroup(3, ((0, 0, 0), (0, 0, 0), (0, 0, 0)))
        A = IFSubset(3, (F(1, 2), F(1, 2), F(1, 2)), (F(1, 2), F(0), F(1, 4)))
        v = find_violation(K.SUBSEMIGROUP, null3, A)
        assert v.points == (1, 1) and v.component == "nu"

    def test_replay_confirms(self, mod2, null2, semilattice2):
        for S in (mod2, null2, semilattice2):
            for A in grid_subjects(2):
                for kind in ALL_KINDS:
                    v = find_violation(kind, S, A)
                    if v is not None:
                        assert replay_violation(S, A, v), v.describe()

    def test_replay_rejects_tampering(self, mod2):
        A = characteristic_pair(2, ElementSubset(2, frozenset({0})))
        v = find_violation(K.LEFT_IDEAL, mod2, A)
        import dataclasses
        forged = dataclasses.replace(v, lhs=F(1, 2))
        assert not replay_violation(mod2, A, forged)


@st.composite
def semigroup_with_subject(draw):
    S = draw(small_semigroups())
    A = draw(subjects(order=S.order, nonempty=True))
    return S, A


@settings(max_examples=120, deadline=None)
@given(semigroup_with_subject())
def test_profile_agrees_with_single_checks(case):
    # the batched integer-view profile must match the Fraction-by-Fraction API
    S, A = case
    flags = profile(S, A)
    for kind in ALL_KINDS:
        assert flags[kind] == check(kind, S, A)


def test_profile_reads_each_kinds_stages_by_name(monkeypatch):
    """The profile reads each stage of the scan index by name, so it does
    not depend on the order the stage table lists them in: with the stages
    reversed it still matches the per-kind check on every (table, subject)
    pair of order 3 on the 1/2 grid."""
    from ifsemigroups import predicates

    assert predicates.KIND_ORDER == tuple(K)
    predicates._scan_index.cache_clear()
    monkeypatch.setattr(predicates, "_STAGES", dict(reversed(predicates._STAGES.items())))
    try:
        subjects = list(sample_ifs(3, SampleSpec(grade_grid_step=F(1, 2))))
        pairs = 0
        for S in enumerate_semigroups(3):
            for A in subjects:
                assert profile(S, A) == {kind: check(kind, S, A) for kind in ALL_KINDS}
                pairs += 1
        assert pairs == 21_357
    finally:
        monkeypatch.undo()
        predicates._scan_index.cache_clear()


# --- differential check of the deduplicated stage scans against a naive scan
# over every tuple, written out from the formulas of the module docstring:
# stage -> (number of points, site, elements of the right side)
NAIVE_STAGES = {
    "subsemigroup": (2, lambda T, x, y: T[x][y], lambda T, x, y: (x, y)),
    "bi_ideal": (3, lambda T, x, y, z: T[T[x][y]][z], lambda T, x, y, z: (x, z)),
    "one_two_ideal": (4, lambda T, x, w, y, z: T[T[x][w]][T[y][z]],
                      lambda T, x, w, y, z: (x, y, z)),
    "left_ideal": (2, lambda T, x, y: T[x][y], lambda T, x, y: (y,)),
    "right_ideal": (2, lambda T, x, y: T[x][y], lambda T, x, y: (x,)),
    "semiprime": (1, lambda T, x: x, lambda T, x: (T[x][x],)),
}
NAIVE_KIND_STAGES = {
    K.SUBSEMIGROUP: ("subsemigroup",),
    K.BI_IDEAL: ("subsemigroup", "bi_ideal"),
    K.ONE_TWO_IDEAL: ("subsemigroup", "one_two_ideal"),
    K.LEFT_IDEAL: ("left_ideal",),
    K.RIGHT_IDEAL: ("right_ideal",),
    K.IDEAL: ("left_ideal", "right_ideal"),
    K.SEMIPRIME: ("left_ideal", "right_ideal", "semiprime"),
}
# the stage whose membership inequality break_property breaks
NAIVE_BREAK_STAGE = {
    K.SUBSEMIGROUP: "subsemigroup",
    K.BI_IDEAL: "bi_ideal",
    K.ONE_TWO_IDEAL: "one_two_ideal",
    K.LEFT_IDEAL: "left_ideal",
    K.RIGHT_IDEAL: "right_ideal",
    K.IDEAL: "left_ideal",
    K.SEMIPRIME: "semiprime",
}


def naive_tuples(S, stage):
    k, site, args = NAIVE_STAGES[stage]
    for points in itertools.product(range(S.order), repeat=k):
        yield points, site(S.table, *points), args(S.table, *points)


def naive_first_violation(S, A, stage):
    for points, p, args in naive_tuples(S, stage):
        low = min(A.mu[a] for a in args)
        if A.mu[p] < low:
            return stage, "mu", points, p, A.mu[p], low
        high = max(A.nu[a] for a in args)
        if A.nu[p] > high:
            return stage, "nu", points, p, A.nu[p], high
    return None


def naive_mutant(S, A, kind):
    for _, p, args in naive_tuples(S, NAIVE_BREAK_STAGE[kind]):
        required = min(A.mu[a] for a in args)
        if required > 0 and p not in args:
            mu = list(A.mu)
            mu[p] = required / 2
            return IFSubset(A.carrier_order, tuple(mu), A.nu)
    return None


def test_deduplicated_scans_match_naive_scan():
    tables = [S for n in (1, 2, 3) for S in enumerate_semigroups(n)]
    tables += [e.semigroup for e in builtin_library() if e.semigroup.order == 4]
    spec = SampleSpec(grade_grid_step=F(1, 2), random_count=8, seed=11)
    violations = mutants = 0
    for S in tables:
        for A in sample_ifs(S.order, spec):
            firsts = {stage: naive_first_violation(S, A, stage) for stage in NAIVE_STAGES}
            for kind in ALL_KINDS:
                expected = next(
                    (firsts[st] for st in NAIVE_KIND_STAGES[kind] if firsts[st]), None
                )
                v = find_violation(kind, S, A)
                got = v and (v.stage, v.component, v.points, v.site, v.lhs, v.rhs)
                assert got == expected, (S.table, A, kind)
                violations += v is not None
                if v is None:
                    assert break_property(S, A, kind) == naive_mutant(S, A, kind)
                    mutants += 1
    assert violations > 0 and mutants > 0


def test_violations_match_a_fraction_scan():
    # find_violation scans the subject's integer view and reads the sides
    # from its Fractions: the whole Violation must equal a Fraction-level scan
    spec = SampleSpec(grade_grid_step=F(1, 2), random_count=64, seed=29)
    found = 0
    for n in (1, 2, 3):
        subjects_n = list(sample_ifs(n, spec))
        for S in enumerate_semigroups(n):
            for A in subjects_n:
                firsts = {stage: naive_first_violation(S, A, stage) for stage in NAIVE_STAGES}
                for kind in ALL_KINDS:
                    expected = next(
                        (Violation(kind, *firsts[st]) for st in NAIVE_KIND_STAGES[kind]
                         if firsts[st]), None
                    )
                    v = find_violation(kind, S, A)
                    assert v == expected, (S.table, A, kind)
                    if v is not None:
                        assert type(v.lhs) is F and type(v.rhs) is F
                        assert replay_violation(S, A, v)
                        found += 1
    assert found > 0


def test_scan_index_holds_no_tautologies():
    # a tuple whose site is one of its argument points can never fail
    # (mu(p) >= min(..., mu(p), ...)), so the index must not scan it
    from ifsemigroups.predicates import _scan_index

    tables = [S for n in (1, 2, 3) for S in enumerate_semigroups(n)]
    tables += [e.semigroup for e in builtin_library()]
    kept = 0
    for S in tables:
        for stage, first in _scan_index(S).items():
            for site, *args in first:
                assert site not in args, (S.table, stage, site, args)
                kept += 1
    assert kept > 0


class TestViolationEdges:
    # on cyclic2, mu = (1/2, 1/4) breaks the left ideal's mu inequality at
    # (1, 0) and nu = (1/4, 1/2) its nu inequality
    A = IFSubset(2, (F(1, 2), F(1, 4)), (F(1, 4), F(1, 2)))
    B = IFSubset(2, (F(1, 2), F(1, 2)), (F(1, 4), F(1, 2)))

    def test_describe_mu_and_nu(self, mod2):
        assert find_violation(K.LEFT_IDEAL, mod2, self.A).describe() == (
            "mu inequality of left_ideal fails at (1, 0): 1/4 < 1/2")
        assert find_violation(K.LEFT_IDEAL, mod2, self.B).describe() == (
            "nu inequality of left_ideal fails at (1, 0): 1/2 > 1/4")

    def test_unknown_kind_refused(self, mod2):
        with pytest.raises(ValueError, match="unknown kind 'left_ideal'"):
            find_violation("left_ideal", mod2, self.A)

    def test_unknown_stage_does_not_replay(self, mod2):
        v = find_violation(K.LEFT_IDEAL, mod2, self.A)
        assert replay_violation(mod2, self.A, v)
        assert replay_violation(mod2, self.A, dataclasses.replace(v, stage="no_such_stage")) is False
