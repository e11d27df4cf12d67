"""The suite sweep's pattern-keyed verdicts against the value-level oracle.

The sweep decides each (semigroup, weak-order pattern) once, joined from a
mu half and a nu half that each semigroup decides once per weak order.
These tests pin every memoised verdict to the public predicates evaluated
on each subject's own grades and to the joint scan, count the scans the
split spares, and check the invariance the memo rests on: a strictly
increasing map applied to each grade map separately changes no verdict.
"""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from ifsemigroups import (
    IFSubset,
    NotAGroup,
    PreconditionNotMet,
    SampleSpec,
    THEOREM_IDS,
    TransformParams,
    check_archimedean_constant,
    check_characterization,
    check_group_constant,
    check_semiprime_fixedpoint,
    check_transform_equivalence,
    enumerate_semigroups,
    is_constant,
    magnify,
    profile,
    run_suite,
    sample_ifs,
)
from ifsemigroups import harness, predicates
from ifsemigroups.predicates import KIND_ORDER

from conftest import grades

TABLES = [S for n in (1, 2, 3) for S in enumerate_semigroups(n)]
SPEC = SampleSpec(random_count=64, seed=11)


def _own_view(A):
    """A's grades over their least common denominator, computed here from
    its Fractions rather than taken from the view it carries."""
    den = math.lcm(*[g.denominator for g in A.mu + A.nu])
    return (tuple(g.numerator * (den // g.denominator) for g in A.mu),
            tuple(g.numerator * (den // g.denominator) for g in A.nu))


class _Oracle:
    """The sweep's verdict on one subject, recomputed from its own grades: the
    flags through the public ``profile``, the square and constant tests
    directly on an exact integer view of its Fractions."""

    def __init__(self, A):
        self.A = A
        self.mu, self.nu = _own_view(A)
        self.constant = is_constant(A)

    def on(self, S):
        mu, nu, T = self.mu, self.nu, S.table
        squares = [(x, T[x][x]) for x in S.elements()]
        flags = profile(S, self.A)
        return (
            tuple(flags[k] for k in KIND_ORDER),
            next((x for x, x2 in squares if mu[x] != mu[x2] or nu[x] != nu[x2]), None),
            self.constant,
            next((x for x, x2 in squares if mu[x] < mu[x2] or nu[x] > nu[x2]), None),
        )


def test_memoised_verdicts_match_value_level_oracle():
    checked = 0
    for n in (1, 2, 3):
        # swept once per carrier order past all its tables, as in run_suite
        subjects = list(sample_ifs(n, SPEC))
        states = [harness._TaskState("t", S, harness.THEOREM_IDS)
                  for S in enumerate_semigroups(n)]
        patterns = harness._sweep(states, subjects, harness._Operands(SPEC))
        assert sum(patterns.counts) == len(subjects)
        # the grid's variants share the grid's patterns; the randoms' sampled
        # variants are checked too
        oracles = [(patterns.pattern(*X.view[1:]), _Oracle(X)) for X in subjects + [
            magnify(A, TransformParams(beta, alpha))
            for A in subjects[-SPEC.random_count:]
            for beta in SPEC.beta_grid for alpha in harness.alpha_samples(A, beta)
        ]]
        for state in states:
            for pid, oracle in oracles:
                assert state.verdicts[pid] == oracle.on(state.S)
            checked += len(subjects)
    assert checked == 1 * 10 + 8 * 200 + 113 * 3250 + 122 * SPEC.random_count


def test_suite_certificates_match_single_case_checks(monkeypatch):
    # a transform that breaks order only for some subjects of a pattern, so
    # that subjects sharing a base pattern can differ in their variants
    true_magnify = harness.magnify

    def broken(A, params):
        B = true_magnify(A, params)
        if params.beta == F(1, 2) and A.mu[0] == 1:
            return IFSubset(A.carrier_order, B.mu[::-1], B.nu[::-1])
        return B

    monkeypatch.setattr(harness, "magnify", broken)
    spec = SampleSpec(grade_grid_step=F(1, 2), random_count=16, seed=3)
    subjects = list(sample_ifs(2, spec))
    reports = run_suite([2], spec, theorems=list(harness.EQUIV_THEOREMS),
                        include_library=False)
    tables = dict(harness._suite_tasks([2], include_library=False))
    refuted = 0
    for rep in reports:
        S = tables[rep.semigroup]
        kind = harness.EQUIV_THEOREMS[rep.theorem_id]
        first = next(
            (single.certificate
             for A in subjects
             for beta in spec.beta_grid
             for alpha in harness.alpha_samples(A, beta)
             if (single := check_transform_equivalence(
                 kind, S, A, TransformParams(beta, alpha), rep.semigroup
             )).outcome == "counterexample"),
            None,
        )
        assert rep.certificate == first
        refuted += first is not None
    assert refuted > 0


def test_tables_of_one_order_share_their_verdict_objects():
    # the verdicts are interned per carrier order: the 113 order-3 tables
    # hold one object per distinct verdict, not one per table and pattern
    spec = SampleSpec()
    states = [harness._TaskState("t", S, harness.THEOREM_IDS)
              for S in enumerate_semigroups(3)]
    assert len(states) == 113
    patterns = harness._sweep(states, itertools.islice(sample_ifs(3, spec), harness._SUBJECT_CHUNK),
                              harness._Operands(spec))
    verdicts = [v for state in states for v in state.verdicts]
    assert len(verdicts) == 113 * len(patterns.counts)
    assert len({id(v) for v in verdicts}) == len(set(verdicts)) < len(verdicts)


def test_order3_grid_has_169_patterns():
    spec = SampleSpec()
    patterns = harness._sweep([], sample_ifs(3, spec), harness._Operands(spec))
    # 13 weak orders (Fubini(3)) of mu times 13 of nu
    assert len(patterns.counts) == 13 * 13


def _weak_orders(n):
    """The weak orders of n points: rank tuples that use each rank up to their top."""
    return [w for w in itertools.product(range(n), repeat=n)
            if set(w) == set(range(max(w) + 1))]


def test_joined_verdicts_match_the_joint_scan():
    # one view per (mu weak order, nu weak order), every other one over ints
    # far beyond a machine word; the sweep joins each verdict from its halves
    big = 10**30
    for n, count in ((1, 1), (2, 9), (3, 169)):
        subjects = []
        pairs = itertools.product(_weak_orders(n), repeat=2)
        for i, (mu_order, nu_order) in enumerate(pairs):
            scale, shift = (big + i, big * i) if i % 2 else (1, 0)
            mu = tuple(scale * r + shift for r in mu_order)
            nu = tuple(scale * r + i for r in nu_order)
            subjects.append(harness._trusted(n, view=(max(mu) + max(nu) + 1, mu, nu)))
        states = [harness._TaskState("t", S, ()) for S in enumerate_semigroups(n)]
        patterns = harness._sweep(states, subjects, harness._Operands(SPEC))
        assert len(patterns.counts) == len(subjects) == count
        for state in states:
            idx = predicates._scan_index(state.S)
            for A in subjects:
                pid = patterns.pattern(*A.view[1:])
                assert state.verdicts[pid] == harness._verdict(idx, *A.view[1:])


def test_each_table_scans_two_halves_per_weak_order(monkeypatch):
    # the benchmark's sweep at seed 10: each distinct int tuple of an order
    # gets its weak order once, and each table scans each weak order twice
    # (as mu, then as nu), where one scan per pattern took up to 13 * 13
    true_weak_order, true_pattern = harness._weak_order, harness._Patterns.pattern
    true_verdict = harness._verdict
    ranked, viewed, scans = [], set(), Counter()

    def weak_order(ints):
        ranked.append(ints)
        return true_weak_order(ints)

    def pattern(self, mu, nu):
        viewed.update((mu, nu))
        return true_pattern(self, mu, nu)

    def verdict(idx, mu, nu):
        scans[id(idx), len(mu)] += 1
        return true_verdict(idx, mu, nu)

    monkeypatch.setattr(harness, "_weak_order", weak_order)
    monkeypatch.setattr(harness._Patterns, "pattern", pattern)
    monkeypatch.setattr(harness, "_verdict", verdict)
    single_subject = [t for t in THEOREM_IDS if t in harness._THEOREMS]
    run_suite([1, 2, 3], SampleSpec(random_count=256, seed=10), single_subject,
              include_library=False)

    assert len(ranked) == len(set(ranked))
    assert set(ranked) == viewed
    order_ids = Counter(len(order) for order in {true_weak_order(t) for t in viewed})
    assert order_ids == {1: 1, 2: 3, 3: 13}
    assert len(scans) == len(TABLES)
    assert all(count <= 2 * order_ids[n] for (_, n), count in scans.items())


@st.composite
def _subject_and_maps(draw):
    S = draw(st.sampled_from(TABLES))
    n = S.order
    mu = draw(st.lists(grades, min_size=n, max_size=n))
    nu = draw(st.lists(grades, min_size=n, max_size=n))
    # one strictly increasing map per grade map: the distinct values keep
    # their order, moved to an arbitrary start and spread by arbitrary gaps
    shape = st.tuples(
        st.integers(-5, 5), st.lists(st.integers(1, 1000), min_size=n, max_size=n)
    )
    return S, mu, nu, draw(shape), draw(shape)


def _increasing(values, shape):
    start, gaps = shape
    image, y = {}, F(start)
    for v, g in zip(sorted(set(values)), gaps):
        y += F(g, 7)
        image[v] = y
    return tuple(image[v] for v in values)


@settings(max_examples=300, deadline=None)
@given(_subject_and_maps())
def test_increasing_maps_preserve_verdicts(case):
    S, mu, nu, mu_map, nu_map = case
    idx = predicates._scan_index(S)
    before = harness._verdict(idx, tuple(mu), tuple(nu))
    after = harness._verdict(idx, _increasing(mu, mu_map), _increasing(nu, nu_map))
    assert after == before


_SINGLE_CASE = {
    "group_constant": check_group_constant,
    "fixedpoint": check_semiprime_fixedpoint,
    "archimedean_constant": check_archimedean_constant,
}


def test_every_single_subject_theorem_matches_its_single_case_check(monkeypatch):
    # an order-breaking transform that refutes each of the 13 single-subject
    # theorems on some semigroup; it is a pure function, so memoising it only
    # spares the single-case checks from magnifying the same subject again
    true_magnify = harness.magnify

    @functools.lru_cache(maxsize=None)
    def broken(A, params):
        B = true_magnify(A, params)
        if params.beta == F(1, 2) and A.mu[0] != A.mu[-1]:
            return IFSubset(A.carrier_order, B.mu[::-1], B.nu[::-1])
        if params.beta == F(3, 4) and len(set(A.mu)) == 1:
            return IFSubset(A.carrier_order, (B.mu[0] / 2,) + B.mu[1:], B.nu)
        return B

    monkeypatch.setattr(harness, "magnify", broken)
    spec = SampleSpec(grade_grid_step=F(1, 2), random_count=16, seed=3)
    single_subject = [t for t in THEOREM_IDS if t in harness._THEOREMS]
    assert len(single_subject) == 13
    reports = run_suite([2, 3], spec, theorems=single_subject)
    tables = dict(harness._suite_tasks([2, 3], include_library=True))
    subjects = {n: list(sample_ifs(n, spec)) for n in (2, 3, 4)}

    def first_certificate(check_one, S, label):
        for A in subjects[S.order]:
            for params in [TransformParams(beta, alpha) for beta in spec.beta_grid
                           for alpha in harness.alpha_samples(A, beta)]:
                try:
                    rep = check_one(S, A, params, label)
                except (NotAGroup, PreconditionNotMet):
                    break  # a gate: it refuses A whatever the parameters
                if rep.outcome == "counterexample":
                    return rep.certificate
        return None

    refuted = dict.fromkeys(single_subject, 0)
    for rep in reports:
        S, tid = tables[rep.semigroup], rep.theorem_id
        if tid.startswith("char_"):
            single = check_characterization(tid[len("char_"):], S, spec, label=rep.semigroup)
            assert rep == single
        else:
            check_one = _SINGLE_CASE.get(tid) or functools.partial(
                check_transform_equivalence, harness.EQUIV_THEOREMS[tid]
            )
            assert rep.certificate == first_certificate(check_one, S, rep.semigroup)
        refuted[tid] += rep.outcome == "counterexample"
    assert all(refuted.values()), refuted
