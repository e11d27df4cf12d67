"""The suite sweep's pattern-keyed verdicts against the value-level oracle.

The sweep decides each (semigroup, weak-order pattern) once, from the first
view it meets with that pattern. These tests pin every memoised verdict to
the public predicates evaluated on each subject's own grades, and check the
invariance the memo rests on: a strictly increasing map applied to each
grade map separately changes no verdict.
"""

import functools
import itertools
import math
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
    classify,
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
        # prepared once per carrier order and swept by each table, as in run_suite
        patterns = harness._Patterns()
        chunk = [harness._prepare(A, SPEC, patterns, True) for A in sample_ifs(n, SPEC)]
        subjects = [(pid, _Oracle(A)) for A, pid, _, _ in chunk]
        # the grid's variants share the grid's patterns; the randoms' are checked too
        variants = [
            (vid, _Oracle(magnify(A, TransformParams(beta, alpha))))
            for A, _, _, vs in chunk[-SPEC.random_count:]
            for beta, alpha, vid in vs
        ]
        for S in enumerate_semigroups(n):
            state = harness._TaskState("t", S, classify(S))
            harness._sweep_chunk(state, chunk, harness.THEOREM_IDS, SPEC, patterns)
            assert state.subjects == len(chunk)
            for pid, oracle in subjects + variants:
                assert state.verdicts[pid] == oracle.on(S)
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
    patterns = harness._Patterns()
    chunk = [harness._prepare(A, spec, patterns, True)
             for A in itertools.islice(sample_ifs(3, spec), harness._SUBJECT_CHUNK)]
    states = [harness._TaskState("t", S, classify(S)) for S in enumerate_semigroups(3)]
    assert len(states) == 113
    for state in states:
        harness._sweep_chunk(state, chunk, harness.THEOREM_IDS, spec, patterns)
    verdicts = [v for state in states for v in state.verdicts]
    assert len(verdicts) == 113 * len(patterns.views)
    assert len({id(v) for v in verdicts}) == len(set(verdicts)) < len(verdicts)


def test_order3_grid_has_169_patterns():
    patterns = harness._Patterns()
    for A in sample_ifs(3, SampleSpec()):
        harness._prepare(A, SampleSpec(), patterns, False)
    # 13 weak orders (Fubini(3)) of mu times 13 of nu
    assert len(patterns.views) == 13 * 13


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
