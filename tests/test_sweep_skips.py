"""The sweep's skips of outcomes it already has.

A variant whose mu and nu ints both equal its subject's takes the
subject's pattern without ``_Patterns.pattern``; a block's step list holds
only the variants whose (pattern, variant pattern) pair no earlier step
reached; and each table runs each theorem test once per (subject verdict,
variant verdict) pair among the steps. These tests pin the pattern and
test counts, including under a ``magnify`` that keeps mu and breaks nu;
the sabotage tests of ``test_patterns.py`` pin that the first certificate
does not move.
"""

from collections import Counter, defaultdict
from fractions import Fraction as F

import pytest

from ifsemigroups import SampleSpec, classify, enumerate_semigroups, run_suite, sample_ifs
from ifsemigroups import harness

SINGLE_IDS = [tid for tid in harness.THEOREM_IDS if tid in harness._THEOREMS]
SPEC = SampleSpec(grade_grid_step=F(1, 2))


def test_each_table_tests_each_verdict_pair_once(monkeypatch):
    calls = []
    true_failure = harness._Theorem.failure

    def failure(self, label, T, A, beta, alpha, v, w):
        calls.append((label, self.tid, v, w))
        return true_failure(self, label, T, A, beta, alpha, v, w)

    stepped, pairs = Counter(), defaultdict(set)
    true_chunk = harness._sweep_chunk

    def sweep_chunk(state, block, pids, steps, cap, patterns):
        true_chunk(state, block, pids, steps, cap, patterns)
        for *_, pid, vid in steps:
            stepped[state.label] += 1
            pairs[state.label].add((state.verdicts[pid], state.verdicts[vid]))

    monkeypatch.setattr(harness._Theorem, "failure", failure)
    monkeypatch.setattr(harness, "_sweep_chunk", sweep_chunk)
    assert len(SINGLE_IDS) == 13
    reports = run_suite([1, 2, 3], SPEC, SINGLE_IDS)
    assert all(r.outcome == "verified" for r in reports)

    per_table = Counter(label for label, *_ in calls)
    for label, S in harness._suite_tasks([1, 2, 3], True):
        cls = classify(S)
        active = sum(all(getattr(cls, f) for f in th.flags)
                     for th in harness._THEOREMS.values())
        assert per_table[label] <= len(pairs[label]) * active
    assert calls and len(calls) == len(set(calls))
    # steps of distinct patterns can share a verdict pair on a table, so the
    # bound is below one test per step
    assert sum(map(len, pairs.values())) < sum(stepped.values())


@pytest.mark.parametrize("sabotage", [False, True], ids=["correct", "nu-reversed"])
def test_pattern_is_computed_only_for_variants_with_other_ints(monkeypatch, sabotage):
    made = defaultdict(list)  # id(subject) -> its variants, in order
    true_magnify = harness.magnify

    def magnify(A, params):
        B = true_magnify(A, params)
        if sabotage and params.beta == F(1, 2):
            # mu kept, nu reversed: the mu ints alone cannot tell
            den, mu, nu = B.view
            B = harness._trusted(B.carrier_order, view=(den, mu, nu[::-1]))
        made[id(A)].append(B)
        return B

    computed = []
    true_pattern = harness._Patterns.pattern

    def pattern(self, mu, nu):
        computed.append((mu, nu))
        return true_pattern(self, mu, nu)

    monkeypatch.setattr(harness, "magnify", magnify)
    monkeypatch.setattr(harness._Patterns, "pattern", pattern)
    subjects = list(sample_ifs(3, SPEC))
    # one table whose plan sweeps the single-subject theorems, so that the
    # sweep magnifies its subjects
    S = next(enumerate_semigroups(3))
    harness._sweep([harness._TaskState("t", S, SINGLE_IDS)], subjects,
                   harness._Operands(SPEC))

    expected, same = [], 0
    for A in subjects:
        ints = A.view[1:]
        expected.append(ints)
        expected.extend(B.view[1:] for B in made[id(A)] if B.view[1:] != ints)
        same += sum(B.view[1:] == ints for B in made[id(A)])
    assert computed == expected
    assert same > 0
    if sabotage:
        assert any(B.view[1] == A.view[1] and B.view[2] != A.view[2]
                   for A in subjects for B in made[id(A)])
