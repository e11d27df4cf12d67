"""The one-table checks and selective runs against the full suite.

``run_suite``, ``check_characterization`` and ``check_regular_iff_product``
share one driver. A one-table check must report exactly what the suite
reports for that table, a theorem requested alone exactly what it reports
among all theorems, and a table whose hypothesis fails is reported without
sampling a subject.
"""

import functools
from fractions import Fraction as F

import pytest

from ifsemigroups import (
    SampleSpec,
    builtin_library,
    check_characterization,
    check_regular_iff_product,
    enumerate_semigroups,
    harness,
    library_entry,
    run_suite,
)
from ifsemigroups.harness import THEOREM_IDS

SPEC = SampleSpec(grade_grid_step=F(1, 2), random_count=4, seed=1, max_pair_subjects=4)
KINDS = ("intra_regular", "left_regular", "right_regular")

TABLES = [(f"order{n}/{i:03d}", S) for n in (1, 2, 3) for i, S in enumerate(enumerate_semigroups(n))]
TABLES += [(f"lib:{entry.name}", entry.semigroup) for entry in builtin_library()]


@functools.cache
def full_run() -> tuple:
    return tuple(run_suite([1, 2, 3], SPEC))


def test_one_table_checks_equal_the_suite_reports():
    tids = [*(f"char_{kind}" for kind in KINDS), "regular_product"]
    suite = {(r.semigroup, r.theorem_id): r for r in run_suite([1, 2, 3], SPEC, tids)}
    assert len(suite) == 4 * len(TABLES) == 540
    for label, S in TABLES:
        for kind in KINDS:
            assert check_characterization(kind, S, SPEC, label) == suite[label, f"char_{kind}"]
        assert check_regular_iff_product(S, SPEC, label) == suite[label, "regular_product"]


@pytest.mark.parametrize("tid", THEOREM_IDS)
def test_a_theorem_alone_reports_as_among_all(tid):
    alone = run_suite([1, 2, 3], SPEC, tid)
    assert alone == [r for r in full_run() if r.theorem_id == tid]


def test_a_failed_hypothesis_samples_no_subject(monkeypatch):
    def refuse(*args):
        raise AssertionError("sample_ifs called")

    monkeypatch.setattr(harness, "sample_ifs", refuse)
    chain4 = library_entry("chain4").semigroup  # not left regular
    null3 = library_entry("null3").semigroup  # not regular
    for report in (check_characterization("left_regular", chain4),
                   check_regular_iff_product(null3)):
        assert report.outcome == "verified" and report.witnesses
