"""Each table decides once which requested theorems it runs.

``run_suite`` builds one plan per table from the requested ids: the ids
whose hypothesis the table has, which the sweep and report assembly then
read. So each entry's ``holds`` is called exactly once per (table,
requested theorem), and never for a theorem that was not requested.
"""

from collections import Counter
from fractions import Fraction as F

import pytest

from ifsemigroups import SampleSpec, run_suite
from ifsemigroups import harness

SPEC = SampleSpec(grade_grid_step=F(1, 2), random_count=4, seed=1, max_pair_subjects=4)


@pytest.mark.parametrize("tids", [
    harness.THEOREM_IDS,
    ("group_constant", "semiprime_intersection", "char_left_regular", "regular_product"),
], ids=["all", "mixed"])
def test_holds_is_called_once_per_table_and_requested_theorem(monkeypatch, tids):
    calls = Counter()
    for entry in (harness._Theorem, harness._PairTheorem):
        def holds(self, cls, true_holds=entry.holds):
            calls[self.tid] += 1
            return true_holds(self, cls)
        monkeypatch.setattr(entry, "holds", holds)
    reports = run_suite([1, 2], SPEC, tids)
    tables = len(harness._suite_tasks([1, 2], True))
    assert len(reports) == tables * len(tids)
    assert calls == Counter(dict.fromkeys(tids, tables))
