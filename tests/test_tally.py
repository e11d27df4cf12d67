"""The sweep's per-table tally against the subjects it counts.

Report assembly takes each table's checked and skipped counts from the
tally the sweep leaves it (profile flags -> swept subjects). The golden
files pin those counts as bytes; here each one is recomputed from the
sampled subjects' public ``profile`` on the table.
"""

from fractions import Fraction as F

from ifsemigroups import (
    FuzzyStructureKind as K,
    SampleSpec,
    classify,
    enumerate_semigroups,
    profile,
    run_suite,
    sample_ifs,
)
from ifsemigroups.harness import subject_count

SPEC = SampleSpec(grade_grid_step=F(1, 2), random_count=16, seed=3)

# theorem -> (the classify flag it needs, or None; the property its subjects must have)
PRECONDITIONS = {
    "fixedpoint": (None, K.SEMIPRIME),
    "char_intra_regular": ("intra_regular", K.IDEAL),
    "char_left_regular": ("left_regular", K.LEFT_IDEAL),
    "char_right_regular": ("right_regular", K.RIGHT_IDEAL),
    "archimedean_constant": ("archimedean", K.SEMIPRIME),
}


def test_counts_match_the_subjects_public_profiles():
    tids = [*PRECONDITIONS, "regular_product"]
    reports = {}
    for rep in run_suite([1, 2, 3], SPEC, theorems=tids, include_library=False):
        reports.setdefault(rep.semigroup, {})[rep.theorem_id] = rep
    tables = [(f"order{n}/{i:03d}", S)
              for n in (1, 2, 3) for i, S in enumerate(enumerate_semigroups(n))]
    assert len(tables) == len(reports) == 122
    held = dict.fromkeys(tids, 0)  # tables on which each theorem's hypothesis holds
    for label, S in tables:
        cls, reps = classify(S), reports[label]
        profiles = [profile(S, A) for A in sample_ifs(S.order, SPEC)]
        total = subject_count(S.order, SPEC)
        assert len(profiles) == total
        for tid, (flag, kind) in PRECONDITIONS.items():
            if flag is not None and not getattr(cls, flag):
                continue
            rep = reps[tid]
            assert rep.subjects_checked == sum(p[kind] for p in profiles), (label, tid)
            assert rep.subjects_checked + rep.hypothesis_skipped == total, (label, tid)
            held[tid] += 1
        if cls.regular:
            neither = sum(not (p[K.RIGHT_IDEAL] or p[K.LEFT_IDEAL]) for p in profiles)
            assert reps["regular_product"].hypothesis_skipped == neither, label
            held["regular_product"] += 1
    assert all(held.values()), held
