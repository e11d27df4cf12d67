"""The sweep's cost guard: subject counts in closed form, refused above a cap.

``run_suite`` counts each carrier order's subjects before sweeping
(|grid pairs|^n - |nu values|^n + random_count, without building the grid)
and refuses any order above ``MAX_SUBJECTS_PER_ORDER``.
"""

import time
from fractions import Fraction as F

import pytest

from ifsemigroups import SampleSpec, run_suite, sample_ifs
from ifsemigroups.cli import main
from ifsemigroups.harness import MAX_SUBJECTS_PER_ORDER, subject_count


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_counts_the_sampled_subjects(k, n):
    spec = SampleSpec(grade_grid_step=F(1, k), random_count=3, seed=1)
    assert subject_count(n, spec) == sum(1 for _ in sample_ifs(n, spec))


@pytest.mark.parametrize("spec", [
    SampleSpec(),  # the default check, and the acceptance sweep
    SampleSpec(random_count=256),
    SampleSpec(grade_grid_step=F(1, 2), random_count=64),
    SampleSpec(grade_grid_step=F(1, 3), random_count=256),
], ids=["default", "quarter_r256", "half_r64", "third_r256"])
def test_recorded_specs_stay_under_the_cap(spec):
    # orders 1-3 are enumerated; the library reaches order 4
    for n in (1, 2, 3, 4):
        assert subject_count(n, spec) <= MAX_SUBJECTS_PER_ORDER


def test_fine_grid_is_refused_within_a_second(capsys):
    start = time.perf_counter()
    assert main(["check", "--grid-step", "1/100"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: order 2 has more than 1000000 sampled subjects")


def test_refusal_comes_before_any_sweep(monkeypatch):
    monkeypatch.setattr("ifsemigroups.harness._sweep", pytest.fail)
    huge = SampleSpec(grade_grid_step=F(1, 10**6))
    for n in (1, 3):
        with pytest.raises(ValueError, match=f"order {n} has more than"):
            run_suite([n], huge, include_library=False)
