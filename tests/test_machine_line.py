"""The benchmark's record writer against the CLI's ``--machine`` writer.

``perfbench/workloads.machine_line`` writes the ``# ifsg-reports v1``
record from the README's schema, apart from ``cli._report_machine``, so
that a refactor of the CLI cannot change what the benchmark compares. The
two must still write the same line for every report. A sabotaged run
gives certificates with and without each optional field group: the second
subject, (beta, alpha), the kind and the points. The benchmark module is
run from its path, which writes no bytecode beside it.
"""

import runpy
from fractions import Fraction as F
from pathlib import Path

from ifsemigroups import IFSubset, SampleSpec, harness, run_suite
from ifsemigroups.cli import _report_machine

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _reversed(fn, when=lambda *args: True):
    """``fn`` with its result's grades reversed where ``when(*args)`` holds."""
    def reversing(*args):
        X = fn(*args)
        if when(*args):
            return IFSubset(X.carrier_order, X.mu[::-1], X.nu[::-1])
        return X
    return reversing


def test_benchmark_and_cli_write_the_same_line(monkeypatch):
    machine_line = runpy.run_path(str(WORKLOADS))["machine_line"]
    # a reversed magnification at beta = 1/2 breaks the magnified laws; a
    # reversed intersection breaks semiprime_intersection's plain law
    monkeypatch.setattr(harness, "magnify", _reversed(
        harness.magnify, lambda A, params: params.beta == F(1, 2)))
    monkeypatch.setattr(harness, "intersect", _reversed(harness.intersect))
    reports = run_suite([1, 2], SampleSpec(grade_grid_step=F(1, 2)), include_library=False)

    certs = [r.certificate for r in reports if r.certificate is not None]
    for present in (lambda c: c.mu_b is not None and c.nu_b is not None,
                    lambda c: c.beta is not None and c.alpha is not None,
                    lambda c: c.kind is not None,
                    lambda c: bool(c.points)):
        assert {present(c) for c in certs} == {True, False}
    assert [machine_line(r) for r in reports] == [_report_machine(r) for r in reports]
