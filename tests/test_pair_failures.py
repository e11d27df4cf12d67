"""The pair theorems' failure paths, pinned byte for byte.

No correct run refutes a pair theorem, so these tests break the layers the
pair cores call and record what the suite and the public pair checks
report. Two sabotages are recorded in ``data/pair_failures.txt``:

- ``magnify+product``: ``magnify`` reverses its output grades when
  beta = 1/2, and ``if_product`` halves the membership of point 0. Over
  every table of order <= 3 at the 1/2 grid this refutes the magnified
  branches of all four pair theorems, the plain branch of
  ``regular_product`` and its non-regular witness's magnified branch.
- ``check``: the semiprime predicate rejects each intersection of two
  sampled subjects that is not itself sampled, which refutes the plain
  branch of ``semiprime_intersection``.

The public checks are called on the operands (and parameters) of every
suite counterexample, and ``check_regular_iff_product`` on every refuted
table. Certificates replay under the same sabotage, so every refutation
also passes the certificate audit. Run this file as a script to rewrite
the recording.
"""

from fractions import Fraction as F
from pathlib import Path

import pytest

from ifsemigroups import (
    IFSubset,
    SampleSpec,
    TransformParams,
    check_product_inclusions,
    check_regular_iff_product,
    check_semiprime_intersection,
    enumerate_semigroups,
    intersect,
    run_suite,
    sample_ifs,
)
from ifsemigroups import harness
from ifsemigroups.cli import _report_machine
from ifsemigroups.predicates import FuzzyStructureKind as K

RECORDING = Path(__file__).parent / "data" / "pair_failures.txt"
PAIR_IDS = ["semiprime_intersection", "product_bi_ideal", "product_one_two_ideal",
            "regular_product"]
PAIR_KINDS = {"product_bi_ideal": "bi_ideal_pair", "product_one_two_ideal": "one_two_pair"}


def _tables(orders):
    return {
        f"order{n}/{i:03d}": S for n in orders for i, S in enumerate(enumerate_semigroups(n))
    }


def _public_reports(reports, spec, orders):
    """Each public pair check on the operands of each suite counterexample."""
    tables = _tables(orders)
    out = []
    for rep in reports:
        c = rep.certificate
        if c is None:
            continue
        S = tables[rep.semigroup]
        if rep.theorem_id == "regular_product":
            out.append(check_regular_iff_product(S, spec, label=rep.semigroup))
            continue
        A = IFSubset(S.order, c.mu_a, c.nu_a)
        B = IFSubset(S.order, c.mu_b, c.nu_b)
        if rep.theorem_id == "semiprime_intersection":
            out.append(check_semiprime_intersection(S, A, B, spec, rep.semigroup))
        else:
            out.append(check_product_inclusions(
                S, A, B, TransformParams(c.beta, c.alpha), PAIR_KINDS[rep.theorem_id],
                rep.semigroup,
            ))
    return out


def _run(name, orders, spec, theorems, runs):
    reports = run_suite(orders, spec, theorems, include_library=False)
    runs.append((f"# {name}: suite", reports))
    runs.append((f"# {name}: public", _public_reports(reports, spec, orders)))


def _magnify_product(patch, runs):
    true_magnify, true_product = harness.magnify, harness.if_product

    def magnify(A, params):
        B = true_magnify(A, params)
        if params.beta == F(1, 2):
            return IFSubset(B.carrier_order, B.mu[::-1], B.nu[::-1])
        return B

    def if_product(S, A, B):
        P = true_product(S, A, B)
        return IFSubset(P.carrier_order, (P.mu[0] / 2,) + P.mu[1:], P.nu)

    patch(harness, "magnify", magnify)
    patch(harness, "if_product", if_product)
    spec = SampleSpec(grade_grid_step=F(1, 2), max_pair_subjects=4)
    _run("magnify+product", [1, 2, 3], spec, PAIR_IDS, runs)


def _semiprime_check(patch, runs):
    orders = [1, 2]
    spec = SampleSpec(grade_grid_step=F(1), random_count=8, seed=3)
    sampled = {A for n in orders for A in sample_ifs(n, spec)}
    meets = {
        intersect(A, B) for A in sampled for B in sampled
        if A.carrier_order == B.carrier_order
    } - sampled
    true_check = harness.check

    def check(kind, S, A):
        return true_check(kind, S, A) and not (kind is K.SEMIPRIME and A in meets)

    patch(harness, "check", check)
    _run("check", orders, spec, ["semiprime_intersection"], runs)


def _runs():
    """(heading, reports) of each sabotaged suite run and its public checks."""
    runs = []
    for sabotage in (_magnify_product, _semiprime_check):
        with pytest.MonkeyPatch.context() as mp:
            sabotage(mp.setattr, runs)
    return runs


def _text(runs) -> str:
    return "".join(
        f"{heading}\n" + "".join(_report_machine(r) + "\n" for r in reports)
        for heading, reports in runs
    )


def test_pair_failure_paths_match_recording():
    runs = _runs()
    assert _text(runs) == RECORDING.read_text(encoding="utf-8")
    # every failure branch of the pair cores, in the suite and in the public checks
    details = {
        (heading.split(": ")[1], r.certificate.detail)
        for heading, reports in runs for r in reports if r.certificate is not None
    }
    for caller in ("suite", "public"):
        for detail in (
            "plain intersection is not semiprime",
            "magnified intersection is not semiprime",
            "magnified intersection escapes a magnified product",
            "product differs from intersection on a regular semigroup",
            "magnified product differs from magnified intersection",
            "magnified witness unexpectedly satisfies the product law",
        ):
            assert (caller, detail) in details


if __name__ == "__main__":
    import sys

    text = _text(_runs())
    RECORDING.write_text(text, encoding="utf-8")
    sys.stdout.write(f"wrote {len(text.splitlines())} lines to {RECORDING}\n")
