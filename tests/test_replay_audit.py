"""Every certificate the suite and the public checks emit replays.

No correct run emits a counterexample, so each case below breaks a layer the
theorems call, as the failure tests of the pair theorems, of the operand
store and of the pattern memo do:

- ``magnify+product`` and ``check``: the two recorded sabotages of
  ``test_pair_failures.py``;
- ``crisp-product``: ``if_product`` returns the meet of two crisp operands,
  so every non-regular table's characteristic witness satisfies the
  product law;
- ``order-breaking magnify``: ``magnify`` reverses or halves the grades of
  some variants, which refutes every single-subject theorem somewhere and
  makes the converse witnesses of the characterizations fail to break
  semiprimeness.

While the sabotage is in place, every counterexample certificate and every
converse witness of the suite and of the public checks must replay through
``replay_certificate``: a failed converse exhibit included.
"""

import functools
from fractions import Fraction as F

import pytest

from ifsemigroups import (
    IFSubset,
    SampleSpec,
    THEOREM_IDS,
    TransformParams,
    check_characterization,
    check_regular_iff_product,
    check_transform_equivalence,
    enumerate_semigroups,
    replay_certificate,
    run_suite,
)
from ifsemigroups import harness

from test_pair_failures import _magnify_product, _semiprime_check
from test_patterns import _SINGLE_CASE

CHAR_KINDS = ("intra_regular", "left_regular", "right_regular")


def _recorded(sabotage):
    def run(patch):
        runs = []
        sabotage(patch, runs)
        return [r for _, reports in runs for r in reports]
    return run


def _crisp_product(patch):
    true_product = harness.if_product

    def if_product(S, A, B):
        if set(A.mu + B.mu) <= {0, 1}:
            return harness.intersect(A, B)
        return true_product(S, A, B)

    patch(harness, "if_product", if_product)
    spec = SampleSpec(grade_grid_step=F(1, 2), max_pair_subjects=2)
    tables = [S for n in (1, 2, 3) for S in enumerate_semigroups(n)]
    return run_suite([1, 2, 3], spec, ["regular_product"], include_library=False) + [
        check_regular_iff_product(S, spec) for S in tables
    ]


def _order_breaking_magnify(patch):
    true_magnify = harness.magnify

    @functools.lru_cache(maxsize=None)
    def broken(A, params):
        B = true_magnify(A, params)
        if params.beta == F(1, 2) and A.mu[0] != A.mu[-1]:
            return IFSubset(A.carrier_order, B.mu[::-1], B.nu[::-1])
        if params.beta == F(3, 4) and len(set(A.mu)) == 1:
            return IFSubset(A.carrier_order, (B.mu[0] / 2,) + B.mu[1:], B.nu)
        return B

    patch(harness, "magnify", broken)
    spec = SampleSpec(grade_grid_step=F(1, 2))
    single_subject = [t for t in THEOREM_IDS if isinstance(harness._ENTRY[t], harness._Theorem)]
    suite = run_suite([2, 3], spec, single_subject, include_library=False)
    tables = dict(harness._suite_tasks([2, 3], include_library=False))
    public = [
        check_characterization(kind, S, spec, label=label)
        for label, S in tables.items() for kind in CHAR_KINDS
    ]
    for rep in suite:
        c = rep.certificate
        if c is None or rep.theorem_id.startswith("char_"):
            continue
        check_one = _SINGLE_CASE.get(rep.theorem_id) or functools.partial(
            check_transform_equivalence, harness.EQUIV_THEOREMS[rep.theorem_id]
        )
        S = tables[rep.semigroup]
        public.append(check_one(S, IFSubset(S.order, c.mu_a, c.nu_a),
                                TransformParams(c.beta, c.alpha), rep.semigroup))
    return suite + public


@pytest.mark.parametrize("sabotage", [
    _recorded(_magnify_product),
    _recorded(_semiprime_check),
    _crisp_product,
    _order_breaking_magnify,
], ids=["magnify+product", "check", "crisp-product", "order-breaking-magnify"])
def test_every_certificate_and_witness_replays_under_sabotage(sabotage):
    with pytest.MonkeyPatch.context() as mp:
        reports = sabotage(mp.setattr)
        certificates = [r.certificate for r in reports if r.certificate is not None]
        witnesses = [w for r in reports for w in r.witnesses]
        unsound = [c for c in certificates + witnesses if not replay_certificate(c)]
    assert certificates, "the sabotage refutes nothing"
    assert not unsound, (
        f"{len(unsound)} of {len(certificates) + len(witnesses)} do not replay, e.g. "
        f"{sorted({(c.theorem_id, c.detail) for c in unsound})[:4]}"
    )
