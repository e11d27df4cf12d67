"""The report branches of the converse exhibits that no correct run reaches.

Each test breaks one layer the converse of a characterization or of the
regularity/product-law theorem calls, so that one branch of its report is
taken, and pins the outcome, the detail, the certificate kind and the
subject count. The certificate must replay under the same sabotage.
"""

import dataclasses

import pytest

from ifsemigroups import (
    ElementSubset,
    IFSubset,
    check_characterization,
    check_regular_iff_product,
    harness,
    replay_certificate,
)


def _assert_branch(rep, detail, kind, subjects, exhibit_failed):
    cert = rep.certificate
    assert rep.outcome == "counterexample" and not rep.witnesses
    assert cert.detail == detail
    assert cert.kind == kind
    assert cert.exhibit_failed is exhibit_failed
    assert (rep.subjects_checked, rep.hypothesis_skipped) == (subjects, 0)
    assert replay_certificate(cert)


def test_regular_table_with_a_crisp_gap(leftzero2, monkeypatch):
    """Every crisp product is empty: a regular table breaks RL = R n L."""
    monkeypatch.setattr(harness, "multiply_subsets",
                        lambda S, A, B: ElementSubset(S.order, frozenset()))
    rep = check_regular_iff_product(leftzero2)
    _assert_branch(rep, "regular semigroup with RL != R n L", "crisp", 3, False)


def test_crisp_law_against_the_regularity_flag(leftzero2, monkeypatch):
    """leftzero2 is flagged non-regular, yet its crisp law holds throughout."""
    classify = harness.classify
    monkeypatch.setattr(harness, "classify",
                        lambda S: dataclasses.replace(classify(S), regular=False))
    rep = check_regular_iff_product(leftzero2)
    _assert_branch(rep, "crisp product law disagrees with the regularity flag",
                   "crisp_agreement", 3, False)


def test_characterization_witness_that_is_no_relevant_ideal(null2, monkeypatch):
    """The witness is the characteristic pair of the principal ideal's complement."""
    characteristic_pair = harness.characteristic_pair

    def complement(n, X):
        return characteristic_pair(n, ElementSubset(n, frozenset(range(n)) - X.members))

    monkeypatch.setattr(harness, "characteristic_pair", complement)
    rep = check_characterization("intra_regular", null2)
    _assert_branch(rep, "principal-ideal witness fails the relevant ideal predicate",
                   "ideal", 1, True)


@pytest.mark.parametrize("kind, relevant", [
    ("intra_regular", "ideal"), ("left_regular", "left_ideal"),
    ("right_regular", "right_ideal"),
])
def test_characterization_witness_that_breaks_nothing(null2, monkeypatch, kind, relevant):
    """Every magnified subject is flattened to the constants of its first point."""
    magnify = harness.magnify

    def flattened(A, params):
        B = magnify(A, params)
        n = B.carrier_order
        return IFSubset(n, (B.mu[0],) * n, (B.nu[0],) * n)

    monkeypatch.setattr(harness, "magnify", flattened)
    rep = check_characterization(kind, null2)
    _assert_branch(rep, "witness fails to violate the semiprime inequalities",
                   relevant, 1, True)
