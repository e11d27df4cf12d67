"""``replay_certificate`` checks the operands of a pair certificate.

On ``null2`` the subject mu = (0, 1), nu = (1, 0) is no bi-ideal,
(1,2)-ideal, right ideal or left ideal, and the laws of the product
theorems and of ``regular_product`` fail on it with itself. A certificate
naming it as both operands claims a theorem fails where its precondition
does not hold, so it must not replay.

A certificate that lacks a field its branch reads (a beta where only a
magnified failure is claimed, a second subject, a ``char_*`` kind or point)
claims nothing and replays False, while bad data in the fields it has
still raises its ``IfsgError``.
"""

from fractions import Fraction as F

import pytest

from ifsemigroups import FuzzyStructureKind as K
from ifsemigroups import IFSubset, check, harness, replay_certificate
from ifsemigroups.errors import AssociativityViolation, GradeOutOfRange
from ifsemigroups.harness import Certificate

MU, NU = (F(0), F(1)), (F(1), F(0))


@pytest.mark.parametrize("tid, fields", [
    ("product_bi_ideal", {"beta": F(1), "alpha": F(0)}),
    ("product_one_two_ideal", {"beta": F(1), "alpha": F(0)}),
    ("regular_product", {"kind": "fuzzy"}),
    ("regular_product", {"kind": "magnified", "beta": F(1), "alpha": F(0)}),
], ids=["bi_ideal", "one_two_ideal", "fuzzy", "magnified"])
def test_operands_failing_the_precondition_do_not_replay(null2, tid, fields):
    A = IFSubset(2, MU, NU)
    assert not any(check(kind, null2, A) for kind in
                   (K.BI_IDEAL, K.ONE_TWO_IDEAL, K.RIGHT_IDEAL, K.LEFT_IDEAL))
    cert = Certificate(tid, "null2", null2.table, MU, NU, MU, NU, **fields)
    assert not replay_certificate(cert)


# a constant subject on cyclic2 is an ideal of every kind and semiprime, so
# each branch gets past its precondition to the field it lacks
CONST_MU, CONST_NU = (F(1, 2), F(1, 2)), (F(1, 4), F(1, 4))
MAGNIFIED = {"beta": F(1, 2), "alpha": F(0)}


@pytest.mark.parametrize("tid, fields", [
    ("equiv_ideal", {}),
    ("group_constant", {}),
    ("fixedpoint", {}),
    ("archimedean_constant", {}),
    ("product_bi_ideal", {"mu_b": CONST_MU, "nu_b": CONST_NU}),
    ("product_one_two_ideal", {"mu_b": CONST_MU, "nu_b": CONST_NU}),
    ("semiprime_intersection", MAGNIFIED),
    ("char_left_regular", {"points": (0,), **MAGNIFIED}),
    ("char_left_regular", {"kind": "left_ideal", **MAGNIFIED}),
    ("regular_product", {"kind": "crisp"}),
], ids=["equiv-no-beta", "group-no-beta", "fixedpoint-no-beta", "archimedean-no-beta",
        "bi-pair-no-beta", "one-two-pair-no-beta", "intersection-no-b", "char-no-kind",
        "char-no-points", "crisp-no-b"])
def test_certificate_lacking_a_field_does_not_replay(mod2, tid, fields):
    cert = Certificate(tid, "cyclic2", mod2.table, CONST_MU, CONST_NU, **fields)
    assert replay_certificate(cert) is False


@pytest.mark.parametrize("table, mu, error", [
    (((0, 0), (0, 0)), (F(1, 2), F(3, 2)), GradeOutOfRange),
    (((1, 0), (0, 0)), CONST_MU, AssociativityViolation),
], ids=["bad-grade", "non-associative"])
def test_bad_data_still_raises(table, mu, error):
    # the field checks come after the table and the first subject are built
    cert = Certificate("equiv_ideal", "bad", table, mu, CONST_NU)
    with pytest.raises(error):
        replay_certificate(cert)


# mu = (1/2, 1/4) is no ideal of cyclic2, so no semiprime ideal either
LOPSIDED_MU, LOPSIDED_NU = (F(1, 2), F(1, 4)), (F(1, 4), F(1, 2))


@pytest.mark.parametrize("tid, fields", [
    ("fixedpoint", {}),
    ("semiprime_intersection", {"mu_b": CONST_MU, "nu_b": CONST_NU}),
], ids=["fixedpoint", "intersection"])
def test_subject_failing_semiprime_does_not_replay(mod2, tid, fields):
    A = IFSubset(2, LOPSIDED_MU, LOPSIDED_NU)
    assert not check(K.SEMIPRIME, mod2, A)
    cert = Certificate(tid, "cyclic2", mod2.table, LOPSIDED_MU, LOPSIDED_NU,
                       beta=F(1, 2), alpha=F(0), **fields)
    assert replay_certificate(cert) is False


def test_unknown_theorem_id_does_not_replay(mod2):
    cert = Certificate("no_such_theorem", "cyclic2", mod2.table, CONST_MU, CONST_NU,
                       CONST_MU, CONST_NU, beta=F(1, 2), alpha=F(0))
    assert replay_certificate(cert) is False


def test_report_refuses_a_certificate_that_does_not_replay(mod2):
    # a constant subject's magnification is constant: no failure to certify
    cert = Certificate("archimedean_constant", "cyclic2", mod2.table, CONST_MU, CONST_NU,
                       beta=F(1, 2), alpha=F(0))
    assert not replay_certificate(cert)
    with pytest.raises(AssertionError, match="unsound certificate for archimedean_constant"):
        harness._report("archimedean_constant", "cyclic2", 1, 0, cert)
