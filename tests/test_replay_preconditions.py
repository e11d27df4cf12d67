"""``replay_certificate`` checks the operands of a pair certificate.

On ``null2`` the subject mu = (0, 1), nu = (1, 0) is no bi-ideal,
(1,2)-ideal, right ideal or left ideal, and the laws of the product
theorems and of ``regular_product`` fail on it with itself. A certificate
naming it as both operands claims a theorem fails where its precondition
does not hold, so it must not replay.
"""

from fractions import Fraction as F

import pytest

from ifsemigroups import FuzzyStructureKind as K
from ifsemigroups import IFSubset, check, replay_certificate
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
