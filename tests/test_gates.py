"""The gates of the public checks, the lemma that lets the pair theorems
test every pair of semiprime passers without an empty-meet gate, and a
public call that raises each error class the library defines."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ifsemigroups import (
    CarrierMismatch,
    ElementSubset,
    FuzzyStructureKind as K,
    HypothesisNotMet,
    IFSubset,
    PreconditionNotMet,
    SampleSpec,
    Semigroup,
    TransformParams,
    as_grade,
    break_property,
    builtin_library,
    characteristic_pair,
    check,
    check_archimedean_constant,
    check_characterization,
    check_group_constant,
    check_product_inclusions,
    check_regular_iff_product,
    check_semiprime_fixedpoint,
    check_semiprime_intersection,
    check_transform_equivalence,
    enumerate_semigroups,
    find_violation,
    intersect,
    is_nonempty,
    library_entry,
    magnify,
    principal_two_sided_ideal,
)
from ifsemigroups import errors
from ifsemigroups.semigroups import regularity_gap

from conftest import grades

TABLES = [S for n in (1, 2, 3) for S in enumerate_semigroups(n)]
TABLES += [entry.semigroup for entry in builtin_library()]


@st.composite
def ideal_pairs(draw):
    """A table and two fuzzy ideals on it: mu(x) is the largest drawn grade
    of an element whose principal ideal holds x, nu(x) the smallest, capped
    at 1 - mu(x)."""
    S = draw(st.sampled_from(TABLES))
    holders = [[y for y in S.elements() if x in principal_two_sided_ideal(S, y).members]
               for x in S.elements()]

    def ideal():
        g = draw(st.lists(grades, min_size=S.order, max_size=S.order))
        h = draw(st.lists(grades, min_size=S.order, max_size=S.order))
        mu = tuple(max(g[y] for y in ys) for ys in holders)
        nu = tuple(min(min(h[y] for y in ys), 1 - m) for ys, m in zip(holders, mu))
        assume(any(mu))
        return IFSubset(S.order, mu, nu)

    return S, ideal(), ideal()


@settings(max_examples=300, deadline=None)
@given(ideal_pairs())
def test_two_fuzzy_ideals_always_meet(pair):
    """The support of a fuzzy ideal is an ideal, and ideals I, J meet, since
    IJ lies in both: so no pair of ideal subjects has an empty intersection."""
    S, A, B = pair
    assert check(K.IDEAL, S, A) and check(K.IDEAL, S, B)
    assert is_nonempty(intersect(A, B))


CYCLIC2, LEFTZERO2, NULL2, SEMILATTICE2 = (
    library_entry(name).semigroup for name in ("cyclic2", "leftzero2", "null2", "semilattice2")
)
CONSTANT = IFSubset(2, (F(1, 2), F(1, 2)), (F(1, 4), F(1, 4)))  # passes every precondition
CHI0 = characteristic_pair(2, ElementSubset(2, frozenset({0})))  # no bi-ideal of the group
NOT_SEMIPRIME = IFSubset(2, (F(1), F(1, 2)), (F(0), F(1, 4)))  # on the null table
THREE_POINTS = IFSubset(3, (F(1, 2),) * 3, (F(0),) * 3)
P = TransformParams(F(1), F(0))
COSTLY = SampleSpec(grade_grid_step=F(1, 100))

# (public check, gate, call, the error it raises). What failed decides the
# error: a semigroup gate raises HypothesisNotMet, a subject (operand) gate
# PreconditionNotMet, whichever check finds it
REFUSALS = [
    ("check_transform_equivalence", "carrier",
     lambda: check_transform_equivalence(K.IDEAL, CYCLIC2, THREE_POINTS, P), CarrierMismatch),
    ("check_group_constant", "semigroup",
     lambda: check_group_constant(LEFTZERO2, CONSTANT, P), HypothesisNotMet),
    ("check_group_constant", "carrier",
     lambda: check_group_constant(CYCLIC2, THREE_POINTS, P), CarrierMismatch),
    ("check_semiprime_fixedpoint", "operand",
     lambda: check_semiprime_fixedpoint(CYCLIC2, CHI0, P), PreconditionNotMet),
    ("check_semiprime_fixedpoint", "carrier",
     lambda: check_semiprime_fixedpoint(CYCLIC2, THREE_POINTS, P), CarrierMismatch),
    ("check_archimedean_constant", "semigroup",
     lambda: check_archimedean_constant(SEMILATTICE2, CONSTANT, P), HypothesisNotMet),
    ("check_archimedean_constant", "operand",
     lambda: check_archimedean_constant(NULL2, NOT_SEMIPRIME, P), PreconditionNotMet),
    ("check_archimedean_constant", "carrier",
     lambda: check_archimedean_constant(NULL2, THREE_POINTS, P), CarrierMismatch),
    ("check_semiprime_intersection", "operand",
     lambda: check_semiprime_intersection(CYCLIC2, CHI0, CONSTANT), PreconditionNotMet),
    ("check_semiprime_intersection", "second operand",
     lambda: check_semiprime_intersection(CYCLIC2, CONSTANT, CHI0), PreconditionNotMet),
    ("check_semiprime_intersection", "carrier",
     lambda: check_semiprime_intersection(CYCLIC2, CONSTANT, THREE_POINTS), CarrierMismatch),
    ("check_product_inclusions", "semigroup",
     lambda: check_product_inclusions(NULL2, CONSTANT, CONSTANT, P, "bi_ideal_pair"),
     HypothesisNotMet),
    ("check_product_inclusions", "operand",
     lambda: check_product_inclusions(CYCLIC2, CONSTANT, CHI0, P, "bi_ideal_pair"),
     PreconditionNotMet),
    ("check_product_inclusions", "kind",
     lambda: check_product_inclusions(LEFTZERO2, CONSTANT, CONSTANT, P, "bogus"), ValueError),
    ("check_product_inclusions", "carrier",
     lambda: check_product_inclusions(LEFTZERO2, CONSTANT, THREE_POINTS, P, "one_two_pair"),
     CarrierMismatch),
    ("check_characterization", "kind",
     lambda: check_characterization("bogus", NULL2), ValueError),
    ("check_characterization", "cost",
     lambda: check_characterization("left_regular", CYCLIC2, COSTLY), ValueError),
    ("check_regular_iff_product", "cost",
     lambda: check_regular_iff_product(CYCLIC2, COSTLY), ValueError),
]


@pytest.mark.parametrize("name, gate, call, error", REFUSALS,
                         ids=[f"{name}-{gate}" for name, gate, _, _ in REFUSALS])
def test_public_check_refuses_at_each_gate(name, gate, call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("kind", ["ideal", None, 3])
def test_equivalence_check_refuses_a_kind_that_is_not_a_structure_kind(kind):
    """Like ``find_violation``, the equivalence check names an unknown kind
    in a ValueError rather than failing on the kind's missing ``value``."""
    with pytest.raises(ValueError, match="unknown kind"):
        check_transform_equivalence(kind, CYCLIC2, CONSTANT, P)


# (public function, call, kind): each names an unknown kind, hashable or not, in a ValueError
UNKNOWN_KINDS = [
    ("find_violation", lambda kind: find_violation(kind, CYCLIC2, CONSTANT), ["ideal"]),
    ("check", lambda kind: check(kind, CYCLIC2, CONSTANT), ["ideal"]),
    ("break_property", lambda kind: break_property(CYCLIC2, CONSTANT, kind), ["ideal"]),
    ("check_product_inclusions",
     lambda kind: check_product_inclusions(CYCLIC2, CONSTANT, CONSTANT, P, kind),
     ["bi_ideal_pair"]),
    ("regularity_gap", lambda kind: regularity_gap(CYCLIC2, kind), "bogus"),
    ("regularity_gap", lambda kind: regularity_gap(CYCLIC2, kind), ["regular"]),
]


@pytest.mark.parametrize("name, call, kind", UNKNOWN_KINDS,
                         ids=[f"{name}-{kind!r}" for name, _, kind in UNKNOWN_KINDS])
def test_an_unknown_kind_is_a_value_error_naming_it(name, call, kind):
    with pytest.raises(ValueError, match=rf"unknown .*kind {re.escape(repr(kind))}"):
        call(kind)


# each error class of ifsemigroups.errors but the base IfsgError, and a public call raising it
RAISERS = {
    errors.ParseError: lambda: Semigroup(0, ()),
    errors.OrderTooLarge: lambda: list(enumerate_semigroups(4)),
    errors.AssociativityViolation: lambda: Semigroup(2, ((1, 1), (0, 0))),
    errors.CarrierMismatch: lambda: check(K.IDEAL, CYCLIC2, THREE_POINTS),
    errors.EmptySubset: lambda: check(K.IDEAL, CYCLIC2, IFSubset(2, (0, 0), (1, 1))),
    errors.GradeOutOfRange: lambda: as_grade("3/2"),
    errors.SumConstraintViolation: lambda: IFSubset(1, (F(1),), (F(1, 2),)),
    errors.BetaOutOfRange: lambda: TransformParams(F(2), F(0)),
    errors.AlphaOutOfRange: lambda: magnify(CONSTANT, TransformParams(F(1), F(1, 2))),
    errors.PreconditionNotMet: lambda: check_semiprime_fixedpoint(CYCLIC2, CHI0, P),
    errors.HypothesisNotMet: lambda: check_group_constant(LEFTZERO2, CONSTANT, P),
}


def test_every_error_class_is_raised_by_a_public_call():
    """No error class outlives its last raise: every class the library
    defines, the base ``IfsgError`` aside, is raised as itself by a public call."""
    defined = {c for c in vars(errors).values()
               if isinstance(c, type) and c.__module__ == errors.__name__}
    assert set(RAISERS) == defined - {errors.IfsgError}
    for error, call in RAISERS.items():
        with pytest.raises(error) as exc:
            call()
        assert type(exc.value) is error
