from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from ifsemigroups import (
    CarrierMismatch,
    ElementSubset,
    EmptySubset,
    GradeOutOfRange,
    IFSubset,
    ParseError,
    SumConstraintViolation,
    as_grade,
    characteristic_pair,
    format_ifs,
    ifs_eq,
    ifs_leq,
    intersect,
    is_constant,
    is_nonempty,
    parse_ifs,
    validate_ifs,
)

from conftest import subjects


class TestGrades:
    def test_decimal_and_ratio_parse_exactly(self):
        assert as_grade("0.25") == F(1, 4)
        assert as_grade("1/4") == F(1, 4)
        assert as_grade("0.04") == F(1, 25)

    def test_range_enforced(self):
        with pytest.raises(GradeOutOfRange):
            as_grade("3/2")
        with pytest.raises(GradeOutOfRange):
            as_grade(-1)

    def test_floats_rejected(self):
        with pytest.raises(ParseError):
            as_grade(0.25)

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            as_grade("one half")

    @pytest.mark.parametrize("call, message", [
        (lambda: validate_ifs(1, [True], [False]), "grade at 0 = True is a bool"),
        (lambda: validate_ifs(1, [F(1, 2)], [None]), "grade at 0 = None is not exact"),
        (lambda: as_grade(None), "grade = None is not exact"),
        (lambda: as_grade(False, "beta"), "beta = False is a bool"),
    ], ids=["bool", "None-in-a-map", "None", "named"])
    def test_a_grade_neither_text_nor_exact_is_refused_by_point(self, call, message):
        """As ``IFSubset`` refuses it: a bool was taken as 0 or 1, and None
        raised a bare TypeError."""
        with pytest.raises(ParseError, match=f"^{message}: pass an int or Fraction$"):
            call()

    def test_exponent_is_bounded_before_expansion(self):
        # Fraction would build 10**|e| first; int()'s 4300-digit limit is the bound
        assert as_grade("1e-2") == F(1, 100)
        assert as_grade("25E-2") == F(1, 4)
        assert as_grade("1e-4300") == F(1, 10**4300)
        for text in ("1e-4301", "1e4301", "1e-999999999", "0.5E+999999999"):
            with pytest.raises(ParseError, match="exponent"):
                as_grade(text)


class TestValidateIfs:
    def test_worked_example_grades_valid(self, worked_subject):
        assert worked_subject.mu == (F(3, 10), F(1, 10), F(1, 2))
        assert worked_subject.nu == (F(2, 5), F(1, 4), F(3, 10))

    def test_crisp_full_set(self):
        A = validate_ifs(2, [1, 1], [0, 0])
        assert A.mu == (F(1), F(1))

    def test_sum_constraint_reported_at_point(self):
        with pytest.raises(SumConstraintViolation) as exc:
            validate_ifs(2, ["0.7", "0"], ["0.5", "0"])
        assert exc.value.point == 0
        assert exc.value.total == F(6, 5)

    def test_float_grades_are_refused(self):
        with pytest.raises(ParseError, match=r"mu\[0\] = 0.5"):
            IFSubset(2, (0.5, F(1, 2)), (0, 0))
        with pytest.raises(ParseError, match=r"nu\[1\] = 0.25"):
            IFSubset(2, (F(1, 2), 0), (0, 0.25))
        assert IFSubset(2, (1, F(1, 2)), (0, 0)).mu == (1, F(1, 2))

    def test_length_mismatch(self):
        with pytest.raises(CarrierMismatch):
            IFSubset(3, (F(0),), (F(0),))


class TestOrderingAndEquality:
    def test_reflexive(self, worked_subject):
        assert ifs_leq(worked_subject, worked_subject)
        assert ifs_eq(worked_subject, worked_subject)

    def test_one_point_example(self):
        A = IFSubset(1, (F(1, 5),), (F(1, 2),))
        B = IFSubset(1, (F(2, 5),), (F(3, 10),))
        assert ifs_leq(A, B)
        assert not ifs_leq(B, A)

    def test_carrier_mismatch(self, worked_subject):
        with pytest.raises(CarrierMismatch):
            ifs_leq(worked_subject, IFSubset(1, (F(0),), (F(1),)))


class TestLatticeOps:
    def test_intersect_with_full_is_identity(self, worked_subject):
        full = IFSubset(3, (F(1),) * 3, (F(0),) * 3)
        assert ifs_eq(intersect(worked_subject, full), worked_subject)

    def test_pointwise_min_max(self):
        A = IFSubset(1, (F(3, 10),), (F(2, 5),))
        B = IFSubset(1, (F(1, 10),), (F(1, 4),))
        got = intersect(A, B)
        assert got.mu == (F(1, 10),) and got.nu == (F(2, 5),)


class TestCharacteristicPair:
    def test_singleton(self):
        A = characteristic_pair(2, ElementSubset(2, frozenset({0})))
        assert A.mu == (F(1), F(0)) and A.nu == (F(0), F(1))

    def test_full(self):
        A = characteristic_pair(2, ElementSubset(2, frozenset({0, 1})))
        assert A.mu == (F(1), F(1)) and A.nu == (F(0), F(0))

    def test_sums_to_one(self):
        A = characteristic_pair(3, ElementSubset(3, frozenset({1})))
        assert all(m + v == 1 for m, v in zip(A.mu, A.nu))

    def test_empty_rejected(self):
        with pytest.raises(EmptySubset):
            characteristic_pair(2, ElementSubset(2, frozenset()))

    def test_other_carrier_rejected(self):
        with pytest.raises(CarrierMismatch):
            characteristic_pair(3, ElementSubset(2, frozenset({0})))


class TestShapePredicates:
    def test_zero_membership_is_empty(self):
        assert not is_nonempty(IFSubset(2, (F(0), F(0)), (F(1), F(1))))

    def test_constant(self):
        assert is_constant(IFSubset(2, (F(1, 2), F(1, 2)), (F(1, 5), F(1, 5))))

    def test_worked_subject_not_constant(self, worked_subject):
        assert not is_constant(worked_subject)
        assert is_nonempty(worked_subject)


@settings(max_examples=80, deadline=None)
@given(subjects(order=3, nonempty=False), subjects(order=3, nonempty=False))
def test_lattice_laws(A, B):
    assert ifs_eq(intersect(A, B), intersect(B, A))
    assert ifs_eq(intersect(A, A), A)
    # containment is antisymmetric and consistent with the lattice
    if ifs_leq(A, B) and ifs_leq(B, A):
        assert ifs_eq(A, B)
    assert ifs_leq(intersect(A, B), A)


@settings(max_examples=60, deadline=None)
@given(subjects(order=3, nonempty=False), subjects(order=3, nonempty=False),
       subjects(order=3, nonempty=False))
def test_lattice_associativity_and_transitivity(A, B, C):
    assert ifs_eq(intersect(intersect(A, B), C), intersect(A, intersect(B, C)))
    if ifs_leq(A, B) and ifs_leq(B, C):
        assert ifs_leq(A, C)


@settings(max_examples=60, deadline=None)
@given(subjects(order=3, nonempty=False), subjects(order=3, nonempty=False))
def test_every_operation_preserves_the_sum_bound(A, B):
    out = intersect(A, B)
    assert all(m + v <= 1 for m, v in zip(out.mu, out.nu))


class TestFileFormat:
    def test_round_trip(self, worked_subject):
        assert ifs_eq(parse_ifs(format_ifs(worked_subject)), worked_subject)

    def test_parse_with_comments_and_decimals(self):
        text = "# subject\n0 0.3 0.4\n2 1/2 3/10\n1 0.1 0.25\n"
        A = parse_ifs(text)
        assert A.mu == (F(3, 10), F(1, 10), F(1, 2))

    @pytest.mark.parametrize("text", [
        "",
        "0 0.3\n",
        "0 0.3 0.4\n0 0.1 0.2\n",
        "1 0.3 0.4\n",
        "0 x 0.4\n",
    ])
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_ifs(text)

    def test_non_integer_index_refused(self):
        with pytest.raises(ParseError, match="bad element index in 'x 0.3 0.4'"):
            parse_ifs("x 0.3 0.4\n")
