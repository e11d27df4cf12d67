import copy
import dataclasses
import itertools
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsemigroups import (
    AssociativityViolation,
    SampleSpec,
    ElementSubset,
    EmptySubset,
    CarrierMismatch,
    IFSubset,
    OrderTooLarge,
    ParseError,
    Semigroup,
    builtin_library,
    classify,
    enumerate_semigroups,
    format_cayley,
    is_crisp_structure,
    library_entry,
    multiply_subsets,
    parse_cayley,
    principal_left_ideal,
    principal_right_ideal,
    principal_two_sided_ideal,
    run_suite,
    sample_ifs,
)

from ifsemigroups.composition import _product_kernel
from ifsemigroups.predicates import _scan_index
from ifsemigroups.semigroups import _enumerated

from conftest import small_semigroups


def oracle_count(n: int) -> int:
    """Independent brute force: filter every raw table by a direct triple check."""
    count = 0
    cells = list(itertools.product(range(n), repeat=n * n))
    for flat in cells:
        t = [flat[i * n : (i + 1) * n] for i in range(n)]
        good = True
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if t[t[x][y]][z] != t[x][t[y][z]]:
                        good = False
                        break
                if not good:
                    break
            if not good:
                break
        if good:
            count += 1
    return count


class TestValidateCayley:
    """``Semigroup`` validates the rows it is given."""

    def test_left_zero_valid(self):
        S = Semigroup(2, [[0, 0], [1, 1]])
        assert S.order == 2 and S.table[0][1] == 0

    def test_mod2_valid(self):
        S = Semigroup(2, [[0, 1], [1, 0]])
        assert S.table[1][1] == 0

    def test_non_associative_reports_triple(self):
        with pytest.raises(AssociativityViolation) as exc:
            Semigroup(2, [[1, 1], [0, 0]])
        assert exc.value.triple == (0, 0, 0)

    def test_out_of_range_entry(self):
        with pytest.raises(ParseError, match=r"^table\[0\]\[1\] = 2 outside carrier \[0, 2\)$"):
            Semigroup(2, [[0, 2], [1, 1]])

    def test_non_integer_entries_are_refused_not_truncated(self):
        for bad, text in ((1.7, "1.7"), (Fraction(1, 2), "Fraction(1, 2)"), (True, "True")):
            with pytest.raises(ParseError, match=rf"table\[0\]\[1\] = {re.escape(text)}"):
                Semigroup(2, [[0, bad], [1, 0]])


def _copy(S: Semigroup) -> Semigroup:
    """An equal table built from fresh row tuples."""
    return Semigroup(S.order, tuple(tuple(list(row)) for row in S.table))


class TestValueSemantics:
    """A table is equal and hashed by value; its hash, computed once at
    construction, is that of (order, table)."""

    @settings(max_examples=40, deadline=None)
    @given(small_semigroups(), small_semigroups())
    def test_equality_and_hash_follow_the_table(self, S, R):
        C = _copy(S)
        assert C is not S and C.table[0] is not S.table[0]
        assert C == S and not C != S
        assert hash(C) == hash(S) == hash((S.order, S.table))
        same = (S.order, S.table) == (R.order, R.table)
        assert (S == R) is same and (S != R) is not same

    def test_unequal_and_foreign_comparisons(self):
        left_zero = Semigroup(2, ((0, 0), (1, 1)))
        right_zero = Semigroup(2, ((0, 1), (0, 1)))
        assert left_zero != right_zero and right_zero != Semigroup(1, ((0,),))
        for other in ((2, ((0, 0), (1, 1))), left_zero.table, None, "x"):
            assert not left_zero == other and left_zero != other

    def test_pickle_and_replace_round_trip(self):
        S = Semigroup(2, ((0, 0), (1, 1)))
        R = Semigroup(2, ((0, 1), (0, 1)))
        for T in (pickle.loads(pickle.dumps(S)), dataclasses.replace(S), copy.deepcopy(S)):
            assert T == S and hash(T) == hash(S)
        swapped = dataclasses.replace(S, table=R.table)
        assert swapped == R and hash(swapped) == hash(R)

    def test_repr_and_fields_are_the_dataclass_ones(self):
        S = Semigroup(2, ((0, 0), (1, 1)))
        assert repr(S) == "Semigroup(order=2, table=((0, 0), (1, 1)))"
        assert [f.name for f in dataclasses.fields(S)] == ["order", "table"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            S.order = 3


class TestMultiplySubsets:
    def test_null_semigroup(self, null2):
        A = ElementSubset(2, frozenset({1}))
        assert multiply_subsets(null2, A, A).members == {0}

    def test_left_zero(self, leftzero2):
        A = ElementSubset(2, frozenset({0}))
        B = ElementSubset(2, frozenset({0, 1}))
        assert multiply_subsets(leftzero2, A, B).members == {0}

    def test_mod2(self, mod2):
        A = ElementSubset(2, frozenset({1}))
        assert multiply_subsets(mod2, A, A).members == {0}

    def test_carrier_mismatch(self, mod2):
        with pytest.raises(CarrierMismatch):
            multiply_subsets(mod2, ElementSubset(3, frozenset({0})),
                             ElementSubset(2, frozenset({0})))

    def test_monotone(self, mod2, leftzero2, null2, semilattice2):
        subs = [frozenset(c) for k in (1, 2) for c in itertools.combinations((0, 1), k)]
        for S in (mod2, leftzero2, null2, semilattice2):
            for a, a2, b, b2 in itertools.product(subs, repeat=4):
                if a <= a2 and b <= b2:
                    small = multiply_subsets(S, ElementSubset(2, a), ElementSubset(2, b))
                    big = multiply_subsets(S, ElementSubset(2, a2), ElementSubset(2, b2))
                    assert small.members <= big.members


class TestCrispStructure:
    def test_left_ideal_semilattice(self, semilattice2):
        assert is_crisp_structure("left_ideal", semilattice2,
                                  ElementSubset(2, frozenset({0})))

    def test_left_ideal_fails_in_group(self, mod2):
        assert not is_crisp_structure("left_ideal", mod2,
                                      ElementSubset(2, frozenset({0})))

    def test_full_carrier_is_subsemigroup(self):
        for S in enumerate_semigroups(2):
            assert is_crisp_structure("subsemigroup", S,
                                      ElementSubset(2, frozenset({0, 1})))

    def test_bi_ideal(self, semilattice2, mod2):
        singleton = ElementSubset(2, frozenset({0}))
        # min(0, x, 0) stays at 0, but group conjugates escape
        assert is_crisp_structure("bi_ideal", semilattice2, singleton)
        assert not is_crisp_structure("bi_ideal", mod2, singleton)

    def test_one_two_ideal(self, semilattice2, monogenic2):
        assert is_crisp_structure("one_two_ideal", semilattice2,
                                  ElementSubset(2, frozenset({0})))
        # {a} is not even a subsemigroup when a*a = a^2 != a
        assert not is_crisp_structure("one_two_ideal", monogenic2,
                                      ElementSubset(2, frozenset({0})))

    def test_empty_rejected(self, mod2):
        with pytest.raises(EmptySubset):
            is_crisp_structure("left_ideal", mod2, ElementSubset(2, frozenset()))

    def test_unknown_kind(self, mod2):
        with pytest.raises(ValueError):
            is_crisp_structure("prime", mod2, ElementSubset(2, frozenset({0})))


class TestPrincipalIdeals:
    def test_two_sided_semilattice(self, semilattice2):
        assert principal_two_sided_ideal(semilattice2, 1).members == {0, 1}
        assert principal_two_sided_ideal(semilattice2, 0).members == {0}

    def test_two_sided_monogenic(self, monogenic2):
        assert principal_two_sided_ideal(monogenic2, 1).members == {1}

    def test_left_ideal_examples(self, leftzero2, semilattice2, mod2):
        assert principal_left_ideal(leftzero2, 0).members == {0, 1}
        assert principal_left_ideal(semilattice2, 0).members == {0}
        assert principal_left_ideal(mod2, 1).members == {0, 1}

    def test_results_are_ideals_everywhere(self):
        semis = [S for n in (1, 2, 3) for S in enumerate_semigroups(n)]
        for S in semis:
            for g in S.elements():
                assert is_crisp_structure("ideal", S, principal_two_sided_ideal(S, g))
                assert is_crisp_structure("left_ideal", S, principal_left_ideal(S, g))
                assert is_crisp_structure("right_ideal", S, principal_right_ideal(S, g))


class TestClassify:
    def test_left_zero(self, leftzero2):
        c = classify(leftzero2)
        assert (c.regular, c.intra_regular, c.left_regular, c.right_regular) == (
            True, True, True, True,
        )
        assert c.archimedean and not c.is_group

    def test_null(self, null2):
        c = classify(null2)
        assert not c.regular and c.archimedean

    def test_mod2_group(self, mod2):
        c = classify(mod2)
        assert c.is_group and c.identity == 0
        assert c.regular and c.intra_regular and c.left_regular and c.right_regular

    def test_semilattice_not_archimedean(self, semilattice2):
        assert not classify(semilattice2).archimedean

    def test_group_implies_all_regularities(self):
        for n in (1, 2, 3):
            for S in enumerate_semigroups(n):
                c = classify(S)
                if c.is_group:
                    assert c.regular and c.intra_regular
                    assert c.left_regular and c.right_regular

    def test_finite_collapses(self):
        # on a finite semigroup intra-, left- and right-regularity are one
        # property (Clifford & Preston), which implies regularity, and a
        # regular semigroup has S^2 = S (a = axa); every labelled table of
        # orders 1-4, the order-4 ones past the enumeration cap, and the library
        tables = [S for n in (1, 2, 3, 4) for S in _enumerated(n)]
        tables += [entry.semigroup for entry in builtin_library()]
        assert len(tables) == 1 + 8 + 113 + 3492 + 13
        regular = 0
        for S in tables:
            c = classify(S)
            assert c.intra_regular == c.left_regular == c.right_regular
            assert c.regular or not c.intra_regular
            if c.regular:
                regular += 1
                assert {xy for row in S.table for xy in row} == set(S.elements())
        assert regular == 1010


class TestEnumeration:
    def test_counts_match_oracle(self):
        for n, expected in ((1, 1), (2, 8), (3, 113)):
            assert oracle_count(n) == expected
            assert sum(1 for _ in enumerate_semigroups(n)) == expected

    def test_all_yields_are_associative(self):
        # the Semigroup constructor re-checks; force the iteration
        tables = {S.table for S in enumerate_semigroups(2)}
        assert len(tables) == 8

    def test_lexicographic_order(self):
        flats = [sum(S.table, ()) for S in enumerate_semigroups(2)]
        assert flats == sorted(flats)

    def test_order_three_matches_a_brute_force_filter_in_order(self):
        # the reference: every raw table in lexicographic order, kept when
        # all 27 triples associate
        n = 3
        reference = []
        for flat in itertools.product(range(n), repeat=n * n):
            t = tuple(flat[i * n:(i + 1) * n] for i in range(n))
            if all(t[t[x][y]][z] == t[x][t[y][z]]
                   for x, y, z in itertools.product(range(n), repeat=3)):
                reference.append(t)
        assert [S.table for S in enumerate_semigroups(n)] == reference
        assert len(reference) == 113

    def test_a_second_suite_compares_no_more_tables(self, monkeypatch):
        """Every enumeration hands out the same table objects, so the caches
        keyed by a table find the second run's tables by identity."""
        for cached in (classify, _scan_index, _product_kernel):
            cached.cache_clear()
        calls = []
        true_eq = Semigroup.__eq__
        monkeypatch.setattr(Semigroup, "__eq__",
                            lambda S, other: calls.append(1) or true_eq(S, other))
        spec = SampleSpec(grade_grid_step=Fraction(1, 2), max_pair_subjects=4)
        pair_ids = ["semiprime_intersection", "product_bi_ideal",
                    "product_one_two_ideal", "regular_product"]
        counts = []
        for _ in range(2):
            calls.clear()
            run_suite([1, 2, 3], spec, pair_ids, include_library=False)
            counts.append(len(calls))
        assert counts[1] <= counts[0]

    def test_order_cap(self):
        with pytest.raises(OrderTooLarge):
            list(enumerate_semigroups(4))

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_names_no_cap(self, order):
        """An order below 1 is malformed, as a table is: no cap is named."""
        message = f"^order {order} is below 1: a semigroup has at least one element$"
        with pytest.raises(ParseError, match=message):
            list(enumerate_semigroups(order))
        with pytest.raises(ParseError, match=message):
            run_suite([order, 1])


class TestLibrary:
    def test_known_tables(self):
        assert library_entry("leftzero2").semigroup.table == ((0, 0), (1, 1))
        assert library_entry("null2").semigroup.table == ((0, 0), (0, 0))
        assert library_entry("monogenic2").semigroup.table == ((1, 1), (1, 1))

    def test_classifications_verified(self):
        for entry in builtin_library():
            assert classify(entry.semigroup) == entry.classification

    def test_expected_entries_present(self):
        names = {e.name for e in builtin_library()}
        assert {"leftzero2", "leftzero3", "rightzero2", "rightzero3", "null2",
                "null3", "cyclic2", "cyclic3", "cyclic4", "semilattice2",
                "semilattice3", "monogenic2", "chain4"} <= names

    def test_chain4_is_the_nonregular_order4_entry(self):
        entry = library_entry("chain4")
        assert entry.semigroup.order == 4
        c = entry.classification
        assert not c.regular and c.archimedean

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            library_entry("nosuch")

    def test_entries_match_their_literal_tables_and_listing(self, capsys):
        """Every entry, in catalog order, with its table, its classification
        (regular, intra, left, right, archimedean, group, identity) and its
        line of ``ifsg library``."""
        band, nil = (True,) * 5 + (False, None), (False,) * 4 + (True, False, None)
        group, lattice = (True,) * 6, (True,) * 4 + (False, False)
        expected = [
            ("leftzero2", ((0, 0), (1, 1)), band),
            ("leftzero3", ((0, 0, 0), (1, 1, 1), (2, 2, 2)), band),
            ("rightzero2", ((0, 1), (0, 1)), band),
            ("rightzero3", ((0, 1, 2), (0, 1, 2), (0, 1, 2)), band),
            ("null2", ((0, 0), (0, 0)), nil),
            ("null3", ((0, 0, 0), (0, 0, 0), (0, 0, 0)), nil),
            ("cyclic2", ((0, 1), (1, 0)), group + (0,)),
            ("cyclic3", ((0, 1, 2), (1, 2, 0), (2, 0, 1)), group + (0,)),
            ("cyclic4", ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)), group + (0,)),
            ("semilattice2", ((0, 0), (0, 1)), lattice + (1,)),
            ("semilattice3", ((0, 0, 0), (0, 1, 1), (0, 1, 2)), lattice + (2,)),
            ("monogenic2", ((1, 1), (1, 1)), nil),
            ("chain4", ((1, 2, 3, 3), (2, 3, 3, 3), (3, 3, 3, 3), (3, 3, 3, 3)), nil),
        ]
        got = [(e.name, e.semigroup.table, dataclasses.astuple(e.classification))
               for e in builtin_library()]
        assert got == expected
        assert all(e.semigroup.order == len(e.semigroup.table) for e in builtin_library())

        from ifsemigroups.cli import main
        assert main(["library"]) == 0
        regular = "regular intra_regular left_regular right_regular"
        assert capsys.readouterr().out.splitlines() == [
            f"leftzero2      order=2 {regular} archimedean",
            f"leftzero3      order=3 {regular} archimedean",
            f"rightzero2     order=2 {regular} archimedean",
            f"rightzero3     order=3 {regular} archimedean",
            "null2          order=2 archimedean",
            "null3          order=3 archimedean",
            f"cyclic2        order=2 {regular} archimedean is_group",
            f"cyclic3        order=3 {regular} archimedean is_group",
            f"cyclic4        order=4 {regular} archimedean is_group",
            f"semilattice2   order=2 {regular}",
            f"semilattice3   order=3 {regular}",
            "monogenic2     order=2 archimedean",
            "chain4         order=4 archimedean",
        ]


class TestCayleyFormat:
    def test_round_trip(self):
        for entry in builtin_library():
            S = entry.semigroup
            assert parse_cayley(format_cayley(S)) == S

    def test_comments_and_whitespace(self):
        text = "# a comment\n2\n0 0   \n1 1\n"
        assert parse_cayley(text).table == ((0, 0), (1, 1))

    @pytest.mark.parametrize("text", [
        "", "x\n", "2\n0 0\n", "2\n0 0\n1 1\n0 0\n", "2\n0 a\n1 1\n",
    ])
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_cayley(text)


@settings(max_examples=60, deadline=None)
@given(small_semigroups())
def test_every_generated_table_is_associative(S: Semigroup):
    T = S.table
    for x in range(S.order):
        for y in range(S.order):
            for z in range(S.order):
                assert T[T[x][y]][z] == T[x][T[y][z]]


_ORDER_TAKERS = {
    "Semigroup": lambda n: Semigroup(n, [[0]]),
    "enumerate_semigroups": lambda n: list(enumerate_semigroups(n)),
    "run_suite": lambda n: run_suite([n], SampleSpec(grade_grid_step=Fraction(1))),
    "sample_ifs": lambda n: list(sample_ifs(n, SampleSpec())),
    "IFSubset": lambda n: IFSubset(n, (Fraction(1),), (Fraction(0),)),
    "ElementSubset": lambda n: ElementSubset(n, frozenset({0})),
}


@pytest.mark.parametrize("value", [True, False, 2.0, "2", None, Fraction(2)], ids=repr)
@pytest.mark.parametrize("taker", _ORDER_TAKERS)
def test_an_order_that_is_not_an_int_is_refused_by_value(taker, value):
    with pytest.raises(ParseError) as exc:
        _ORDER_TAKERS[taker](value)
    message = str(exc.value)
    assert "\n" not in message and repr(value) in message and "not an int" in message


@pytest.mark.parametrize("value", [0, -2])
@pytest.mark.parametrize("taker", _ORDER_TAKERS)
def test_an_order_below_one_is_refused_with_one_message(taker, value):
    """Every order and carrier size is held to one rule, with one message:
    ``IFSubset`` and ``ElementSubset`` accepted an empty carrier too."""
    with pytest.raises(ParseError, match=rf"^(carrier )?order {value} is below 1: "
                                         "a semigroup has at least one element$"):
        _ORDER_TAKERS[taker](value)
    with pytest.raises(ParseError, match="is below 1"):
        IFSubset(value, (), ())
    with pytest.raises(ParseError, match="is below 1"):
        ElementSubset(value, ())


@pytest.mark.parametrize("entry", [True, 1.0, Fraction(1), "1"], ids=repr)
def test_a_table_entry_that_is_not_an_int_is_refused_by_position(entry):
    """Z2's table with one entry replaced. A bool table would format as
    ``True False``, which ``parse_cayley`` refuses; the others would fail as
    a bare TypeError when associativity indexes a row with them."""
    with pytest.raises(ParseError, match=rf"^table\[1\]\[0\] = {re.escape(repr(entry))} is a"):
        Semigroup(2, ((0, 1), (entry, 0)))
    with pytest.raises(ParseError, match=r"^table\[0\]\[0\] = True is a bool"):
        Semigroup(2, ((True, False), (False, True)))


@pytest.mark.parametrize("given, kept", [
    (lambda: Semigroup(1, [[0]]), lambda: Semigroup(1, ((0,),))),
    (lambda: ElementSubset(3, {0}), lambda: ElementSubset(3, frozenset({0}))),
    (lambda: IFSubset(2, [1, 0], [0, 1]), lambda: IFSubset(2, (1, 0), (0, 1))),
], ids=["Semigroup", "ElementSubset", "IFSubset"])
def test_a_value_given_as_lists_or_a_set_equals_its_tuple_twin(given, kept):
    X, Y = given(), kept()
    assert X == Y and hash(X) == hash(Y) and repr(X) == repr(Y)


@pytest.mark.parametrize("build, name", [
    (lambda: Semigroup(1, 0), "table"),
    (lambda: Semigroup(1, [0]), r"table\[0\]"),
    (lambda: IFSubset(1, 1, 0), "mu"),
    (lambda: IFSubset(1, (1,), 0), "nu"),
    (lambda: ElementSubset(2, 0), "members"),
], ids=["table", "row", "mu", "nu", "members"])
def test_a_value_that_is_not_iterable_is_refused_by_name(build, name):
    """As a malformed entry is, not as a bare TypeError from ``tuple`` or ``frozenset``."""
    with pytest.raises(ParseError, match=rf"^{name} = \d is not iterable$"):
        build()


@pytest.mark.parametrize("member", [1.5, 1.0, True, "1", None], ids=repr)
def test_an_element_subset_member_that_is_not_an_int_is_refused(member):
    with pytest.raises(ValueError) as exc:
        ElementSubset(2, frozenset({0, member}))
    message = str(exc.value)
    assert "\n" not in message and repr(member) in message and "not an int" in message


@pytest.mark.parametrize("order, table, message", [
    (2, ((0, 0), (0,)), "row 1 has 1 entries, expected 2"),
    (0, (), "^order 0 is below 1: a semigroup has at least one element$"),
    (2, ((0, 0),), "expected 2 rows, got 1"),
], ids=["short-row", "order-0", "too-few-rows"])
def test_malformed_table_refused(order, table, message):
    with pytest.raises(ParseError, match=message):
        Semigroup(order, table)


def test_element_subset_membership():
    A = ElementSubset(2, frozenset({1}))
    assert 1 in A.members and 0 not in A.members
    with pytest.raises(ValueError, match=r"member 2 outside carrier \[0, 2\)"):
        ElementSubset(2, frozenset({0, 2}))


def test_subset_over_another_carrier_refused(mod2):
    A, other = ElementSubset(2, frozenset({0})), ElementSubset(3, frozenset({0}))
    with pytest.raises(CarrierMismatch):
        multiply_subsets(mod2, A, other)
    with pytest.raises(CarrierMismatch):
        is_crisp_structure("ideal", mod2, other)


@pytest.mark.parametrize("principal", [
    principal_left_ideal, principal_right_ideal, principal_two_sided_ideal])
@pytest.mark.parametrize("g", [2, -1])
def test_principal_ideal_of_an_element_outside_the_carrier_refused(mod2, principal, g):
    with pytest.raises(ValueError, match=rf"generator {g} outside carrier \[0, 2\)"):
        principal(mod2, g)


@pytest.mark.parametrize("principal", [
    principal_left_ideal, principal_right_ideal, principal_two_sided_ideal])
@pytest.mark.parametrize("g, name", [("1", "str"), (1.0, "float"), (True, "bool")])
def test_principal_ideal_of_a_generator_that_is_not_an_int_refused(mod2, principal, g, name):
    """As an ``ElementSubset`` member is: a ``bool`` is an int to Python, but
    not an element."""
    with pytest.raises(ValueError, match=rf"generator {re.escape(repr(g))} is a {name}, not an int"):
        principal(mod2, g)
