import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsemigroups import (
    AssociativityViolation,
    ElementSubset,
    EmptySubset,
    CarrierMismatch,
    OrderTooLarge,
    OrderTooSmall,
    OutOfRangeEntry,
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
    validate_cayley,
)

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
    def test_left_zero_valid(self):
        S = validate_cayley(2, [[0, 0], [1, 1]])
        assert S.order == 2 and S.mul(0, 1) == 0

    def test_mod2_valid(self):
        S = validate_cayley(2, [[0, 1], [1, 0]])
        assert S.mul(1, 1) == 0

    def test_non_associative_reports_triple(self):
        with pytest.raises(AssociativityViolation) as exc:
            validate_cayley(2, [[1, 1], [0, 0]])
        assert exc.value.triple == (0, 0, 0)

    def test_out_of_range_entry(self):
        with pytest.raises(OutOfRangeEntry) as exc:
            validate_cayley(2, [[0, 2], [1, 1]])
        assert (exc.value.x, exc.value.y, exc.value.value) == (0, 1, 2)


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

    def test_order_cap(self):
        with pytest.raises(OrderTooLarge):
            list(enumerate_semigroups(4))
        with pytest.raises(OrderTooLarge):
            list(enumerate_semigroups(0))

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_names_no_cap(self, order):
        with pytest.raises(OrderTooSmall) as exc:
            list(enumerate_semigroups(order))
        assert str(exc.value) == (
            f"order {order} is below 1: a semigroup has at least one element"
        )
        # an order below 1 is still outside the enumerable range
        assert isinstance(exc.value, OrderTooLarge)
        with pytest.raises(OrderTooSmall):
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
