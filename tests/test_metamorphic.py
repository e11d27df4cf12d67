"""Metamorphic properties of the predicates and of ``classify``.

Every predicate and structural flag is defined by the multiplication alone,
so renaming the elements of the carrier, in the table and in the subject
together, changes none of them (only the identity element is renamed).
Transposing the table gives the anti-isomorphic semigroup x . y = y * x,
in which left and right trade places: left ideals become right ideals and
left regularity becomes right regularity, while the two-sided properties
stay as they are. Both are checked over every table of order <= 3.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from ifsemigroups import IFSubset, Semigroup, classify, enumerate_semigroups, profile
from ifsemigroups.predicates import FuzzyStructureKind as K

from conftest import subjects

TABLES = [S for n in (1, 2, 3) for S in enumerate_semigroups(n)]

# the properties stated without a side
TWO_SIDED = (K.SUBSEMIGROUP, K.BI_IDEAL, K.IDEAL, K.SEMIPRIME)


@st.composite
def _cases(draw):
    """A table of order <= 3, a subject on it and a renaming of its elements."""
    S = draw(st.sampled_from(TABLES))
    return S, draw(subjects(S.order)), draw(st.permutations(range(S.order)))


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_relabelling_the_carrier_changes_no_verdict(case):
    S, A, p = case  # element x is renamed p[x]
    n = S.order
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[p[x]][p[y]] = p[S.table[x][y]]
    mu, nu = [0] * n, [0] * n
    for x in range(n):
        mu[p[x]], nu[p[x]] = A.mu[x], A.nu[x]
    R = Semigroup(n, tuple(map(tuple, table)))
    assert profile(R, IFSubset(n, tuple(mu), tuple(nu))) == profile(S, A)
    cls = classify(S)
    identity = None if cls.identity is None else p[cls.identity]
    assert classify(R) == replace(cls, identity=identity)


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_transposing_the_table_swaps_left_and_right(case):
    S, A, _ = case
    n = S.order
    Op = Semigroup(n, tuple(zip(*S.table)))
    before, after = profile(S, A), profile(Op, A)
    assert (after[K.LEFT_IDEAL], after[K.RIGHT_IDEAL]) == (
        before[K.RIGHT_IDEAL], before[K.LEFT_IDEAL]
    )
    assert [after[k] for k in TWO_SIDED] == [before[k] for k in TWO_SIDED]
    cls = classify(S)
    assert classify(Op) == replace(
        cls, left_regular=cls.right_regular, right_regular=cls.left_regular
    )
