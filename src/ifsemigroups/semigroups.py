"""Finite semigroups as Cayley tables.

Carriers are always {0..n-1}; any external element names are a display
concern. Tables are validated for associativity on construction, so a
``Semigroup`` instance is a proof that the operation is associative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import (
    AssociativityViolation,
    CarrierMismatch,
    EmptySubset,
    OrderTooLarge,
    OrderTooSmall,
    OutOfRangeEntry,
    ParseError,
)

ENUMERATION_CAP = 3

CRISP_KINDS = (
    "subsemigroup",
    "left_ideal",
    "right_ideal",
    "ideal",
    "bi_ideal",
    "one_two_ideal",
)


def _table_violation(order: int, table) -> None:
    """Raise on the first out-of-range entry or non-associative triple."""
    for x in range(order):
        row = table[x]
        if len(row) != order:
            raise ParseError(f"row {x} has {len(row)} entries, expected {order}")
        for y in range(order):
            v = row[y]
            if not 0 <= v < order:
                raise OutOfRangeEntry(x, y, v, order)
    for x in range(order):
        for y in range(order):
            xy = table[x][y]
            for z in range(order):
                if table[xy][z] != table[x][table[y][z]]:
                    raise AssociativityViolation(x, y, z)


@dataclass(frozen=True)
class Semigroup:
    """A finite carrier {0..n-1} with an associativity-checked Cayley table."""

    order: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.order < 1:
            raise ParseError("order must be positive")
        if len(self.table) != self.order:
            raise ParseError(f"expected {self.order} rows, got {len(self.table)}")
        _table_violation(self.order, self.table)

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def elements(self) -> range:
        return range(self.order)


def validate_cayley(order: int, raw_table: Sequence[Sequence[int]]) -> Semigroup:
    """Build a Semigroup from untrusted rows, raising a precise error on failure."""
    rows = tuple(tuple(int(v) for v in row) for row in raw_table)
    return Semigroup(order, rows)


@dataclass(frozen=True)
class ElementSubset:
    """A crisp subset of the carrier, tagged with the carrier size."""

    carrier_order: int
    members: frozenset[int]

    def __post_init__(self):
        for m in self.members:
            if not 0 <= m < self.carrier_order:
                raise ValueError(f"member {m} outside carrier [0, {self.carrier_order})")

    def __contains__(self, x: int) -> bool:
        return x in self.members


def full_subset(S: Semigroup) -> ElementSubset:
    return ElementSubset(S.order, frozenset(S.elements()))


def multiply_subsets(S: Semigroup, A: ElementSubset, B: ElementSubset) -> ElementSubset:
    """Set product AB = {a*b : a in A, b in B}."""
    if A.carrier_order != S.order or B.carrier_order != S.order:
        raise CarrierMismatch("subset carrier does not match semigroup order")
    T = S.table
    return ElementSubset(S.order, frozenset(T[a][b] for a in A.members for b in B.members))


def is_crisp_structure(kind: str, S: Semigroup, A: ElementSubset) -> bool:
    """Decide a containment-style structural property of a non-empty subset.

    subsemigroup: AA <= A; left_ideal: SA <= A; right_ideal: AS <= A;
    ideal: both; bi_ideal: subsemigroup with ASA <= A;
    one_two_ideal: subsemigroup with ASAA <= A.
    """
    if kind not in CRISP_KINDS:
        raise ValueError(f"unknown crisp kind {kind!r}; expected one of {CRISP_KINDS}")
    if not A.members:
        raise EmptySubset("structural predicates require a non-empty subset")
    if A.carrier_order != S.order:
        raise CarrierMismatch("subset carrier does not match semigroup order")
    full = full_subset(S)
    inside = A.members.issuperset

    if kind == "subsemigroup":
        return inside(multiply_subsets(S, A, A).members)
    if kind == "left_ideal":
        return inside(multiply_subsets(S, full, A).members)
    if kind == "right_ideal":
        return inside(multiply_subsets(S, A, full).members)
    if kind == "ideal":
        return is_crisp_structure("left_ideal", S, A) and is_crisp_structure(
            "right_ideal", S, A
        )
    ASA = multiply_subsets(S, multiply_subsets(S, A, full), A)
    if kind == "bi_ideal":
        return is_crisp_structure("subsemigroup", S, A) and inside(ASA.members)
    # one_two_ideal
    ASAA = multiply_subsets(S, ASA, A)
    return is_crisp_structure("subsemigroup", S, A) and inside(ASAA.members)


def _check_generator(S: Semigroup, g: int) -> None:
    if not 0 <= g < S.order:
        raise ValueError(f"generator {g} outside carrier [0, {S.order})")


def principal_left_ideal(S: Semigroup, g: int) -> ElementSubset:
    """Smallest left ideal containing g: {g} union Sg."""
    _check_generator(S, g)
    T = S.table
    return ElementSubset(S.order, frozenset({g} | {T[x][g] for x in S.elements()}))


def principal_right_ideal(S: Semigroup, g: int) -> ElementSubset:
    """Smallest right ideal containing g: {g} union gS."""
    _check_generator(S, g)
    T = S.table
    return ElementSubset(S.order, frozenset({g} | {T[g][x] for x in S.elements()}))


def principal_two_sided_ideal(S: Semigroup, g: int) -> ElementSubset:
    """Smallest two-sided ideal containing g: {g} union Sg union gS union SgS."""
    _check_generator(S, g)
    T = S.table
    members = {g}
    for x in S.elements():
        members.add(T[x][g])
        members.add(T[g][x])
        xg = T[x][g]
        for y in S.elements():
            members.add(T[xg][y])
    return ElementSubset(S.order, frozenset(members))


@dataclass(frozen=True)
class Classification:
    """Structural flags of a finite semigroup, each decided by witness search."""

    regular: bool
    intra_regular: bool
    left_regular: bool
    right_regular: bool
    archimedean: bool
    is_group: bool
    identity: int | None


def _powers(S: Semigroup, a: int) -> list[int]:
    """Distinct powers a, a^2, ... until the first repeat (at most n of them)."""
    T = S.table
    seen: list[int] = []
    p = a
    while p not in seen:
        seen.append(p)
        p = T[p][a]
    return seen


def regularity_gap(S: Semigroup, kind: str) -> int | None:
    """First element a with no witness for the regularity equation of kind
    (regular: a = axa; intra_regular: a = x a^2 y; left_regular: a = x a^2;
    right_regular: a = a^2 x), or None when every element has one."""
    T, els = S.table, range(S.order)
    witnessed = {
        "regular": lambda a, a2: any(T[T[a][x]][a] == a for x in els),
        "intra_regular": lambda a, a2: any(T[T[x][a2]][y] == a for x in els for y in els),
        "left_regular": lambda a, a2: any(T[x][a2] == a for x in els),
        "right_regular": lambda a, a2: any(T[a2][x] == a for x in els),
    }[kind]
    return next((a for a in els if not witnessed(a, T[a][a])), None)


@lru_cache(maxsize=4096)
def classify(S: Semigroup) -> Classification:
    """Decide every structural flag by exhaustive witness search.

    The archimedean search for the exponent stops at the first repeated
    power of a, which is sound because powers cycle within at most n steps.
    """
    n, T = S.order, S.table
    elems = range(n)

    regular, intra_regular, left_regular, right_regular = (
        regularity_gap(S, kind) is None
        for kind in ("regular", "intra_regular", "left_regular", "right_regular")
    )

    archimedean = True
    for a in elems:
        if not archimedean:
            break
        pows = set(_powers(S, a))
        for b in elems:
            SbS = {T[T[x][b]][y] for x in elems for y in elems}
            if not pows & SbS:
                archimedean = False
                break

    identity = None
    for e in elems:
        if all(T[e][x] == x and T[x][e] == x for x in elems):
            identity = e
            break
    is_group = identity is not None and all(
        any(T[a][x] == identity and T[x][a] == identity for x in elems) for a in elems
    )
    return Classification(
        regular=regular,
        intra_regular=intra_regular,
        left_regular=left_regular,
        right_regular=right_regular,
        archimedean=archimedean,
        is_group=is_group,
        identity=identity,
    )


def enumerate_semigroups(order: int) -> Iterator[Semigroup]:
    """Yield every labeled associative table of the given order, in
    lexicographic order of the flattened table. Hard-capped at order 3
    (order 4 already has 4**16 raw tables)."""
    if order < 1:
        raise OrderTooSmall(order)
    if order > ENUMERATION_CAP:
        raise OrderTooLarge(order, ENUMERATION_CAP)
    elems = range(order)
    triples = list(itertools.product(elems, elems, elems))
    for flat in itertools.product(elems, repeat=order * order):
        rows = tuple(flat[i * order : (i + 1) * order] for i in range(order))
        if all(rows[rows[x][y]][z] == rows[x][rows[y][z]] for x, y, z in triples):
            yield Semigroup(order, rows)


# ---------------------------------------------------------------------------
# curated catalog


@dataclass(frozen=True)
class LibraryEntry:
    name: str
    semigroup: Semigroup
    classification: Classification


def _left_zero(n: int) -> Semigroup:
    return Semigroup(n, tuple(tuple(x for _ in range(n)) for x in range(n)))


def _right_zero(n: int) -> Semigroup:
    return Semigroup(n, tuple(tuple(range(n)) for _ in range(n)))


def _null(n: int) -> Semigroup:
    return Semigroup(n, tuple(tuple(0 for _ in range(n)) for _ in range(n)))


def _cyclic(n: int) -> Semigroup:
    return Semigroup(n, tuple(tuple((x + y) % n for y in range(n)) for x in range(n)))


def _min_semilattice(n: int) -> Semigroup:
    return Semigroup(n, tuple(tuple(min(x, y) for y in range(n)) for x in range(n)))


def _monogenic2() -> Semigroup:
    # powers of a single generator a with a^3 = a^2; element 0 is a, 1 is a^2
    return Semigroup(2, ((1, 1), (1, 1)))


def _chain4() -> Semigroup:
    # powers of the transformation t(i) = min(i+1, 4) on a 5-chain: t, t^2,
    # t^3, t^4 are distinct and t^5 = t^4, so composition truncates at 4
    return Semigroup(4, tuple(tuple(min(i + j + 1, 3) for j in range(4)) for i in range(4)))


def _flags(regular, intra, left, right, arch, group, identity) -> Classification:
    return Classification(regular, intra, left, right, arch, group, identity)


_ALL_REGULAR_BAND = _flags(True, True, True, True, True, False, None)
_NOWHERE_REGULAR = _flags(False, False, False, False, True, False, None)


def _catalog() -> tuple[LibraryEntry, ...]:
    entries = [
        ("leftzero2", _left_zero(2), _ALL_REGULAR_BAND),
        ("leftzero3", _left_zero(3), _ALL_REGULAR_BAND),
        ("rightzero2", _right_zero(2), _ALL_REGULAR_BAND),
        ("rightzero3", _right_zero(3), _ALL_REGULAR_BAND),
        ("null2", _null(2), _NOWHERE_REGULAR),
        ("null3", _null(3), _NOWHERE_REGULAR),
        ("cyclic2", _cyclic(2), _flags(True, True, True, True, True, True, 0)),
        ("cyclic3", _cyclic(3), _flags(True, True, True, True, True, True, 0)),
        ("cyclic4", _cyclic(4), _flags(True, True, True, True, True, True, 0)),
        ("semilattice2", _min_semilattice(2), _flags(True, True, True, True, False, False, 1)),
        ("semilattice3", _min_semilattice(3), _flags(True, True, True, True, False, False, 2)),
        ("monogenic2", _monogenic2(), _NOWHERE_REGULAR),
        ("chain4", _chain4(), _NOWHERE_REGULAR),
    ]
    out = []
    for name, S, expected in entries:
        got = classify(S)
        if got != expected:
            raise AssertionError(f"catalog entry {name}: classify gave {got}, expected {expected}")
        out.append(LibraryEntry(name, S, got))
    return tuple(out)


_LIBRARY: tuple[LibraryEntry, ...] | None = None


def builtin_library() -> tuple[LibraryEntry, ...]:
    """Curated named semigroups, each with classification verified on build."""
    global _LIBRARY
    if _LIBRARY is None:
        _LIBRARY = _catalog()
    return _LIBRARY


def library_entry(name: str) -> LibraryEntry:
    for entry in builtin_library():
        if entry.name == name:
            return entry
    known = ", ".join(e.name for e in builtin_library())
    raise KeyError(f"no library semigroup named {name!r}; known: {known}")


# ---------------------------------------------------------------------------
# Cayley file format: '#' comments, first data line is n, then n rows of n
# whitespace-separated integers in [0, n)


def parse_cayley(text: str) -> Semigroup:
    lines = []
    for raw in text.splitlines():
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append(stripped)
    if not lines:
        raise ParseError("no data lines in Cayley input")
    try:
        order = int(lines[0])
    except ValueError:
        raise ParseError(f"first data line must be the order, got {lines[0]!r}") from None
    if order < 1:
        raise ParseError(f"order must be positive, got {order}")
    if len(lines) != order + 1:
        raise ParseError(f"expected {order} table rows, got {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError:
            raise ParseError(f"non-integer table entry in row {line!r}") from None
    return validate_cayley(order, rows)


def format_cayley(S: Semigroup) -> str:
    lines = [str(S.order)]
    lines.extend(" ".join(str(v) for v in row) for row in S.table)
    return "\n".join(lines) + "\n"
