"""Finite semigroups as Cayley tables.

Carriers are always {0..n-1}; any external element names are a display
concern. Tables are validated for associativity on construction, so a
``Semigroup`` instance is a proof that the operation is associative.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from functools import cache, lru_cache
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


def _int(value, name: str) -> int:
    """``value`` when it is an int; anything else is refused by name. A
    ``bool`` is an int to Python, but an order of ``True`` is written as
    ``True``, which does not parse back, so it is refused too."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ParseError(f"{name} = {value!r} is a {type(value).__name__}, not an int")


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
    """A finite carrier {0..n-1} with an associativity-checked Cayley table,
    equal by value. Its hash, not a field, is computed once, at construction:
    every kernel call looks the table up in a cache keyed by it."""

    order: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if _int(self.order, "order") < 1:
            raise ParseError("order must be positive")
        if len(self.table) != self.order:
            raise ParseError(f"expected {self.order} rows, got {len(self.table)}")
        _table_violation(self.order, self.table)
        object.__setattr__(self, "_hash", hash((self.order, self.table)))

    def __hash__(self) -> int:
        return self._hash

    def elements(self) -> range:
        return range(self.order)


def validate_cayley(order: int, raw_table: Sequence[Sequence[int]]) -> Semigroup:
    """Build a Semigroup from untrusted rows, raising a precise error on failure."""
    rows = []
    for x, row in enumerate(raw_table):
        for y, v in enumerate(row):
            if not (isinstance(v, numbers.Rational) and v.denominator == 1):
                raise ParseError(f"table[{x}][{y}] = {v!r} is not an integer")
        rows.append(tuple(map(int, row)))
    return Semigroup(order, tuple(rows))


def _check_element(x, name: str, order: int) -> None:
    """Refuse ``x`` unless it is an int, and not a ``bool``, in [0, order)."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{name} {x!r} is a {type(x).__name__}, not an int")
    if not 0 <= x < order:
        raise ValueError(f"{name} {x} outside carrier [0, {order})")


@dataclass(frozen=True)
class ElementSubset:
    """A crisp subset of the carrier, tagged with the carrier size."""

    carrier_order: int
    members: frozenset[int]

    def __post_init__(self):
        _int(self.carrier_order, "carrier order")
        for m in self.members:
            _check_element(m, "member", self.carrier_order)


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


def principal_left_ideal(S: Semigroup, g: int) -> ElementSubset:
    """Smallest left ideal containing g: {g} union Sg."""
    _check_element(g, "generator", S.order)
    T = S.table
    return ElementSubset(S.order, frozenset({g} | {T[x][g] for x in S.elements()}))


def principal_right_ideal(S: Semigroup, g: int) -> ElementSubset:
    """Smallest right ideal containing g: {g} union gS."""
    _check_element(g, "generator", S.order)
    T = S.table
    return ElementSubset(S.order, frozenset({g} | {T[g][x] for x in S.elements()}))


def principal_two_sided_ideal(S: Semigroup, g: int) -> ElementSubset:
    """Smallest two-sided ideal containing g: {g} union Sg union gS union SgS."""
    _check_element(g, "generator", S.order)
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
    right_regular: a = a^2 x), or None when every element has one. Any
    other kind, hashable or not, is a ``ValueError``."""
    T, els = S.table, range(S.order)
    witnesses = {
        "regular": lambda a, a2: any(T[T[a][x]][a] == a for x in els),
        "intra_regular": lambda a, a2: any(T[T[x][a2]][y] == a for x in els for y in els),
        "left_regular": lambda a, a2: any(T[x][a2] == a for x in els),
        "right_regular": lambda a, a2: any(T[a2][x] == a for x in els),
    }
    if not isinstance(kind, str) or kind not in witnesses:
        raise ValueError(f"unknown regularity kind {kind!r}")
    witnessed = witnesses[kind]
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

    ideals = [{T[T[x][b]][y] for x in elems for y in elems} for b in elems]  # each SbS
    archimedean = all(P & I for P in [set(_powers(S, a)) for a in elems] for I in ideals)

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
    lexicographic order of the flattened table. Hard-capped at order 3.

    A backtracking search fills the cells row by row, trying the values of
    each cell in ascending order, so complete tables come out in
    lexicographic order: the same tables, in the same order, as a filter
    over all n**(n*n) tables. A partial table is abandoned as soon as one
    associativity triple (x, y, z) fails whose four cells (x, y), (y, z),
    (xy, z) and (x, yz) are all filled; every completion of it would fail
    the same way. Each table is built once per process, so every cache
    keyed by a table finds it by identity.
    """
    if _int(order, "order") < 1:
        raise OrderTooSmall(order)
    if order > ENUMERATION_CAP:
        raise OrderTooLarge(order, ENUMERATION_CAP)
    yield from _enumerated(order)


@cache
def _enumerated(order: int) -> tuple[Semigroup, ...]:
    n, cells = order, order * order
    flat = [0] * cells  # flat[x*n + y] = xy
    triples = [(x * n + y, y * n + z, x, z) for x, y, z in itertools.product(range(n), repeat=3)]
    # cell d -> the triples whose cells xy and yz are filled once d is
    known = [[t for t in triples if max(t[:2]) <= d] for d in range(cells)]

    def fails(d: int) -> bool:
        # every triple that cells 0..d define; only those that d completes can fail
        for xy, yz, x, z in known[d]:
            left, right = flat[xy] * n + z, x * n + flat[yz]
            if left <= d and right <= d and flat[left] != flat[right]:
                return True
        return False

    def fill(d: int) -> Iterator[Semigroup]:
        if d == cells:
            yield Semigroup(n, tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n)))
            return
        for v in range(n):
            flat[d] = v
            if not fails(d):
                yield from fill(d + 1)

    return tuple(fill(0))


# ---------------------------------------------------------------------------
# curated catalog


@dataclass(frozen=True)
class LibraryEntry:
    name: str
    semigroup: Semigroup
    classification: Classification


def _table(n: int, op) -> Semigroup:
    return Semigroup(n, tuple(tuple(op(x, y) for y in range(n)) for x in range(n)))


_BAND = Classification(True, True, True, True, True, False, None)
_NIL = Classification(False, False, False, False, True, False, None)


@cache
def builtin_library() -> tuple[LibraryEntry, ...]:
    """Curated named semigroups, each with classification verified on build.

    monogenic2 is {a, a^2} with a^3 = a^2 (element 0 is a, 1 is a^2); chain4
    is the powers t..t^4 of t(i) = min(i+1, 4) on a 5-chain, with t^5 = t^4,
    so composition truncates at 4.
    """
    entries = [
        *((f"leftzero{n}", _table(n, lambda x, y: x), _BAND) for n in (2, 3)),
        *((f"rightzero{n}", _table(n, lambda x, y: y), _BAND) for n in (2, 3)),
        *((f"null{n}", _table(n, lambda x, y: 0), _NIL) for n in (2, 3)),
        *((f"cyclic{n}", _table(n, lambda x, y: (x + y) % n),
           Classification(True, True, True, True, True, True, 0)) for n in (2, 3, 4)),
        *((f"semilattice{n}", _table(n, min),
           Classification(True, True, True, True, False, False, n - 1)) for n in (2, 3)),
        ("monogenic2", _table(2, lambda x, y: 1), _NIL),
        ("chain4", _table(4, lambda x, y: min(x + y + 1, 3)), _NIL),
    ]
    out = []
    for name, S, expected in entries:
        got = classify(S)
        if got != expected:
            raise AssertionError(f"catalog entry {name}: classify gave {got}, expected {expected}")
        out.append(LibraryEntry(name, S, got))
    return tuple(out)


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
