"""Intuitionistic fuzzy subsets over a finite carrier, in exact arithmetic.

A subject is a pair of grade maps (mu, nu) with mu(x) + nu(x) <= 1 at every
point. All grades are ``fractions.Fraction``; equality and ordering are
exact, never tolerance-based, because the properties we check downstream
are equalities and inequalities of sup/min expressions where any rounding
would manufacture false counterexamples.

Every subject also carries one exact integer view, ``A.view``:
(den, mu ints, nu ints) with each grade equal to ``Fraction(k, den)``.
The theorems only compare grades and never compute with a compared
result, so the lattice operations, the products and the predicate scans
decide on the view's ints. A subject built from Fractions
(``IFSubset(...)``, ``validate_ifs``, ``parse_ifs``) is validated, on the
grades' numerators and denominators, and computes its view from them on
first use. A subject the library builds (``transforms._kernel``,
``intersect``, ``composition.if_product``, ``characteristic_pair``, the
grid and random subjects of ``sample_ifs``) carries only its view, derived
from its operands' views, from a crisp subset's members, or from the
grid's or the random draws' integers, and makes its Fractions on first
read of ``mu`` or ``nu``.
``A.key``, the view over the least common denominator, is equal exactly
for equal subjects and is read without making Fractions. Neither is a
field: equality, hashing, ``repr``, ``fields()`` and ``replace()`` ignore them.

The meet and ``composition.if_product``, the pair laws' hot kernels, run
straight-line code that ``_generated`` writes: the meet's once per carrier
order, the product's once per table.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction

from .errors import (
    CarrierMismatch,
    EmptySubset,
    GradeOutOfRange,
    ParseError,
    SumConstraintViolation,
)
from .semigroups import ElementSubset, _int, _items, _size

ZERO = Fraction(0)
ONE = Fraction(1)

# Fraction expands a decimal exponent e to 10**|e| before any range check;
# int()'s digit limit, which already bounds 'p/q' and plain decimals, bounds e.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)


def as_grade(value, point="grade") -> Fraction:
    """Coerce a string, int or Fraction to an exact grade in [0, 1].

    Strings may be 'p/q' rationals or decimal literals; decimals parse
    exactly (0.25 -> 1/4). Any other value is held to ``_exact``'s rule,
    named by its point (a name such as ``"beta"``, or an element): a float,
    a bool or None is refused.
    """
    if not isinstance(value, str):
        value = _exact(value, point if isinstance(point, str) else f"grade at {point}")
    try:
        exponent = _EXPONENT.search(value) if isinstance(value, str) else None
        if exponent and abs(int(exponent[1])) > _MAX_EXPONENT:
            raise ParseError(f"exponent of {value!r} exceeds {_MAX_EXPONENT} in magnitude")
        g = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot parse {value!r} as an exact rational") from None
    if g < 0 or g > 1:
        raise GradeOutOfRange(point, g)
    return g


def _exact(value, name: str):
    """``value`` when it is an int or a ``Fraction``; anything else is
    refused by name. A float's binary value is usually not the decimal the
    caller meant, and the integer kernels read ``numerator`` and
    ``denominator``, which a string, ``None`` or a ``Decimal`` lacks. A
    ``bool`` is an int to Python, but a grade of ``True`` is written as
    ``True``, which does not parse back, so it is refused too."""
    if isinstance(value, bool):
        raise ParseError(f"{name} = {value!r} is a bool: pass an int or Fraction")
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, float):
        raise ParseError(f"{name} = {value!r} is a float: pass an int or Fraction")
    raise ParseError(f"{name} = {value!r} is not exact: pass an int or Fraction")


@dataclass(frozen=True)
class IFSubset:
    """Paired grade maps over the carrier {0..carrier_order-1}, kept as tuples."""

    carrier_order: int
    mu: tuple[Fraction, ...]
    nu: tuple[Fraction, ...]

    def __post_init__(self):
        n = _size(self.carrier_order, "carrier order")
        object.__setattr__(self, "mu", tuple(_items(self.mu, "mu")))
        object.__setattr__(self, "nu", tuple(_items(self.nu, "nu")))
        if len(self.mu) != n or len(self.nu) != n:
            raise CarrierMismatch(
                f"grade maps have {len(self.mu)}/{len(self.nu)} points, carrier has {n}"
            )
        for x in range(n):
            m, v = _exact(self.mu[x], f"mu[{x}]"), _exact(self.nu[x], f"nu[{x}]")
            # m = a/b and v = c/d with b, d > 0: the range checks on the ints
            a, b, c, d = m.numerator, m.denominator, v.numerator, v.denominator
            if a < 0 or a > b:
                raise GradeOutOfRange(x, m)
            if c < 0 or c > d:
                raise GradeOutOfRange(x, v)
            if a * d + c * b > b * d:
                raise SumConstraintViolation(x, m + v)

    @cached_property
    def view(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(den, mu ints, nu ints): every grade is ``Fraction(k, den)``."""
        den = math.lcm(*[g.denominator for g in self.mu + self.nu])
        return (
            den,
            tuple([g.numerator * (den // g.denominator) for g in self.mu]),
            tuple([g.numerator * (den // g.denominator) for g in self.nu]),
        )

    @cached_property
    def key(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """The view over the least denominator: equal exactly for equal subjects."""
        den, mu, nu = self.view
        g = math.gcd(den, *mu, *nu)
        if g == 1:
            return self.view
        return den // g, tuple([m // g for m in mu]), tuple([v // g for v in nu])

    def __getattr__(self, name):
        # reached only when normal lookup fails: the grades of a view-only subject
        view = vars(self).get("view") if name in ("mu", "nu") else None
        if view is None:
            raise AttributeError(f"'IFSubset' object has no attribute {name!r}")
        den, mu, nu = view
        object.__setattr__(self, "mu", tuple([Fraction(k, den) for k in mu]))
        object.__setattr__(self, "nu", tuple([Fraction(k, den) for k in nu]))
        return vars(self)[name]


# bound once: _trusted runs for every meet, product and magnification
_new, _set = object.__new__, object.__setattr__


def _trusted(carrier_order: int, view: tuple) -> IFSubset:
    """An IFSubset built without validation from its integer view alone, for
    results the library derives from valid subjects in ways that keep them
    valid (meets, products, admissible magnifications) and for grid and
    random subjects valid by construction. It makes its Fractions on first read. Everything
    else goes through the validating constructor."""
    A = _new(IFSubset)
    _set(A, "carrier_order", carrier_order)
    _set(A, "view", view)
    return A


def _common_views(A: IFSubset, B: IFSubset):
    """(den, mu_A, nu_A, mu_B, nu_B): both views over their least common
    denominator. The lattice kernels and the product call it only when the
    views' denominators differ; views that share one are read as they are."""
    da, mu_a, nu_a = A.view
    db, mu_b, nu_b = B.view
    den = math.lcm(da, db)
    if den != da:
        k = den // da
        mu_a, nu_a = tuple([m * k for m in mu_a]), tuple([v * k for v in nu_a])
    if den != db:
        k = den // db
        mu_b, nu_b = tuple([m * k for m in mu_b]), tuple([v * k for v in nu_b])
    return den, mu_a, nu_a, mu_b, nu_b


def validate_ifs(carrier_order: int, mu, nu) -> IFSubset:
    """Build an IFSubset from grade-like entries (strings, ints, Fractions)."""
    mu_t = tuple(as_grade(g, x) for x, g in enumerate(mu))
    nu_t = tuple(as_grade(g, x) for x, g in enumerate(nu))
    return IFSubset(carrier_order, mu_t, nu_t)


def _same_carrier(A: IFSubset, B: IFSubset) -> None:
    if A.carrier_order != B.carrier_order:
        raise CarrierMismatch(
            f"carriers differ: {A.carrier_order} vs {B.carrier_order}"
        )


def ifs_leq(A: IFSubset, B: IFSubset) -> bool:
    """Containment: mu_A <= mu_B and nu_A >= nu_B pointwise.

    Views over one denominator are compared as they are; only differing
    denominators are rescaled, by ``_common_views``."""
    if A.carrier_order != B.carrier_order:
        _same_carrier(A, B)
    da, mu_a, nu_a = A.view
    db, mu_b, nu_b = B.view
    if da != db:
        _, mu_a, nu_a, mu_b, nu_b = _common_views(A, B)
    return all(map(operator.le, mu_a, mu_b)) and all(map(operator.ge, nu_a, nu_b))


def ifs_eq(A: IFSubset, B: IFSubset) -> bool:
    """Equal grades at every point, read from the views as ``ifs_leq`` reads them."""
    if A.carrier_order != B.carrier_order:
        _same_carrier(A, B)
    da, mu_a, nu_a = A.view
    db, mu_b, nu_b = B.view
    if da != db:
        _, mu_a, nu_a, mu_b, nu_b = _common_views(A, B)
    return mu_a == mu_b and nu_a == nu_b


def _generated(n: int, lines, mu, nu) -> Callable:
    """``kernel(den, a, b, c, d)``: unpack the int tuples mu_A, mu_B, nu_A
    and nu_B (n ints each) into the locals a0.., b0.., c0.. and d0.., run
    ``lines``, one statement each, and return the view (den, (*mu), (*nu))
    of the expressions ``mu`` and ``nu``. Its callers, ``_meet`` and
    ``composition._product``, write these from fixed identifiers and ints
    alone (n, points of ``range(n)``, the factorization pairs of a
    validated ``Semigroup``): no grade and no outside string enters the
    source. ``dataclasses`` generates its methods the same way."""
    unpack = [f"{''.join(f'{t}{x}, ' for x in range(n))}= {t}" for t in "abcd"]
    body = [*unpack, *lines, f"return den, ({''.join(e + ', ' for e in mu)}), "
                             f"({''.join(e + ', ' for e in nu)})"]
    namespace: dict = {}
    exec("def kernel(den, a, b, c, d):\n" + "".join(f"    {s}\n" for s in body), namespace)
    return namespace["kernel"]


@cache
def _meet(n: int) -> Callable:
    """The meet's kernel for carrier order n, built on its first call."""
    return _generated(n, [], [f"a{x} if a{x} < b{x} else b{x}" for x in range(n)],
                      [f"c{x} if c{x} > d{x} else d{x}" for x in range(n)])


def intersect(A: IFSubset, B: IFSubset) -> IFSubset:
    """Pointwise min on mu, max on nu.

    The result is over the operands' denominator when they share one, as
    the pair laws' operands do; only differing denominators are rescaled,
    by ``_common_views``."""
    if A.carrier_order != B.carrier_order:
        _same_carrier(A, B)
    den, mu_a, nu_a = A.view
    db, mu_b, nu_b = B.view
    if den != db:
        den, mu_a, nu_a, mu_b, nu_b = _common_views(A, B)
    # min(a, b) + max(c, d) <= a + c or b + d, so the meet stays valid
    return _trusted(A.carrier_order, view=_meet(A.carrier_order)(den, mu_a, mu_b, nu_a, nu_b))


def characteristic_pair(carrier_order: int, A: ElementSubset) -> IFSubset:
    """View a crisp subset as the pair (indicator, 1 - indicator), built from
    its 0/1 view over the denominator 1."""
    if A.carrier_order != carrier_order:
        raise CarrierMismatch("subset carrier does not match requested carrier")
    if not A.members:
        raise EmptySubset("characteristic pair of an empty subset")
    n = _int(carrier_order, "carrier order")
    # valid by construction: at each point one grade is 1 and the other 0
    mu = tuple([int(x in A.members) for x in range(n)])
    return _trusted(n, view=(1, mu, tuple([1 - k for k in mu])))


def is_nonempty(A: IFSubset) -> bool:
    """Non-empty means the membership map is somewhere positive."""
    return any(A.view[1])


def is_constant(A: IFSubset) -> bool:
    """Both grade maps take a single value across the carrier."""
    _, mu, nu = A.view
    return len(set(mu)) <= 1 and len(set(nu)) <= 1


# ---------------------------------------------------------------------------
# grade-map file format: '#' comments; one line per element, `<index> <mu>
# <nu>`; every carrier element exactly once; grades as p/q or exact decimals


def parse_ifs(text: str) -> IFSubset:
    rows: dict[int, tuple[Fraction, Fraction]] = {}
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise ParseError(f"expected '<index> <mu> <nu>', got {stripped!r}")
        try:
            idx = int(parts[0])
        except ValueError:
            raise ParseError(f"bad element index in {stripped!r}") from None
        if idx < 0:
            raise ParseError(f"negative element index in {stripped!r}")
        if idx in rows:
            raise ParseError(f"element {idx} appears twice")
        rows[idx] = (as_grade(parts[1], idx), as_grade(parts[2], idx))
    if not rows:
        raise ParseError("no data lines in grade-map input")
    n = max(rows) + 1
    if len(rows) != n:
        # the first few gaps lie below len(rows) + 3, however large n is
        missing = list(itertools.islice((x for x in range(n) if x not in rows), 3))
        more = n - len(rows) - len(missing)
        raise ParseError(
            f"carrier elements missing from input: {missing}"
            + (f" and {more} more" if more else "")
        )
    mu = tuple(rows[x][0] for x in range(n))
    nu = tuple(rows[x][1] for x in range(n))
    return IFSubset(n, mu, nu)


def format_ifs(A: IFSubset) -> str:
    """Serialize with canonical reduced p/q grades; re-parses to an equal value."""
    lines = [f"{x} {A.mu[x]} {A.nu[x]}" for x in range(A.carrier_order)]
    return "\n".join(lines) + "\n"
