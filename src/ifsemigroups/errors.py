"""Exception types shared across the package.

Every error carries the offending data as attributes so callers (and the
CLI) can report exactly what went wrong without re-deriving it.
"""

from __future__ import annotations

from fractions import Fraction


class IfsgError(Exception):
    """Base class for all library errors."""


class ParseError(IfsgError):
    """Malformed Cayley-table or grade-map text."""


class OrderTooLarge(IfsgError):
    """Requested enumeration order above the hard cap."""

    def __init__(self, order: int, cap: int):
        super().__init__(f"order {order} not enumerable (cap is {cap})")
        self.order = order
        self.cap = cap


class OrderTooSmall(OrderTooLarge):
    """Requested enumeration order below 1: no semigroup has an empty
    carrier. A subclass of ``OrderTooLarge``, so handlers of that error
    catch every order outside the enumerable range."""

    def __init__(self, order: int):
        IfsgError.__init__(
            self, f"order {order} is below 1: a semigroup has at least one element"
        )
        self.order = order
        self.cap = None


class OutOfRangeEntry(IfsgError):
    """Cayley table entry outside the carrier."""

    def __init__(self, x: int, y: int, value: int, order: int):
        super().__init__(f"table[{x}][{y}] = {value} outside carrier [0, {order})")
        self.x = x
        self.y = y
        self.value = value


class AssociativityViolation(IfsgError):
    """A triple where (x*y)*z differs from x*(y*z)."""

    def __init__(self, x: int, y: int, z: int):
        super().__init__(f"(x*y)*z != x*(y*z) at (x, y, z) = ({x}, {y}, {z})")
        self.triple = (x, y, z)


class CarrierMismatch(IfsgError):
    """Operands live over carriers of different sizes."""


class EmptySubset(IfsgError):
    """A crisp subset that must be non-empty is empty."""


class EmptyFuzzySubset(IfsgError):
    """A fuzzy subject whose membership map is identically zero."""


class GradeOutOfRange(IfsgError):
    """A grade outside the unit interval."""

    def __init__(self, point, value):
        super().__init__(f"grade {value} at {point} outside [0, 1]")
        self.point = point
        self.value = value


class SumConstraintViolation(IfsgError):
    """Membership plus non-membership exceeds one at some point."""

    def __init__(self, point: int, total: Fraction):
        super().__init__(f"mu(x) + nu(x) = {total} > 1 at x = {point}")
        self.point = point
        self.total = total


class BetaOutOfRange(IfsgError):
    """Scaling factor outside its admissible interval."""

    def __init__(self, beta: Fraction, interval: str):
        super().__init__(f"beta = {beta} outside {interval}")
        self.beta = beta


class AlphaOutOfRange(IfsgError):
    """Shift outside its admissible interval; carries the inclusive bound."""

    def __init__(self, alpha: Fraction, bound: Fraction):
        super().__init__(f"alpha = {alpha} outside [0, {bound}]")
        self.alpha = alpha
        self.bound = bound


class NotAGroup(IfsgError):
    """Semigroup lacks an identity or inverses where a group is required."""


class PreconditionNotMet(IfsgError):
    """Subject fails the structural precondition of a check."""


class HypothesisNotMet(IfsgError):
    """Semigroup or subjects fail the hypothesis of a theorem check."""
