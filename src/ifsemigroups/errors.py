"""Exception types shared across the package.

Every error carries the offending data as attributes so callers (and the
CLI) can report exactly what went wrong without re-deriving it.
"""

from __future__ import annotations

from fractions import Fraction


class IfsgError(Exception):
    """Base class for all library errors."""


class ParseError(IfsgError):
    """Malformed input: a value of the wrong type, an order or carrier size
    below 1, or a malformed Cayley table or grade map."""


class OrderTooLarge(IfsgError):
    """Requested enumeration order above the hard cap."""

    def __init__(self, order: int, cap: int):
        super().__init__(f"order {order} not enumerable (cap is {cap})")
        self.order = order
        self.cap = cap


class AssociativityViolation(IfsgError):
    """A triple where (x*y)*z differs from x*(y*z)."""

    def __init__(self, x: int, y: int, z: int):
        super().__init__(f"(x*y)*z != x*(y*z) at (x, y, z) = ({x}, {y}, {z})")
        self.triple = (x, y, z)


class CarrierMismatch(IfsgError):
    """Operands live over carriers of different sizes."""


class EmptySubset(IfsgError):
    """A subset that must be non-empty is empty: a crisp subset without
    members, or a fuzzy subject whose membership map is identically zero."""


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


class PreconditionNotMet(IfsgError):
    """A subject fails the structural precondition of a theorem check (a
    bi-ideal, a semiprime ideal, ...)."""


class HypothesisNotMet(IfsgError):
    """The semigroup lacks a flag of a theorem check's hypothesis (a group,
    regular, archimedean, ...)."""
