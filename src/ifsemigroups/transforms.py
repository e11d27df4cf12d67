"""Pointwise affine transforms of intuitionistic fuzzy subsets.

Three operations on a subject A = (mu, nu):

  translate:  mu + alpha, nu - alpha     with alpha <= min(nu)
  multiply:   beta * mu,  beta * nu      with beta in [0, 1]
  magnify:    beta * mu + alpha,
              beta * nu - alpha          with beta in (0, 1] and
                                         alpha <= min(beta * nu)

The alpha bound is taken over the whole carrier, so every output is a
valid subject (nu never goes negative and the pointwise sum stays within
beta <= 1). Translation and multiplication are the beta = 1 and alpha = 0
faces of magnify.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import AlphaOutOfRange, BetaOutOfRange
from .ifs import IFSubset, ONE


@dataclass(frozen=True)
class TransformParams:
    """The (beta, alpha) pair of a magnified translation.

    beta must be positive here; the zero-scaling case is only meaningful
    for plain multiplication. The exact alpha ceiling depends on the
    subject and is enforced when the transform is applied.
    """

    beta: Fraction
    alpha: Fraction

    def __post_init__(self):
        if not 0 < self.beta <= 1:
            raise BetaOutOfRange(self.beta, "(0, 1]")
        if not 0 <= self.alpha <= 1:
            raise AlphaOutOfRange(self.alpha, ONE)


def max_alpha(A: IFSubset, beta: Fraction) -> Fraction:
    """Inclusive upper bound for the shift: min over the carrier of beta * nu."""
    if not 0 <= beta <= 1:
        raise BetaOutOfRange(beta, "[0, 1]")
    return beta * min(A.nu)


def translate(A: IFSubset, alpha: Fraction) -> IFSubset:
    """Shift membership up and non-membership down by alpha."""
    bound = min(A.nu)
    if not 0 <= alpha <= bound:
        raise AlphaOutOfRange(alpha, bound)
    return IFSubset(
        A.carrier_order,
        tuple(m + alpha for m in A.mu),
        tuple(v - alpha for v in A.nu),
    )


def multiply(A: IFSubset, beta: Fraction) -> IFSubset:
    """Scale both grade maps by beta."""
    if not 0 <= beta <= 1:
        raise BetaOutOfRange(beta, "[0, 1]")
    return IFSubset(
        A.carrier_order,
        tuple(beta * m for m in A.mu),
        tuple(beta * v for v in A.nu),
    )


def magnify(A: IFSubset, params: TransformParams) -> IFSubset:
    """Scale by beta, then shift membership up and non-membership down by alpha."""
    beta, alpha = params.beta, params.alpha
    bound = max_alpha(A, beta)
    if alpha > bound:
        raise AlphaOutOfRange(alpha, bound)
    return IFSubset(
        A.carrier_order,
        tuple(beta * m + alpha for m in A.mu),
        tuple(beta * v - alpha for v in A.nu),
    )
