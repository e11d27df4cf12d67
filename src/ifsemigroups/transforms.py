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

All three run one integer kernel, ``_affine``'s (``translate`` and
``multiply`` through ``_kernel``), on the subject's integer view (den, mu
ints, nu ints). With beta = p/q, alpha = r/s and a grade
g = k/den, the images are

  beta * g + alpha = (p*s*k + r*q*den) / (q*s*den)
  beta * g - alpha = (p*s*k - r*q*den) / (q*s*den)

so the result's view is (q*s*den, p*s*k + r*q*den, p*s*k - r*q*den). The
kernel takes (p*s, q*s, r*q): a ``TransformParams`` checks its range once,
on p, q, r and s, and carries that triple, and ``translate`` and
``multiply`` compute it from their arguments. The result carries only its
view; its ``Fraction`` grades are made from those ints on first read. The
denominator q*s*den is positive, so the nu image is negative exactly when
its numerator is, that is when alpha > beta * g. The kernel's sign test on
the nu numerators is therefore the exact alpha bound
alpha <= beta * min(nu), and the bound itself, ``max_alpha``, is computed
only to report a violation, as p * min(nu ints) / (q * den).

With alpha = 0 the nu numerators p*k cannot be negative, so the kernel
skips the sign test; with beta = 1/q as well (p = 1) the numerators are
the subject's own, and the result's view (q*den, mu ints, nu ints) shares
the subject's int tuples instead of making new ones.

The kernel is straight-line code, written once per carrier order by
``_affine`` through ``ifs._generated``: its source holds only fixed
identifiers and ints (the points of ``range(n)``), never a grade or a
parameter. The build grows with n: 0.2 ms at order 3, 0.8 ms at 32 and
30 ms at 1000 (2-core Xeon VM, Python 3.11.7).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .errors import AlphaOutOfRange, BetaOutOfRange
from .ifs import IFSubset, ONE, _exact, _generated, _trusted, _unpacked, _view


def _triple(beta: Fraction, alpha: Fraction) -> tuple[int, int, int]:
    """The kernel's (p*s, q*s, r*q) for beta = p/q and alpha = r/s."""
    q, s = beta.denominator, alpha.denominator
    return beta.numerator * s, q * s, alpha.numerator * q


@dataclass(frozen=True, slots=True)
class TransformParams:
    """The (beta, alpha) pair of a magnified translation.

    beta must be positive here; the zero-scaling case is only meaningful
    for plain multiplication. The exact alpha ceiling depends on the
    subject and is enforced when the transform is applied. The pair keeps
    the kernel's ints, which equality, hashing and ``repr`` ignore.
    """

    beta: Fraction
    alpha: Fraction
    _ints: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        beta, alpha = _exact(self.beta, "beta"), _exact(self.alpha, "alpha")
        if not 0 < beta.numerator <= beta.denominator:
            raise BetaOutOfRange(beta, "(0, 1]")
        if not 0 <= alpha.numerator <= alpha.denominator:
            raise AlphaOutOfRange(alpha, ONE)
        object.__setattr__(self, "_ints", _triple(beta, alpha))


def max_alpha(A: IFSubset, beta: Fraction) -> Fraction:
    """Inclusive upper bound for the shift: min over the carrier of beta * nu."""
    if not 0 <= _exact(beta, "beta").numerator <= beta.denominator:
        raise BetaOutOfRange(beta, "[0, 1]")
    den, _, nu = A.view
    return Fraction(beta.numerator * min(nu), beta.denominator * den)


@cache
def _affine(n: int) -> Callable:
    """The affine kernel ``kernel(view, ints)`` for carrier order n, built
    on its first call: the view of (beta * mu + alpha, beta * nu - alpha)
    for a subject's view (den, a, c) and ints = ``_triple(beta, alpha)``,
    or None when alpha > beta * min(nu)."""
    points = range(n)
    return _generated("view, ints", [
        "den, a, c = view",
        "ps, qs, rq = ints",
        "if not rq and ps == 1:",
        "    return qs * den, a, c",
        *_unpacked(n, "ac"),
        "shift = rq * den",
        "den *= qs",
        "if not rq:",
        f"    {_view([f'ps * a{x}' for x in points], [f'ps * c{x}' for x in points])}",
        *[f"v{x} = ps * c{x} - shift" for x in points],
        f"if {' or '.join(f'v{x} < 0' for x in points)}:",
        "    return None",
        # with 0 <= alpha <= beta * min(nu) and beta <= 1, nu stays
        # non-negative and mu + nu = beta * (mu + nu) <= 1 pointwise
        _view([f"ps * a{x} + shift" for x in points], [f"v{x}" for x in points])])


def _kernel(A: IFSubset, ints: tuple[int, int, int]) -> IFSubset | None:
    """(beta * mu + alpha, beta * nu - alpha) from ints = ``_triple(beta,
    alpha)`` for 0 <= beta <= 1 and alpha >= 0, or None when
    alpha > beta * min(nu)."""
    view = _affine(A.carrier_order)(A.view, ints)
    return None if view is None else _trusted(A.carrier_order, view)


def translate(A: IFSubset, alpha: Fraction) -> IFSubset:
    """Shift membership up and non-membership down by alpha."""
    out = _kernel(A, _triple(ONE, alpha)) if _exact(alpha, "alpha").numerator >= 0 else None
    if out is None:
        raise AlphaOutOfRange(alpha, min(A.nu))
    return out


def multiply(A: IFSubset, beta: Fraction) -> IFSubset:
    """Scale both grade maps by beta."""
    if not 0 <= _exact(beta, "beta").numerator <= beta.denominator:
        raise BetaOutOfRange(beta, "[0, 1]")
    return _kernel(A, _triple(beta, 0))


def magnify(A: IFSubset, params: TransformParams) -> IFSubset:
    """Scale by beta, then shift membership up and non-membership down by
    alpha. It runs ``_kernel``'s two steps itself: the sweep and the pair
    phase call it once per variant."""
    n = A.carrier_order
    view = _affine(n)(A.view, params._ints)
    if view is None:
        raise AlphaOutOfRange(params.alpha, max_alpha(A, params.beta))
    return _trusted(n, view)
