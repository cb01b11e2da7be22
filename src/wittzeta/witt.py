"""The big Witt ring of a coefficient ring.

Witt vectors are truncated series with constant term 1, the group of units
1 + t*R[[t]] up to precision.  Addition is series multiplication, so the
additive zero is the constant series 1.  The second, multiplicative
structure is pinned down by (1-a*t)^(-1) * (1-b*t)^(-1) = (1-ab*t)^(-1)
and is computed through ghost (power-sum) coordinates, where both
operations become pointwise.

Recovering a Witt vector from its ghost vector divides by n, so the ring
must be torsion-free; every division is performed exactly in the ring and
the first coefficient that fails to divide raises NonIntegral.  Over a
finite field the multiplication is refused rather than approximated.
"""

from __future__ import annotations

from .errors import NonIntegral, TorsionUnsupported
from .rings import Ring
from .series import TruncSeries


def require_witt(g: TruncSeries) -> TruncSeries:
    if g.coeffs[0] != g.ring.one:
        raise ValueError("Witt vectors are series with constant term 1")
    return g


def witt_zero(ring: Ring, precision: int) -> TruncSeries:
    """The additive zero, the constant series 1."""
    return TruncSeries.one(ring, precision)


def witt_unit(ring: Ring, precision: int) -> TruncSeries:
    """The multiplicative unit (1 - t)^(-1)."""
    return TruncSeries.geometric(ring, ring.one, precision)


def witt_add(g: TruncSeries, h: TruncSeries) -> TruncSeries:
    require_witt(g)
    require_witt(h)
    return g.mul(h)


def witt_neg(g: TruncSeries) -> TruncSeries:
    require_witt(g)
    return g.invert()


def witt_sub(g: TruncSeries, h: TruncSeries) -> TruncSeries:
    return witt_add(g, witt_neg(h))


def teichmuller(ring: Ring, a, precision: int) -> TruncSeries:
    """The class [a] = (1 - a*t)^(-1)."""
    return TruncSeries.geometric(ring, a, precision)


def twist(g: TruncSeries, a) -> TruncSeries:
    """g(t) -> g(a*t), which equals g * [a] in the Witt ring."""
    require_witt(g)
    return g.scale_argument(a)


def lambda_involution(g: TruncSeries) -> TruncSeries:
    """g(t) -> g(-t)^(-1), exchanging the two unit conventions."""
    return g.scale_argument(g.ring.from_int(-1)).invert()


def ghost(g: TruncSeries) -> tuple:
    """Power-sum coordinates p_1 .. p_N, the coefficients of t*g'(t)/g(t).

    The series division `TruncSeries.quotient` computes them over any
    ring, since g(0) = 1 is a unit, stepping over the nonzero terms of g.
    """
    require_witt(g)
    r = g.ring
    num = [r.mul_int(c, m) for m, c in enumerate(g.coeffs)]
    return TruncSeries.quotient(r, num, g.coeffs, g.precision).coeffs[1:]


def from_ghost(ring: Ring, ghosts: tuple) -> TruncSeries:
    """The unique Witt vector with the given ghost coordinates.

    Inverts the ghost recurrence with exact division in `ring`; the
    coefficients are triangular in the ghosts, so the first inexact
    division already proves no Witt vector realizes them.
    """
    if not ring.torsion_free:
        raise TorsionUnsupported(
            f"ghost inversion needs a torsion-free ring, got {ring.name}"
        )
    cs = [ring.one]
    for n in range(1, len(ghosts) + 1):
        acc = ghosts[n - 1]
        for i in range(1, n):
            acc = ring.add(acc, ring.mul(cs[n - i], ghosts[i - 1]))
        try:
            cs.append(ring.exact_div(acc, ring.from_int(n)))
        except NonIntegral:
            raise NonIntegral(
                f"ghost vector is not realizable over {ring.name}"
            ) from None
    return TruncSeries(ring, tuple(cs))


def witt_mul(g: TruncSeries, h: TruncSeries) -> TruncSeries:
    """The Witt product, pointwise multiplication in ghost coordinates."""
    require_witt(g)
    require_witt(h)
    g.check_compatible(h)
    pg = ghost(g)
    ph = ghost(h)
    r = g.ring
    return from_ghost(r, tuple(r.mul(a, b) for a, b in zip(pg, ph)))


def witt_pow(g: TruncSeries, n: int) -> TruncSeries:
    """n-fold Witt product of g with itself; n = 0 gives the unit.

    Ghost coordinates are multiplicative, so the power is one round trip
    with each coordinate raised to the n-th power.  The unit needs no
    ghost inversion and is returned over any ring.
    """
    if n < 0:
        raise ValueError("negative Witt powers are not defined")
    if n == 0:
        return witt_unit(g.ring, g.precision)
    require_witt(g)
    r = g.ring
    return from_ghost(r, tuple(r.power(p, n) for p in ghost(g)))
