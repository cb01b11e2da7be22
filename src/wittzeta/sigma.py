"""Sigma operations and their lambda counterparts.

A sigma structure on a ring R packages the map sending a in R to the
series sigma_t(a) with sigma^0 = 1 and sigma^1 = a, landing in the Witt
ring of R.  The opposite lambda series is obtained through the involution
g(t) -> g(-t)^(-1), so lambda^n values come for free.

Two structures are provided.  On the integers, sigma_t(m) = (1-t)^(-m),
making lambda^n(m) the binomial coefficient C(m, n).  On integer
polynomials in u, sigma_t of sum c_r u^r is the product of geometric
factors (1 - u^r t)^(-c_r); negative coefficients turn factors into
polynomial powers, so virtual classes stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import CrossCheckFailed, RingMismatch
from .rings import MPolyRing, Ring, ZZ, poly_ring
from .series import TruncSeries
from .verdict import Verdict, compare_series
from .witt import lambda_involution, witt_add, witt_mul


@dataclass(frozen=True)
class SigmaStructure:
    name: str
    ring: Ring
    rule: Callable[[object, int], TruncSeries] = field(compare=False)

    def sigma_series(self, a, precision: int) -> TruncSeries:
        """sigma_t(a) truncated; coefficient of t^n is sigma^n(a)."""
        out = self.rule(a, precision)
        if out.ring != self.ring or out.precision != precision:
            raise CrossCheckFailed(
                f"sigma rule {self.name!r} returned a series over "
                f"{out.ring.name} at precision {out.precision}, expected "
                f"{self.ring.name} at precision {precision}"
            )
        return out

    def lambda_series(self, a, precision: int) -> TruncSeries:
        """lambda_t(a) = iota(sigma_t(a)); coefficient of t^n is lambda^n(a)."""
        return lambda_involution(self.sigma_series(a, precision))


def _binomial_rule(m, precision: int) -> TruncSeries:
    if not isinstance(m, int):
        raise RingMismatch(f"expected an integer, got {m!r}")
    one_minus_t = TruncSeries.make(ZZ, (1, -1), precision)
    return one_minus_t.pow_int(-m)


BINOMIAL_Z = SigmaStructure("binomial", ZZ, _binomial_rule)

ZU = poly_ring(("u",))


def _plethystic_rule(f, precision: int) -> TruncSeries:
    ring = ZU
    if not isinstance(f, tuple) or not all(
        isinstance(term, tuple) and len(term) == 2 for term in f
    ):
        raise RingMismatch(f"expected a polynomial in u, got {f!r}")
    result = TruncSeries.one(ring, precision)
    for exps, c in f:
        u_r = ring.monomial(exps)
        factor = TruncSeries.make(
            ring, (ring.one, ring.neg(u_r)), precision
        )
        result = result.mul(factor.pow_int(-c))
    return result


PLETHYSTIC_ZU = SigmaStructure("plethystic", ZU, _plethystic_rule)


def check_lambda_additivity(
    structure: SigmaStructure, a, b, precision: int
) -> Verdict:
    """lambda_t(a+b) = lambda_t(a) * lambda_t(b) as truncated series.

    Coefficientwise this is the convolution rule
    lambda^n(a+b) = sum_{i+j=n} lambda^i(a) * lambda^j(b).
    """
    lhs = structure.lambda_series(structure.ring.add(a, b), precision)
    rhs = structure.lambda_series(a, precision).mul(
        structure.lambda_series(b, precision)
    )
    return compare_series(lhs, rhs, label="lambda additivity")


def check_sigma_ring_hom(
    structure: SigmaStructure, a, b, precision: int
) -> Verdict:
    """sigma_t respects both ring operations into the Witt ring."""
    ring = structure.ring
    additive = compare_series(
        structure.sigma_series(ring.add(a, b), precision),
        witt_add(
            structure.sigma_series(a, precision),
            structure.sigma_series(b, precision),
        ),
        label="sigma additive",
    )
    if not additive.holds:
        return additive
    return compare_series(
        structure.sigma_series(ring.mul(a, b), precision),
        witt_mul(
            structure.sigma_series(a, precision),
            structure.sigma_series(b, precision),
        ),
        label="sigma multiplicative",
    )
