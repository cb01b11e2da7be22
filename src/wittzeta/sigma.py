"""Sigma operations and their lambda counterparts.

A sigma structure on a ring R packages the map sending a in R to the
series sigma_t(a) with sigma^0 = 1 and sigma^1 = a, landing in the Witt
ring of R.  The opposite lambda series is obtained through the involution
g(t) -> g(-t)^(-1), so lambda^n values come for free.

Two structures are provided, each fixed by its line elements x, those with
sigma_t(x) = (1 - x*t)^(-1).  On the integers the one line element is 1, so
sigma_t(m) = (1-t)^(-m) and lambda^n(m) is C(m, n).  On integer polynomials
in u they are the powers u^r, so sigma_t of sum c_r u^r is the product of the
factors (1 - u^r t)^(-c_r); negative c_r give polynomial factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import RingMismatch
from .rings import Ring, ZZ, poly_ring
from .series import TruncSeries
from .verdict import Verdict, compare_series
from .witt import lambda_involution, witt_add, witt_mul


@dataclass(frozen=True)
class SigmaStructure:
    """sigma_t on `ring`; `lines(a)` lists the line elements x of a with their
    multiplicities c, and sigma_t(a) is the product of (1 - x*t)^(-c)."""

    name: str
    ring: Ring
    lines: Callable[[object], list] = field(compare=False)

    def sigma_series(self, a, precision: int) -> TruncSeries:
        """sigma_t(a) truncated; coefficient of t^n is sigma^n(a)."""
        out = TruncSeries.one(self.ring, precision)
        for x, c in self.lines(a):
            out = out.mul(TruncSeries.geometric(self.ring, x, precision, c))
        return out

    def lambda_series(self, a, precision: int) -> TruncSeries:
        """lambda_t(a) = iota(sigma_t(a)); coefficient of t^n is lambda^n(a)."""
        return lambda_involution(self.sigma_series(a, precision))


def _integer_lines(m) -> list:
    if not isinstance(m, int):
        raise RingMismatch(f"expected an integer, got {m!r}")
    return [(1, m)]


BINOMIAL_Z = SigmaStructure("binomial", ZZ, _integer_lines)

ZU = poly_ring(("u",))


def _monomial_lines(f) -> list:
    if not isinstance(f, tuple) or not all(
        isinstance(term, tuple) and len(term) == 2 for term in f
    ):
        raise RingMismatch(f"expected a polynomial in u, got {f!r}")
    return [(ZU.monomial(exps), c) for exps, c in f]


PLETHYSTIC_ZU = SigmaStructure("plethystic", ZU, _monomial_lines)


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
