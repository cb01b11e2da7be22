"""Truncated power series with exact coefficients.

A series of precision N stores the N+1 coefficients of t^0 .. t^N; all
operations are exact on that window and the tail is reported as O(t^(N+1)).
Instances are immutable and the precision is part of the value: mixing two
precisions (or two coefficient rings) raises instead of silently truncating,
because every identity checked downstream is an equality of windows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    NonUnitConstantTerm,
    PrecisionMismatch,
    RingMismatch,
)
from .polynomials import Poly1Ring, convolve
from .rings import Ring, binary_power


@dataclass(frozen=True)
class TruncSeries:
    ring: Ring
    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a series stores at least its constant term")

    @property
    def precision(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self):
        return f"TruncSeries({self.render()!r})"

    # constructors

    @staticmethod
    def make(ring: Ring, coeffs, precision: int) -> "TruncSeries":
        coeffs = list(coeffs)[: precision + 1]
        coeffs += [ring.zero] * (precision + 1 - len(coeffs))
        return TruncSeries(ring, tuple(coeffs))

    @staticmethod
    def constant(ring: Ring, value, precision: int) -> "TruncSeries":
        return TruncSeries.make(ring, [value], precision)

    @staticmethod
    def one(ring: Ring, precision: int) -> "TruncSeries":
        return TruncSeries.constant(ring, ring.one, precision)

    @staticmethod
    def geometric(ring: Ring, a, precision: int, c: int = 1) -> "TruncSeries":
        """(1 - a*t)^(-c): C(c+n-1, n) * a^n at t^n, 0 past n = -c if c <= 0."""
        coeffs = [ring.one]
        b, power = 1, ring.one
        for n in range(1, precision + 1):
            b = b * (c + n - 1) // n
            if b == 0:
                break
            power = ring.mul(power, a)
            coeffs.append(ring.mul_int(power, b))
        return TruncSeries.make(ring, coeffs, precision)

    @staticmethod
    def quotient(ring: Ring, num, den, precision: int) -> "TruncSeries":
        """num/den to t^precision, den_0 a unit, by the recurrence c_m =
        den_0^(-1) (num_m - sum_(j>=1) den_j c_(m-j)) over nonzero den_j."""
        inv0 = ring.try_inverse(den[0])
        if inv0 is None:
            raise NonUnitConstantTerm(
                f"constant term {ring.render(den[0])} is not a unit"
            )
        scale = inv0 != ring.one
        steps = [(j, d) for j, d in enumerate(den) if j and not ring.is_zero(d)]
        add, mul, zero = ring.add, ring.mul, ring.zero
        out = []
        for m in range(precision + 1):
            acc = zero
            for j, d in steps:
                if j > m:
                    break
                acc = add(acc, mul(d, out[m - j]))
            c = ring.sub(num[m] if m < len(num) else zero, acc)
            out.append(mul(inv0, c) if scale else c)
        return TruncSeries(ring, tuple(out))

    # helpers

    def check_compatible(self, other: "TruncSeries"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring.name} vs {other.ring.name}")
        if self.precision != other.precision:
            raise PrecisionMismatch(
                f"{self.precision} vs {other.precision}"
            )

    def truncate(self, precision: int) -> "TruncSeries":
        if precision == self.precision:
            return self
        return TruncSeries.make(self.ring, self.coeffs, precision)

    # arithmetic

    def add(self, other: "TruncSeries") -> "TruncSeries":
        self.check_compatible(other)
        r = self.ring
        return TruncSeries(
            r, tuple(r.add(a, b) for a, b in zip(self.coeffs, other.coeffs))
        )

    def sub(self, other: "TruncSeries") -> "TruncSeries":
        self.check_compatible(other)
        r = self.ring
        return TruncSeries(
            r, tuple(r.sub(a, b) for a, b in zip(self.coeffs, other.coeffs))
        )

    def neg(self) -> "TruncSeries":
        r = self.ring
        return TruncSeries(r, tuple(r.neg(a) for a in self.coeffs))

    def mul(self, other: "TruncSeries") -> "TruncSeries":
        self.check_compatible(other)
        out = convolve(self.ring, self.coeffs, other.coeffs, len(self.coeffs))
        return TruncSeries(self.ring, tuple(out))

    def invert(self) -> "TruncSeries":
        r = self.ring
        return TruncSeries.quotient(r, (r.one,), self.coeffs, self.precision)

    def pow_int(self, n: int) -> "TruncSeries":
        base = self if n >= 0 else self.invert()
        one = TruncSeries.one(self.ring, self.precision)
        return binary_power(TruncSeries.mul, one, base, abs(n))

    def scale_argument(self, s) -> "TruncSeries":
        """g(t) -> g(s*t), multiplying the n-th coefficient by s^n."""
        r = self.ring
        out = []
        power = r.one
        for c in self.coeffs:
            out.append(r.mul(c, power))
            power = r.mul(power, s)
        return TruncSeries(r, tuple(out))

    # presentation

    def render(self) -> str:
        window = Poly1Ring(self.ring, "t").render(self.coeffs)
        return f"{window} + O(t^{self.precision + 1})"

    def render_json(self) -> dict:
        return {
            "precision": self.precision,
            "coeffs": [self.ring.render(c) for c in self.coeffs],
        }
