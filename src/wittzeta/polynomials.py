"""Univariate polynomials over an arbitrary coefficient ring.

Elements of `Poly1Ring(R)` are tuples of R-elements, constant term first,
with trailing zeros stripped; the empty tuple is zero.  `Poly1Ring` is the
coefficient arithmetic of rational Witt vectors, of the rational function
field QQ(u) and of F_p[x], where :mod:`wittzeta.finitefield` tests and
reduces by the moduli of its extension fields.  It satisfies the ring
interface itself, so determinants of matrices with polynomial entries reuse
the same fraction-free elimination as ordinary integer matrices.

`resultant` evaluates the Sylvester determinant at *declared* degrees, which
may exceed the true degrees; the extra rows of zeros simply scale the
result, and callers rely on that convention when the leading coefficient of
an operand vanishes.  The library computes star products of rational Witt
vectors through the Witt product instead; the tests keep `resultant` as an
independent oracle for them.
"""

from __future__ import annotations

from .errors import NonIntegral, ZeroPolynomial
from .rings import Ring, scaled_term, signed_sum


def convolve(ring: Ring, a, b, n: int) -> list:
    """The coefficients of t^0 .. t^(n-1) of a*b, for coefficient
    sequences a and b over `ring`; zero terms of either are skipped."""
    is_zero, add, mul = ring.is_zero, ring.add, ring.mul
    out = [ring.zero] * n
    terms = [(j, y) for j, y in enumerate(b[:n]) if not is_zero(y)]
    for i, x in enumerate(a[:n]):
        if is_zero(x):
            continue
        while terms and terms[-1][0] >= n - i:  # past t^(n-1) from here on
            terms.pop()
        for j, y in terms:
            out[i + j] = add(out[i + j], mul(x, y))
    return out


class Poly1Ring(Ring):
    """Polynomials in one variable over `base`, tuple-of-coefficients values."""

    def __init__(self, base: Ring, var: str = "t"):
        self.base = base
        self.var = var
        self.name = f"{base.name}[{var}]"
        self.torsion_free = base.torsion_free

    @property
    def zero(self):
        return ()

    @property
    def one(self):
        return (self.base.one,)

    def trim(self, coeffs):
        coeffs = tuple(coeffs)
        i = len(coeffs)
        while i > 0 and self.base.is_zero(coeffs[i - 1]):
            i -= 1
        return coeffs[:i]

    def constant(self, c):
        return self.trim((c,))

    def monomial(self, degree: int, c=None):
        c = self.base.one if c is None else c
        if self.base.is_zero(c):
            return ()
        return (self.base.zero,) * degree + (c,)

    def add(self, a, b):
        n = max(len(a), len(b))
        z = self.base.zero
        return self.trim(
            self.base.add(
                a[i] if i < len(a) else z,
                b[i] if i < len(b) else z,
            )
            for i in range(n)
        )

    def neg(self, a):
        return tuple(self.base.neg(c) for c in a)

    def mul(self, a, b):
        return self.trim(convolve(self.base, a, b, len(a) + len(b) - 1))

    def scale(self, c, a):
        if self.base.is_zero(c):
            return ()
        return self.trim(self.base.mul(c, x) for x in a)

    def from_int(self, n):
        return self.constant(self.base.from_int(n))

    def try_inverse(self, a):
        if len(a) != 1:
            return None
        inv = self.base.try_inverse(a[0])
        return None if inv is None else (inv,)

    def _divide(self, a, b, div, by):
        """Long division of a by a nonzero b: (quotient, remainder).

        Each quotient coefficient is div(c, by), c being the leading
        coefficient of the running remainder: c over b's leading
        coefficient, as an exact division by it or a product with its inverse.
        """
        base = self.base
        rem = list(a)
        db = len(b) - 1
        quo = [base.zero] * max(len(a) - db, 0)
        for k in reversed(range(len(quo))):
            c = div(rem[k + db], by)
            quo[k] = c
            if not base.is_zero(c):
                for j, y in enumerate(b):
                    rem[k + j] = base.sub(rem[k + j], base.mul(c, y))
        return self.trim(quo), self.trim(rem)

    def exact_div(self, a, b):
        """Exact quotient a/b; raises NonIntegral when b does not divide a."""
        if not b:
            raise NonIntegral("division by the zero polynomial")
        quo, rem = self._divide(a, b, self.base.exact_div, b[-1])
        if rem:
            raise NonIntegral("inexact polynomial division")
        return quo

    def divmod(self, a, b):
        """Quotient and remainder; requires an invertible leading coefficient."""
        if not b:
            raise NonIntegral("division by the zero polynomial")
        inv = self.base.try_inverse(b[-1])
        if inv is None:
            raise NonIntegral("leading coefficient is not invertible")
        return self._divide(a, b, self.base.mul, inv)

    def gcd(self, a, b):
        """Monic gcd over a field coefficient ring (zero for two zeros).

        Ben-Or's irreducibility test over F_p calls it; rational functions
        over QQ cancel by a primitive gcd over ZZ instead.
        """
        while b:
            _, r = self.divmod(a, b)
            a, b = b, r
        if a:
            inv = self.base.try_inverse(a[-1])
            a = self.scale(inv, a)
        return a

    def render(self, a) -> str:
        """Terms by ascending degree; zero coefficients, trailing or not, drop."""
        parts = []
        for i, c in enumerate(a):
            if not self.base.is_zero(c):
                mono = "" if i == 0 else self.var if i == 1 else f"{self.var}^{i}"
                parts.append(scaled_term(self.base.render(c), mono))
        return signed_sum(parts)


def determinant(ring: Ring, rows: list[list]) -> object:
    """Fraction-free (Bareiss) determinant of a square matrix over a domain."""
    n = len(rows)
    if n == 0:
        return ring.one
    m = [list(r) for r in rows]
    sign = 1
    prev = ring.one
    for i in range(n):
        pivot = next(
            (r for r in range(i, n) if not ring.is_zero(m[r][i])), None
        )
        if pivot is None:
            return ring.zero
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                num = ring.sub(
                    ring.mul(m[i][i], m[r][c]), ring.mul(m[r][i], m[i][c])
                )
                m[r][c] = ring.exact_div(num, prev)
            m[r][i] = ring.zero
        prev = m[i][i]
    det = m[n - 1][n - 1]
    return ring.neg(det) if sign < 0 else det


def resultant(ring: Ring, f, g, deg_f: int, deg_g: int):
    """Resultant of f and g over `ring` at the declared degrees.

    `f` and `g` are coefficient sequences, constant term first, allowed to be
    shorter than the declared degree plus one.  The Sylvester matrix has
    deg_g rows of f-coefficients (leading coefficient first) above deg_f rows
    of g-coefficients, and the determinant is evaluated fraction-free.
    """
    if deg_f < 0 or deg_g < 0:
        raise ZeroPolynomial("declared degrees must be nonnegative")
    fc = list(f) + [ring.zero] * (deg_f + 1 - len(f))
    gc = list(g) + [ring.zero] * (deg_g + 1 - len(g))
    if deg_g == 0:
        return ring.power(gc[0], deg_f)
    if deg_f == 0:
        return ring.power(fc[0], deg_g)
    n = deg_f + deg_g
    rows = []
    rev_f = list(reversed(fc[: deg_f + 1]))
    rev_g = list(reversed(gc[: deg_g + 1]))
    for i in range(deg_g):
        rows.append(
            [ring.zero] * i + rev_f + [ring.zero] * (n - deg_f - 1 - i)
        )
    for i in range(deg_f):
        rows.append(
            [ring.zero] * i + rev_g + [ring.zero] * (n - deg_g - 1 - i)
        )
    return determinant(ring, rows)
