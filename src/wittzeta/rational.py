"""Rational Witt vectors and rational reconstruction.

A rational Witt vector is a pair of polynomials (p, q) with constant terms
1, standing for the series p/q; in Witt terms that is p -_W q.  The class
of such elements is closed under the Witt product, and the product is
computed exactly from the building block (1/p) * (1/q) = 1/r.  Over an
algebraic closure, p = prod (1 - a_i t) and q = prod (1 - b_j t) give

    r(t) = prod_{i,j} (1 - a_i b_j t),

of degree exactly deg p * deg q.  A Witt product truncated at that
precision therefore holds all of r, and `rat_star` reads it off the
ghost-coordinate engine of :mod:`wittzeta.witt`.  Writing
f = (1/b) -_W (1/a) and g = (1/d) -_W (1/c) and expanding bilinearly
gives the product pair

    f * g = ( star(a,d) * star(b,c) , star(a,c) * star(b,d) ).

Over ZZ and QQ the pair is then reduced to lowest terms with a primitive
remainder sequence over ZZ[t] (Collins, JACM 1967), so no rational
coefficient ever grows inside Euclid's algorithm; the rational function
field QQ(u) cancels its fractions the same way.

`rationalize` goes the other way: given a truncated series it finds the
pair with both degrees bounded, or None, in one elimination pass over the
Hankel system in the fraction field.  Padé forms are unique under the
precision bound, so the first solvable denominator degree is the answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .budgets import check
from .errors import NonIntegral, PrecisionTooLow
from .polynomials import Poly1Ring
from .rings import MPolyRing, QQ, Ring, ZZ
from .series import TruncSeries
from .witt import witt_mul, witt_neg


@dataclass(frozen=True)
class RatWitt:
    """Pair (num, den) of coefficient tuples over `ring`, constant terms 1."""

    ring: Ring
    num: tuple
    den: tuple

    def __post_init__(self):
        for part in (self.num, self.den):
            if not part or part[0] != self.ring.one:
                raise ValueError("numerator and denominator need constant term 1")

    def __repr__(self):
        return f"RatWitt({self.render()!r})"

    def render(self) -> str:
        rt = Poly1Ring(self.ring, "t")
        return f"({rt.render(self.num)})/({rt.render(self.den)})"

    def render_json(self) -> dict:
        return {
            "num": [self.ring.render(c) for c in self.num],
            "den": [self.ring.render(c) for c in self.den],
        }


def rat_make(ring: Ring, num, den) -> RatWitt:
    rt = Poly1Ring(ring, "t")
    num, den = rt.trim(num), rt.trim(den)
    if ring in (ZZ, QQ):
        num, den = _reduce_over_rationals(ring, num, den)
    return RatWitt(ring, num, den)


def rat_zero(ring: Ring) -> RatWitt:
    return RatWitt(ring, (ring.one,), (ring.one,))


def rat_expand(f: RatWitt, precision: int) -> TruncSeries:
    """num/den to t^precision by the linear recurrence that den imposes
    (`TruncSeries.quotient`), with no series inverse of den."""
    return TruncSeries.quotient(f.ring, f.num, f.den, precision)


def rat_equal(f: RatWitt, g: RatWitt) -> bool:
    """Equality of the denoted series, by cross-multiplication."""
    if f.ring != g.ring:
        return False
    rt = Poly1Ring(f.ring, "t")
    return rt.mul(f.num, g.den) == rt.mul(g.num, f.den)


def rat_star(ring: Ring, p: tuple, q: tuple) -> tuple:
    """The polynomial r with (1/p) * (1/q) = 1/r in the Witt ring.

    Witt negation is the series inverse and (-x) * (-y) = x * y, so r is
    the inverse of witt_mul(p, q).  r has degree exactly deg p * deg q, so
    that precision holds all of it.  Every ring a `RatWitt` lives over (ZZ,
    QQ, ZZ[u] and QQ(u)) is torsion-free, as the ghost engine requires.
    """
    rt = Poly1Ring(ring, "t")
    p, q = rt.trim(p), rt.trim(q)
    dp, dq = len(p) - 1, len(q) - 1
    if dp < 1 or dq < 1:
        return (ring.one,)
    n = dp * dq
    prod = witt_mul(
        TruncSeries.make(ring, p, n), TruncSeries.make(ring, q, n)
    )
    return rt.trim(witt_neg(prod).coeffs)


def rat_add(f: RatWitt, g: RatWitt) -> RatWitt:
    rt = Poly1Ring(f.ring, "t")
    return rat_make(f.ring, rt.mul(f.num, g.num), rt.mul(f.den, g.den))


def rat_neg(f: RatWitt) -> RatWitt:
    return rat_make(f.ring, f.den, f.num)


def rat_mul(f: RatWitt, g: RatWitt) -> RatWitt:
    ring = f.ring
    rt = Poly1Ring(ring, "t")
    a, b, c, d = f.num, f.den, g.num, g.den
    num = rt.mul(rat_star(ring, a, d), rat_star(ring, b, c))
    den = rt.mul(rat_star(ring, a, c), rat_star(ring, b, d))
    return rat_make(ring, num, den)


def _reduce_over_rationals(ring: Ring, num, den):
    """Cancel the common factor, keeping both constant terms at 1.

    The quotients of `_cancel` share the constant term m/g(0), so dividing
    by it restores 1.  Over ZZ, m = 1 and g(0) = +-1, its own inverse.
    """
    if not (num and den) or num[0] != 1 or den[0] != 1:
        raise ValueError("numerator and denominator need constant term 1")
    num_z, den_z = _cancel(num, den)
    scale = num_z[0] if ring is ZZ else Fraction(1, num_z[0])
    return tuple(c * scale for c in num_z), tuple(c * scale for c in den_z)


def _cancel(num, den) -> tuple:
    """num/den over QQ in lowest terms, as two coprime ZZ[t] polynomials.

    Both nonzero parts are cleared of denominators by one common multiple m
    and divided by their primitive gcd g in ZZ[t]; by Gauss's lemma those
    divisions are exact.  The caller normalizes the pair.
    """
    m = math.lcm(*(c.denominator for c in num + den))
    a = [c.numerator * (m // c.denominator) for c in num]
    b = [c.numerator * (m // c.denominator) for c in den]
    g = _primitive_gcd(a, b)
    zt = Poly1Ring(ZZ, "t")
    return zt.exact_div(a, g), zt.exact_div(b, g)


def _primitive(a: list) -> list:
    content = math.gcd(*a)
    return [c // content for c in a]


def _pseudo_remainder(a: list, b: list) -> list:
    """Remainder of lc(b)^k * a on division by b in ZZ[t], some k >= 0."""
    r = list(a)
    lead = b[-1]
    shift = len(r) - len(b)
    while shift >= 0:
        c = r[-1]
        r = [lead * x for x in r]
        for j, y in enumerate(b):
            r[shift + j] -= c * y
        while r and not r[-1]:
            r.pop()
        shift = len(r) - len(b)
    return r


def _primitive_gcd(a: list, b: list) -> list:
    """Primitive gcd of two nonzero polynomials over ZZ, up to sign.

    Primitive remainder sequence: each pseudo-remainder is divided by its
    content, which keeps the coefficients as small as the gcd allows.
    """
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_remainder(a, b)
        a, b = b, (_primitive(r) if r else [])
    return a


class RatFuncRing(Ring):
    """Field of univariate rational functions over the rationals.

    Elements are (num, den) pairs of coefficient tuples with a monic,
    coprime denominator; the zero element is ((), (1,)).  Common factors
    cancel through `_cancel`, the primitive gcd over ZZ[u] of `rat_make`.
    """

    torsion_free = True

    def __init__(self, var: str = "u"):
        self.var = var
        self.poly = Poly1Ring(QQ, var)
        self.name = f"QQ({var})"

    @property
    def zero(self):
        return ((), (Fraction(1),))

    @property
    def one(self):
        return ((Fraction(1),), (Fraction(1),))

    def make(self, num, den):
        pr = self.poly
        num, den = pr.trim(num), pr.trim(den)
        if not den:
            raise NonIntegral("zero denominator in a rational function")
        if not num:
            return self.zero
        num_z, den_z = _cancel(num, den)
        lead = den_z[-1]  # the denominator is made monic
        return (
            tuple(Fraction(c, lead) for c in num_z),
            tuple(Fraction(c, lead) for c in den_z),
        )

    def from_poly(self, coeffs):
        return self.make(tuple(Fraction(c) for c in coeffs), (Fraction(1),))

    def add(self, a, b):
        pr = self.poly
        num = pr.add(pr.mul(a[0], b[1]), pr.mul(b[0], a[1]))
        return self.make(num, pr.mul(a[1], b[1]))

    def neg(self, a):
        return (self.poly.neg(a[0]), a[1])

    def mul(self, a, b):
        pr = self.poly
        return self.make(pr.mul(a[0], b[0]), pr.mul(a[1], b[1]))

    def from_int(self, n):
        return self.from_poly((Fraction(n),))

    def try_inverse(self, a):
        if not a[0]:
            return None
        return self.make(a[1], a[0])

    def render(self, a) -> str:
        pr = self.poly
        if a[1] == (Fraction(1),):
            return pr.render(a[0])
        return f"({pr.render(a[0])})/({pr.render(a[1])})"


def fraction_field(ring: Ring):
    """(field, embed, retract) for rings whose fractions we can work in.

    `retract` maps a field element back into `ring` or returns None when it
    does not belong there.
    """
    if ring is ZZ:
        return QQ, Fraction, lambda x: int(x) if x.denominator == 1 else None
    if ring is QQ:
        return QQ, lambda x: x, lambda x: x
    if isinstance(ring, MPolyRing) and len(ring.vars) == 1:
        field = RatFuncRing(ring.vars[0])

        def embed(a):
            return field.from_poly(Fraction(c) for c in ring.dense(a))

        def retract(x):
            num, den = x
            if den != (Fraction(1),):
                return None
            if any(c.denominator != 1 for c in num):
                return None
            return ring.from_terms(
                {(i,): int(c) for i, c in enumerate(num) if c}
            )

        return field, embed, retract
    raise ValueError(f"no fraction field support for {ring.name}")


def rationalize(g: TruncSeries, dmax: int):
    """The pair (num, den) in lowest terms that g expands, or None.

    Both degrees are at most dmax and all of c_0..c_N of g must match,
    which needs 2*dmax < N + 1, else PrecisionTooLow.  The pair is then
    unique: q*g = p and q'*g = p' modulo t^(N+1) give p*q' = p'*q there,
    and both sides have degree at most 2*dmax, so p/q = p'/q'.

    The Hankel rows n = dmax+1..N, sum_{j=1..dmax} q_j c_(n-j) = -c_n, say
    that q*g has no term t^n.  One elimination runs over their columns in
    order; after column dq the system in q_1..q_dq is solvable exactly when
    no row left without a pivot has a nonzero right-hand side.  By
    uniqueness the first solvable dq is the degree of the reduced
    denominator and q is the only solution there, so no numerator degree is
    searched: num is q*g truncated at degree dmax.

    Its (N - dmax) (dmax + 1)^2 entry updates at most, N - dmax rows of
    dmax + 1 entries for each of up to dmax + 1 pivots, are checked
    against the "elimination" budget before any row is built.
    """
    n_max = g.precision
    if 2 * dmax >= n_max:
        raise PrecisionTooLow(
            f"need 2*dmax < precision, got dmax={dmax}, precision={n_max}"
        )
    ring = g.ring
    field, embed, retract = fraction_field(ring)
    if dmax < 0:
        return None
    updates = (n_max - dmax) * (dmax + 1) ** 2
    context = f"rationalizing {n_max + 1} coefficients at dmax {dmax} takes up to "
    check("elimination", updates, context)
    c = [embed(x) for x in g.coeffs]
    is_zero, mul, sub = field.is_zero, field.mul, field.sub
    rows = [  # the rows without a pivot
        [c[n - j] for j in range(1, dmax + 1)] + [field.neg(c[n])]
        for n in range(dmax + 1, n_max + 1)
    ]
    pivots = []  # (column, row) with the row scaled so its pivot is 1
    dq = 0
    while not all(is_zero(row[-1]) for row in rows):
        if dq == dmax:
            return None
        col, dq = dq, dq + 1
        at = next((i for i, row in enumerate(rows) if not is_zero(row[col])), None)
        if at is None:
            continue
        inv = field.try_inverse(rows[at][col])
        top = [mul(inv, v) for v in rows.pop(at)]
        pivots.append((col, top))
        for row in rows:
            factor = row[col]
            if not is_zero(factor):
                for k in range(col, dmax + 1):
                    row[k] = sub(row[k], mul(factor, top[k]))
    q = [field.one] + [field.zero] * dq
    for col, row in reversed(pivots):
        acc = row[-1]
        for k in range(col + 1, dq):
            acc = sub(acc, mul(row[k], q[k + 1]))
        q[col + 1] = acc
    rt = Poly1Ring(field, "t")
    p = rt.trim(rt.mul(q, c[: dmax + 1])[: dmax + 1])
    return _assemble(ring, field, retract, p, q)


def _assemble(ring, field, retract, p, q):
    back_p = [retract(x) for x in p]
    back_q = [retract(x) for x in q]
    if None not in back_p and None not in back_q:
        return rat_make(ring, back_p, back_q)
    return rat_make(field, tuple(p), tuple(q))
