"""Exact commutative coefficient rings.

Supported rings: the integers, the rationals, integer polynomial rings in
finitely many named variables, and finite fields (see
:mod:`wittzeta.finitefield` for the field construction itself).

Elements are plain immutable Python values interpreted by their ring object:

* integers             -> ``int``
* rationals            -> ``fractions.Fraction``
* polynomials          -> tuple of ``(exponent-tuple, coefficient)`` terms,
                          sorted by (total degree, then inverse-lex), no zero
                          terms; the empty tuple is the zero polynomial
* finite field element -> ``int`` in ``[0, q)`` encoding the coefficient
                          vector in base p, constant digit least significant

All representations are canonical, so ``==`` and ``hash`` behave and every
value can be shared freely between threads.  Division is exact: `exact_div`
returns the quotient in the ring itself or raises NonIntegral, which is what
lets Witt multiplication via ghost coordinates stay in the coefficient ring,
with no detour through its fraction field and no floating point.  Rational
reconstruction does need a field; :func:`wittzeta.rational.fraction_field`
supplies it.

Powers are computed one way everywhere: :func:`binary_power` is the
square-and-multiply behind `Ring.power`, series powers and finite-field
vector powers.

Sums of terms print one way everywhere (polynomials, series, classes in the
Grothendieck group): :func:`scaled_term` writes one coefficient times one
monomial and :func:`signed_sum` joins the terms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import NonIntegral


class Ring:
    """Interface shared by all coefficient rings."""

    name: str
    torsion_free: bool

    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    # derived helpers

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return other is self or (
            type(other) is type(self) and other.name == self.name
        )

    def __hash__(self):
        return hash((type(self), self.name))

    def render(self, a) -> str:
        return str(a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a) -> bool:
        return a == self.zero

    def mul_int(self, a, n: int):
        return self.mul(a, self.from_int(n))

    def power(self, a, n: int):
        return binary_power(self.mul, self.one, a, n)

    def try_inverse(self, a):
        """Inverse of a unit, or None when `a` is not invertible."""
        raise NotImplementedError

    def exact_div(self, a, b):
        """Quotient a/b when it exists in the ring; raises NonIntegral otherwise.

        This is the field case, a times the inverse of b; rings with
        non-units other than zero override it.
        """
        inv = self.try_inverse(b)
        if inv is None:
            raise NonIntegral(f"{self.render(b)} has no inverse in {self.name}")
        return self.mul(a, inv)


def binary_power(mul, one, base, n: int):
    """base**n by square-and-multiply with the product `mul`.

    Makes bit_length(n) + popcount(n) - 2 products for n >= 1: none with
    `one`, which is returned only for n == 0, and no square after the top
    bit.  Raises ValueError for n < 0.
    """
    if n < 0:
        raise ValueError(f"negative exponent {n}")
    if n == 0:
        return one
    result = None
    while True:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if not n:
            return result
        base = mul(base, base)


def scaled_term(coeff: str, mono: str) -> str:
    """The term coeff*mono as printed, from the rendered coefficient.

    A unit coefficient is implied (``t``, ``-t``), an empty monomial leaves
    the coefficient alone, and a coefficient that is itself a sum is
    bracketed.
    """
    if not mono:
        return coeff
    if coeff == "1":
        return mono
    if coeff == "-1":
        return "-" + mono
    if " + " in coeff or " - " in coeff:
        coeff = f"({coeff})"
    return f"{coeff}*{mono}"


def signed_sum(parts) -> str:
    """Join rendered terms with " + ", turning a leading "-" into " - "."""
    parts = list(parts)
    if not parts:
        return "0"
    out = parts[0]
    for text in parts[1:]:
        if text.startswith("-"):
            out += " - " + text[1:]
        else:
            out += " + " + text
    return out


class IntegerRing(Ring):
    name = "ZZ"
    torsion_free = True

    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def from_int(self, n):
        return n

    def try_inverse(self, a):
        return a if a in (1, -1) else None

    def exact_div(self, a, b):
        if not b:
            raise NonIntegral(f"division of {a} by zero")
        q, r = divmod(a, b)
        if r:
            raise NonIntegral(f"{a} is not divisible by {b}")
        return q


class RationalRing(Ring):
    name = "QQ"
    torsion_free = True

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def from_int(self, n):
        return Fraction(n)

    def try_inverse(self, a):
        return 1 / a if a else None


ZZ = IntegerRing()
QQ = RationalRing()


class MPolyRing(Ring):
    """Polynomials in named variables over ZZ.

    Terms are stored as a tuple of (exponents, coefficient) pairs ordered by
    ascending total degree, ties broken so that earlier variables come first;
    this is also the printing order.
    """

    torsion_free = True

    def __init__(self, variables: tuple[str, ...]):
        if not variables:
            raise ValueError("polynomial ring needs at least one variable")
        self.vars = tuple(variables)
        self.name = f"ZZ[{','.join(self.vars)}]"
        self._zero_exps = (0,) * len(self.vars)
        self._univariate = len(self.vars) == 1

    @property
    def zero(self):
        return ()

    @property
    def one(self):
        return ((self._zero_exps, 1),)

    def _canon(self, terms: dict):
        items = [(e, c) for e, c in terms.items() if c]
        if len(items) > 1:
            if self._univariate:
                items.sort()
            else:
                items.sort(key=lambda t: (sum(t[0]), tuple(-x for x in t[0])))
        return tuple(items)

    def from_terms(self, terms: dict):
        return self._canon(dict(terms))

    def monomial(self, exps, coeff=None):
        coeff = 1 if coeff is None else coeff
        if not coeff:
            return ()
        return ((tuple(exps), coeff),)

    def variable(self, name: str):
        i = self.vars.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(self.vars)))
        return self.monomial(exps)

    def add(self, a, b):
        terms = dict(a)
        for e, c in b:
            s = terms.get(e, 0) + c
            if not s:
                terms.pop(e, None)
            else:
                terms[e] = s
        return self._canon(terms)

    def neg(self, a):
        return tuple((e, -c) for e, c in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        terms: dict = {}
        get = terms.get
        if self._univariate:
            # exponents are bare ints here, retupled once at the end
            for (xa,), ca in a:
                for (xb,), cb in b:
                    e = xa + xb
                    prev = get(e)
                    terms[e] = ca * cb if prev is None else prev + ca * cb
            return tuple(((e,), c) for e, c in sorted(terms.items()) if c)
        for ea, ca in a:
            for eb, cb in b:
                e = tuple(map(int.__add__, ea, eb))
                prev = get(e)
                terms[e] = ca * cb if prev is None else prev + ca * cb
        return self._canon(terms)

    def from_int(self, n):
        return self.monomial(self._zero_exps, n)

    def total_degree(self, a) -> int:
        return max((sum(e) for e, _ in a), default=-1)

    def try_inverse(self, a):
        if len(a) != 1:
            return None
        e, c = a[0]
        if e != self._zero_exps:
            return None
        inv = ZZ.try_inverse(c)
        if inv is None:
            return None
        return self.monomial(self._zero_exps, inv)

    def exact_div(self, a, b):
        """Exact polynomial quotient; raises NonIntegral when b does not divide a."""
        if not b:
            raise NonIntegral("division by the zero polynomial")
        if len(b) == 1 and b[0][0] == self._zero_exps:
            cb = b[0][1]
            return self._canon({e: ZZ.exact_div(c, cb) for e, c in a})
        quotient: dict = {}
        rem = a
        eb, cb = b[-1]  # leading term in the graded order
        while rem:
            ea, ca = rem[-1]
            exps = tuple(x - y for x, y in zip(ea, eb))
            if any(x < 0 for x in exps):
                raise NonIntegral("inexact polynomial division (monomials)")
            coeff = ZZ.exact_div(ca, cb)
            quotient[exps] = quotient.get(exps, 0) + coeff
            rem = self.sub(rem, self.mul(self.monomial(exps, coeff), b))
        return self._canon(quotient)

    def dense(self, a) -> list:
        """Coefficients of a univariate polynomial, constant term first.

        The zero polynomial gives the empty list.
        """
        out = [0] * (self.total_degree(a) + 1)
        for (d,), c in a:
            out[d] = c
        return out

    def render(self, a) -> str:
        parts = []
        for e, c in a:
            mono = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.vars, e)
                if k
            )
            parts.append(scaled_term(str(c), mono))
        return signed_sum(parts)


@lru_cache(maxsize=None)
def poly_ring(variables: tuple[str, ...]) -> MPolyRing:
    return MPolyRing(variables)
