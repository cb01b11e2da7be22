"""Finite fields with a deterministic choice of modulus.

``make_field(p, k)`` returns the field with ``p**k`` elements.  The modulus
is the first monic irreducible polynomial ``x^k + c_{k-1} x^{k-1} + ... + c_0``
found by counting ``m = 0, 1, 2, ...`` and reading the ``c_i`` off as the
base-p digits of ``m``, least significant digit giving ``c_0``.  Two calls
with the same arguments therefore agree on every bit of the representation.
Each candidate is tested by Ben-Or's irreducibility test in F_p[x], which is
`Poly1Ring` over the prime field; the same ring reduces x^(k+i) modulo the
chosen modulus to give the rows that fold products back into degree < k.

Elements are encoded as plain integers in ``[0, p**k)``: the base-p digits of
the code are the coefficients of the residue polynomial, constant digit
least significant.  This keeps single elements hashable and lets large
batches live in numpy integer arrays, which the ``vec_*`` methods act on
directly.

Over a prime field (k = 1) all arithmetic is integer arithmetic mod p.
An extension field has one kernel, the ``vec_*`` methods; scalar `GF.add`
and `GF.mul` are one-element calls of `GF.vec_add` and `GF.vec_mul`, `GF.neg`
multiplies by -1 and `GF.try_inverse` raises to the power q - 2.  When
q <= ``_LOG_LIMIT``, which is the enumeration budget of `counting`, the first
vector op whose operands broadcast to at least ``_LOG_TRIGGER`` elements
builds exp/log tables for a generator g and a Zech table
``zech[e] = log(1 + g^e)``; from then on every op, scalar or vector, is a
table gather on discrete logarithms.  Without the tables (short vectors
before the first long one, and fields past the budget) the ops decode to
base-p digit matrices, add or convolve, and fold the overflow digits back
with precomputed reduction rows; the table build itself runs on these
digit products.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

from .errors import DegreeZero, NonIntegral, NotPrime
from .polynomials import Poly1Ring
from .rings import Ring, binary_power

# largest q for which discrete-log tables are built: counting.BUDGET, so
# that every field a budgeted grid can enumerate gets them
_LOG_LIMIT = 10**7
_LOG_TRIGGER = 4096  # vector size that makes building the tables worthwhile


def factorize(n: int) -> dict[int, int]:
    """{prime: exponent} of n by trial division; empty for n below 2."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = 1  # past sqrt(n), what is left is prime
    return factors


def is_prime(n: int) -> bool:
    return factorize(n) == {n: 1}


def _prime_polys(p: int) -> Poly1Ring:
    """F_p[x], where moduli are tested and reduction rows computed."""
    return Poly1Ring(GF(p, 1, (0, 1)), "x")


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Ben-Or's test for a monic f over F_p (constant term first).

    f of degree k is irreducible exactly when gcd(f, x^(p^i) - x) = 1 for
    i = 1 .. k // 2, i.e. when f has no irreducible factor of degree <= k/2.
    """
    ring = _prime_polys(p)
    x = ring.monomial(1)
    h = x  # x^(p^i) mod f
    for _ in range((len(f) - 1) // 2):
        # h(x)^p = h(x^p) in characteristic p: spread the coefficients
        spread = [0] * (p * (len(h) - 1) + 1)
        spread[::p] = h
        h = ring.divmod(tuple(spread), f)[1]
        if len(ring.gcd(f, ring.sub(h, x))) > 1:
            return False
    return True


class GF(Ring):
    """The finite field with p**k elements, encoded-integer representation."""

    torsion_free = False
    is_field = True

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus  # length k+1, monic, constant term first
        self.characteristic = p
        self.name = f"GF({self.q})"
        # reduction rows: x^(k+i) mod f as a length-k digit vector, i = 0..k-2
        rows = []
        if k > 1:
            ring = _prime_polys(p)
            for i in range(k - 1):
                rem = ring.divmod(ring.monomial(k + i), modulus)[1]
                rows.append(rem + (0,) * (k - len(rem)))
        self._red_matrix = np.array(rows, dtype=np.int64).reshape(k - 1, k)
        self._powers = tuple(p**i for i in range(k))
        self._logs = None  # (exp, log, zech) once built
        self._build_lock = threading.Lock()  # census threads share a field

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return (
            isinstance(other, GF)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def elements(self):
        return range(self.q)

    # ring interface

    zero = 0
    one = 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        return int(self.vec_add(a, b))

    def neg(self, a: int) -> int:
        return self.mul(a, self.p - 1)

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        return int(self.vec_mul(a, b))

    def try_inverse(self, a: int):
        if a == 0:
            return None
        return self.power(a, self.q - 2)

    def exact_div(self, a: int, b: int) -> int:
        inv = self.try_inverse(b)
        if inv is None:
            raise NonIntegral("division by zero in a finite field")
        return self.mul(a, inv)

    def render(self, a) -> str:
        return str(a)

    # discrete-log tables, turning extension-field arithmetic on large
    # arrays into a few gathers: multiplication adds logarithms, and
    # addition uses Zech logarithms, g^i + g^j = g^(i + zech[j - i])

    def _find_generator(self) -> int:
        """The least multiplicative generator, testing 64 candidates at a time."""
        n = self.q - 1
        primes = list(factorize(n))
        for lo in range(1, self.q, 64):
            cand = np.arange(lo, min(lo + 64, self.q), dtype=np.int64)
            ok = np.ones(cand.size, dtype=bool)
            for r in primes:
                ok &= binary_power(self._digit_mul, None, cand, n // r) != 1
            if ok.any():
                return int(cand[ok.argmax()])
        raise AssertionError("no multiplicative generator found, impossible")

    def _build_log_tables(self):
        n = self.q - 1
        g = self._find_generator()
        exp = np.zeros(2 * n, dtype=np.int64)
        exp[0] = 1
        # exp[filled : filled + shift] = exp[filled - shift : filled] * g^shift,
        # with shift doubling up to a block of 4096 elements
        filled, shift, step = 1, 1, np.int64(g)  # step = g^shift
        while filled < n:
            take = min(shift, n - filled)
            exp[filled : filled + take] = self._digit_mul(
                exp[filled - shift : filled - shift + take], step
            )
            filled += take
            if shift < 4096:
                shift, step = 2 * shift, self._digit_mul(step, step)
        exp[n:] = exp[:n]
        log = np.full(self.q, -1, dtype=np.int64)
        log[exp[:n]] = np.arange(n)
        # adding 1 changes only the constant digit of an encoded element
        c, p = exp[:n], self.p
        zech = log[np.where(c % p == p - 1, c - (p - 1), c + 1)]
        self._logs = (exp, log, zech)

    @property
    def _log_built(self) -> bool:
        return self._logs is not None

    def _log_tables(self, size: int):
        """(exp, log, zech) for this field, or None on the digit path."""
        if (
            self._logs is None
            and self.k > 1
            and self.q <= _LOG_LIMIT
            and size >= _LOG_TRIGGER
        ):
            with self._build_lock:
                if self._logs is None:
                    self._build_log_tables()
        return self._logs

    # vectorized arithmetic on numpy arrays of encoded elements

    def vec_decode(self, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr, dtype=np.int64)
        digits = np.empty(arr.shape + (self.k,), dtype=np.int64)
        rest = arr
        for i in range(self.k):
            rest, digits[..., i] = np.divmod(rest, self.p)
        return digits

    def vec_encode(self, digits: np.ndarray) -> np.ndarray:
        weights = np.array(self._powers, dtype=np.int64)
        return (digits % self.p) @ weights

    def vec_add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.k == 1:
            return (a + b) % self.p
        logs = self._log_tables(np.broadcast(a, b).size)
        if logs is None:
            return self.vec_encode(self.vec_decode(a) + self.vec_decode(b))
        exp, log, zech = logs
        la, lb = log[a], log[b]
        z = np.take(zech, lb - la, mode="wrap")  # index mod q-1
        out = np.where(z < 0, 0, exp[la + z])  # z < 0: a == -b
        out = np.where(la < 0, b, out)
        return np.where(lb < 0, a, out)

    def vec_neg(self, a: np.ndarray) -> np.ndarray:
        # with log tables, -1 = g^((q-1)/2) makes this one gather
        return self.vec_mul(a, self.p - 1)

    def vec_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.k == 1:
            return (a * b) % self.p
        logs = self._log_tables(np.broadcast(a, b).size)
        if logs is None:
            return self._digit_mul(a, b)
        exp, log, _ = logs
        la, lb = log[a], log[b]
        vanish = (la < 0) | (lb < 0)
        out = exp[np.where(vanish, 0, la + lb)]
        return np.where(vanish, 0, out)

    def _digit_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products by convolving base-p digits and folding the overflow back."""
        da, db = np.broadcast_arrays(self.vec_decode(a), self.vec_decode(b))
        k = self.k
        conv = np.zeros(da.shape[:-1] + (2 * k - 1,), dtype=np.int64)
        for i in range(k):
            conv[..., i : i + k] += da[..., i, None] * db
        conv %= self.p
        return self.vec_encode(conv[..., :k] + conv[..., k:] @ self._red_matrix)

    def vec_pow(self, a: np.ndarray, n: int) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if n == 0:
            return np.ones_like(a)
        if n > 0 and self.k > 1:
            logs = self._log_tables(a.size)
            if logs is not None:
                exp, log, _ = logs
                la = log[a]
                vanish = la < 0
                idx = (np.where(vanish, 0, la) * n) % (self.q - 1)
                return np.where(vanish, 0, exp[idx])
        # n != 0 here, so binary_power never returns its `one`; for n == 1
        # it returns `a` itself, and no caller writes into a vec_pow result
        return binary_power(self.vec_mul, None, a, n)

    def square_counts(self) -> np.ndarray:
        """counts[d] = number of field elements y with y*y == d."""
        if self.p == 2:
            return np.ones(self.q, dtype=np.int64)  # squaring is bijective
        logs = self._log_tables(self.q)
        if logs is not None:
            # the nonzero squares are the even powers of the generator
            counts = np.zeros(self.q, dtype=np.int64)
            counts[0] = 1
            counts[logs[0][0 : self.q - 1 : 2]] = 2
            return counts
        grid = np.arange(self.q, dtype=np.int64)
        squares = self.vec_mul(grid, grid)
        return np.bincount(squares, minlength=self.q)


def check_field_params(p: int, k: int) -> None:
    """Refuse a non-prime p or a degree k below 1, as `make_field` does."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise DegreeZero(f"extension degree must be positive, got {k}")


@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> GF:
    """Field with p**k elements; deterministic first-irreducible modulus."""
    check_field_params(p, k)
    for m in range(p**k):
        digits = []
        rest = m
        for _ in range(k):
            rest, r = divmod(rest, p)
            digits.append(r)
        f = tuple(digits) + (1,)
        if _is_irreducible(f, p):
            return GF(p, k, f)
    raise AssertionError("no irreducible polynomial found, impossible")
