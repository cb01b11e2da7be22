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

Over a prime field (k = 1) the vector ops are integer arithmetic mod p.
Over an extension field with q <= ``_LOG_LIMIT``, the first vector op on at
least ``_LOG_TRIGGER`` elements builds exp/log tables for a generator g and
a Zech table ``zech[e] = log(1 + g^e)``; from then on `GF.vec_mul`,
`GF.vec_pow`, `GF.vec_add`, `GF.vec_neg` and `GF.square_counts` are table
gathers on discrete logarithms.  Without the tables (larger fields, or
before the first large vector) they decode to base-p digit matrices, add or
convolve, and fold the overflow digits back with precomputed reduction
rows.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DegreeZero, NonIntegral, NotPrime
from .polynomials import Poly1Ring
from .rings import Ring, binary_power

_TABLE_LIMIT = 256  # largest q for which full add/mul tables are built
_LOG_LIMIT = 1 << 22  # largest q for which discrete-log tables are built
_LOG_TRIGGER = 4096  # vector size that makes building the tables worthwhile


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


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
        self._red_rows = tuple(rows)
        self._red_matrix = np.array(rows, dtype=np.int64).reshape(k - 1, k)
        self._powers = tuple(p**i for i in range(k))
        self._add_table = None
        self._mul_table = None
        self._inv_table = None
        self._logs = None  # (exp, log, zech) once built
        self._log_built = False

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

    # encoding

    def decode(self, a: int) -> tuple[int, ...]:
        digits = []
        for _ in range(self.k):
            a, r = divmod(a, self.p)
            digits.append(r)
        return tuple(digits)

    def encode(self, digits) -> int:
        total = 0
        for c, w in zip(digits, self._powers):
            total += (c % self.p) * w
        return total

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
        table = self._tables()[0]
        if table is not None:
            return int(table[a, b])
        return self.encode(
            (x + y) % self.p for x, y in zip(self.decode(a), self.decode(b))
        )

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return self.encode((-x) % self.p for x in self.decode(a))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        table = self._tables()[1]
        if table is not None:
            return int(table[a, b])
        return self._mul_raw(a, b)

    def _mul_raw(self, a: int, b: int) -> int:
        da, db = self.decode(a), self.decode(b)
        k, p = self.k, self.p
        conv = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] += x * y
        out = [c % p for c in conv[:k]]
        for i in range(k - 1):
            over = conv[k + i] % p
            if over:
                row = self._red_rows[i]
                for j in range(k):
                    out[j] = (out[j] + over * row[j]) % p
        return self.encode(out)

    def try_inverse(self, a: int):
        if a == 0:
            return None
        if self._inv_table is not None:
            return int(self._inv_table[a])
        return self.power(a, self.q - 2)

    def exact_div(self, a: int, b: int) -> int:
        inv = self.try_inverse(b)
        if inv is None:
            raise NonIntegral("division by zero in a finite field")
        return self.mul(a, inv)

    def render(self, a) -> str:
        return str(a)

    # dense tables for small fields

    def _tables(self):
        if self.q <= _TABLE_LIMIT and self._add_table is None:
            grid = np.arange(self.q, dtype=np.int64)
            left = np.repeat(grid, self.q)
            right = np.tile(grid, self.q)
            self._add_table = self.vec_add(left, right).reshape(self.q, self.q)
            self._mul_table = self.vec_mul(left, right).reshape(self.q, self.q)
            inv = np.zeros(self.q, dtype=np.int64)
            for a in range(1, self.q):
                inv[a] = self.power(a, self.q - 2)
            self._inv_table = inv
        return self._add_table, self._mul_table

    # discrete-log tables, turning extension-field arithmetic on large
    # arrays into a few gathers: multiplication adds logarithms, and
    # addition uses Zech logarithms, g^i + g^j = g^(i + zech[j - i])

    def _find_generator(self) -> int:
        n = self.q - 1
        primes = _prime_divisors(n)
        for g in range(1, self.q):
            if all(self.power(g, n // r) != 1 for r in primes):
                return g
        raise AssertionError("no multiplicative generator found, impossible")

    def _build_log_tables(self):
        # vec_mul below runs on the digit path: _log_built is already set
        # while the tables are still missing
        self._log_built = True
        n = self.q - 1
        g = self._find_generator()
        exp = np.zeros(2 * n, dtype=np.int64)
        exp[0] = 1
        # exp[filled : filled + shift] = exp[filled - shift : filled] * g^shift,
        # with shift doubling up to a block of 4096 elements
        filled, shift, step = 1, 1, g  # step = g^shift
        while filled < n:
            take = min(shift, n - filled)
            exp[filled : filled + take] = self.vec_mul(
                exp[filled - shift : filled - shift + take], np.int64(step)
            )
            filled += take
            if shift < 4096:
                shift, step = 2 * shift, self._mul_raw(step, step)
        exp[n:] = exp[:n]
        log = np.full(self.q, -1, dtype=np.int64)
        log[exp[:n]] = np.arange(n)
        # adding 1 changes only the constant digit of an encoded element
        c, p = exp[:n], self.p
        zech = log[np.where(c % p == p - 1, c - (p - 1), c + 1)]
        self._logs = (exp, log, zech)

    def _log_tables(self, size: int):
        """(exp, log, zech) for this field, or None on the digit path."""
        if (
            not self._log_built
            and self.k > 1
            and self.q <= _LOG_LIMIT
            and size >= _LOG_TRIGGER
        ):
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
        if self.k == 1:
            return (np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) % self.p
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        logs = self._log_tables(max(a.size, b.size))
        if logs is not None:
            exp, log, zech = logs
            la, lb = log[a], log[b]
            z = np.take(zech, lb - la, mode="wrap")  # index mod q-1
            out = np.where(z < 0, 0, exp[la + z])  # z < 0: a == -b
            out = np.where(la < 0, b, out)
            return np.where(lb < 0, a, out)
        da, db = self.vec_decode(a), self.vec_decode(b)
        return self.vec_encode((da + db) % self.p)

    def vec_neg(self, a: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return np.array(a, dtype=np.int64)
        a = np.asarray(a, dtype=np.int64)
        if self.k == 1:
            return (-a) % self.p
        logs = self._log_tables(a.size)
        if logs is not None:
            exp, log, _ = logs
            la = log[a]
            # -1 is g^((q-1)/2), so -x is x * g^((q-1)/2)
            return np.where(la < 0, 0, exp[la + (self.q - 1) // 2])
        return self.vec_encode((-self.vec_decode(a)) % self.p)

    def vec_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.k == 1:
            return (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % self.p
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        logs = self._log_tables(max(a.size, b.size))
        if logs is not None:
            exp, log, _ = logs
            la, lb = log[a], log[b]
            vanish = (la < 0) | (lb < 0)
            out = exp[np.where(vanish, 0, la + lb)]
            return np.where(vanish, 0, out)
        da, db = np.broadcast_arrays(self.vec_decode(a), self.vec_decode(b))
        k = self.k
        shape = da.shape[:-1]
        conv = np.zeros(shape + (2 * k - 1,), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                conv[..., i + j] += da[..., i] * db[..., j]
        conv %= self.p
        out = conv[..., :k]
        if k > 1:
            out = out + conv[..., k:] @ self._red_matrix
        return self.vec_encode(out % self.p)

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
