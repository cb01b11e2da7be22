"""Finite fields with a deterministic choice of modulus.

``make_field(p, k)`` returns the field with ``p**k`` elements.  The modulus
is the first monic irreducible polynomial ``x^k + c_{k-1} x^{k-1} + ... + c_0``
found by counting ``m = 0, 1, 2, ...`` and reading the ``c_i`` off as the
base-p digits of ``m``, least significant digit giving ``c_0``.  Two calls
with the same arguments therefore agree on every bit of the representation.

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
from .rings import Ring

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


# polynomial helpers on coefficient tuples over F_p, constant term first


def _trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _polymod(a: tuple[int, ...], f: tuple[int, ...], p: int) -> tuple[int, ...]:
    # f is monic
    a = list(a)
    df = len(f) - 1
    while len(a) > df:
        lead = a[-1] % p
        if lead:
            shift = len(a) - 1 - df
            for i in range(df):
                a[shift + i] = (a[shift + i] - lead * f[i]) % p
        a.pop()
    return _trim(tuple(x % p for x in a))

def _polymulmod(a, b, f, p):
    if not a or not b:
        return ()
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                conv[i + j] += x * y
    return _polymod(tuple(c % p for c in conv), f, p)


def _polypowmod(a, n: int, f, p):
    result = (1,)
    base = _polymod(a, f, p)
    while n:
        if n & 1:
            result = _polymulmod(result, base, f, p)
        base = _polymulmod(base, base, f, p)
        n >>= 1
    return result


def _poly_remainder(a, b, p):
    """Remainder of a modulo b over F_p; b need not be monic."""
    a = list(_trim(a))
    b = _trim(b)
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    while len(a) - 1 >= db and a:
        lead = (a[-1] * inv) % p
        shift = len(a) - 1 - db
        for i in range(db + 1):
            a[shift + i] = (a[shift + i] - lead * b[i]) % p
        while a and a[-1] == 0:
            a.pop()
    return _trim(tuple(a))


def gcd_fp(a, b, p):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _poly_remainder(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple((c * inv) % p for c in a)
    return a


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Rabin's test for a monic polynomial f over F_p (constant term first)."""
    k = len(f) - 1
    if k < 1:
        return False
    x = (0, 1)
    # x^(p^k) == x (mod f)
    xq = x
    for _ in range(k):
        xq = _polypowmod(xq, p, f, p)
    if _trim(xq) != _polymod(x, f, p):
        return False
    for d in _prime_divisors(k):
        e = k // d
        xe = x
        for _ in range(e):
            xe = _polypowmod(xe, p, f, p)
        # gcd(f, x^(p^e) - x) must be trivial
        xs = list(xe) + [0] * (max(len(xe), 2) - len(xe))
        xs[1] = (xs[1] - 1) % p
        diff = _trim(tuple(c % p for c in xs))
        if not diff:
            return False
        if len(gcd_fp(f, diff, p)) > 1:
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
        # reduction rows: x^(k+i) as a length-k digit vector, i = 0..k-2
        rows = []
        cur = tuple((-c) % p for c in modulus[:k])  # x^k
        for _ in range(max(0, k - 1)):
            rows.append(cur)
            shifted = (0,) + cur
            over = shifted[k] if len(shifted) > k else 0
            base = list(shifted[:k]) + [0] * (k - len(shifted[:k]))
            if over:
                xr = tuple((-c) % p for c in modulus[:k])
                base = [(b + over * r) % p for b, r in zip(base, xr)]
            cur = tuple(b % p for b in base)
        self._red_rows = tuple(rows)
        self._red_matrix = (
            np.array(rows, dtype=np.int64).reshape(max(0, k - 1), k)
            if k > 1
            else np.zeros((0, 1), dtype=np.int64)
        )
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

    def modulus_text(self) -> str:
        parts = []
        for i in range(self.k, -1, -1):
            c = 1 if i == self.k else self.modulus[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                v = "x" if i == 1 else f"x^{i}"
                parts.append(v if c == 1 else f"{c}*{v}")
        return " + ".join(parts) if parts else "0"

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
        if self.k > 1:
            logs = self._log_tables(a.size)
            if logs is not None:
                exp, log, _ = logs
                la = log[a]
                vanish = la < 0
                idx = (np.where(vanish, 0, la) * n) % (self.q - 1)
                return np.where(vanish, 0, exp[idx])
        result = np.ones_like(a)
        base = a
        while n:
            if n & 1:
                result = self.vec_mul(result, base)
            base = self.vec_mul(base, base)
            n >>= 1
        return result

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


@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> GF:
    """Field with p**k elements; deterministic first-irreducible modulus."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise DegreeZero(f"extension degree must be positive, got {k}")
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
