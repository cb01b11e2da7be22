"""Finite fields with a deterministic choice of modulus.

``make_field(p, k)`` returns the field with ``p**k`` elements.  The modulus
is the first monic irreducible polynomial ``x^k + c_{k-1} x^{k-1} + ... + c_0``
found by counting ``m = 0, 1, 2, ...`` and reading the ``c_i`` off as the
base-p digits of ``m``, least significant digit giving ``c_0``.  Two calls
with the same arguments therefore agree on every bit of the representation.
Each candidate is tested by Ben-Or's irreducibility test in F_p[x], which is
`Poly1Ring` over the prime field.  The test reads `frobenius_gcds`, the
one Frobenius step of the package, which the point counter's root count
of a one-variable chart reads too.

Elements are encoded as plain integers in ``[0, p**k)``: the base-p digits of
the code are the coefficients of the residue polynomial, constant digit
least significant.  This keeps single elements hashable and lets large
batches live in numpy integer arrays, which the ``vec_*`` methods act on
directly.

Over a prime field (k = 1) all arithmetic is integer arithmetic mod p.  An
extension field has one scalar path and one vector path.  Scalar `GF.add`
and `GF.mul` work on digit tuples in the same F_p[x], reducing products by
``divmod`` modulo the field's modulus; `GF.neg` multiplies by -1 and
`GF.try_inverse` raises to the power q - 2.  The ``vec_*`` methods run on
discrete logarithms: the first one builds exp/log tables for the least
generator g and a Zech table ``zech[e] = log(1 + g^e)``, held by the field's
`LogDomain`, and every op then gathers the logs of its operands, runs the
`LogDomain` kernel and gathers the result back through exp.  Tables are
built only for q <= ``BUDGET``, which is also the enumeration budget of
`counting`; past it a vector op raises `BudgetExceeded` and builds
nothing.  The build is linear algebra over F_p: multiplication by a fixed
h is a k x k matrix on digit rows, so ``exp`` is filled in blocks of
B >= sqrt(q - 1) entries, the digit rows of each block being those of the
previous one times the matrix of g^B.

`GF.grid_domain` tells the point counter which arithmetic a grid is
evaluated in: the field itself, on codes, when k = 1, and its `LogDomain`
otherwise, where every value is a discrete log (0 being -1).  The two
differ in the order in which a grid axis enumerates F_q (`axis_values`):
code order, or 0, g^0, g^1, ..., g^(q-2) on logs.  Both answer the same
six operations, `from_int`, `axis_values`, `vec_add`, `vec_mul`, `vec_pow`
and `sqrt`, and a quotient is a power: b^(2q-3) is 1/b for b != 0 and 0
at 0.  `sqrt` reads squares off a q-sized table on codes, and off parity
on logs, a nonzero value being a square exactly when its log is even (odd
p).
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded, DegreeZero, NotPrime
from .polynomials import Poly1Ring
from .rings import Ring, binary_power

# tuples one counting call may enumerate, and the largest q for which
# discrete-log tables are built, so every field a budgeted grid can
# enumerate gets them
BUDGET = 10**7
# psi_13, the least strong pseudoprime to the first 13 prime bases: below
# it, is_prime decides primality exactly
PRIME_TEST_BOUND = 3317044064679887385961981


def factorize(n: int) -> dict[int, int]:
    """{prime: exponent} of n by trial division; empty for n below 2.

    For the small n it is asked about: the degrees of `moebius` and the
    order q - 1 <= BUDGET of a field's multiplicative group.
    """
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
    """Deterministic Miller-Rabin test with the first 13 primes as bases.

    It is exact below ``PRIME_TEST_BOUND`` (Sorenson and Webster, Math.
    Comp. 86, 2017).  An n at or past it is composite when a base divides
    it, and raises BudgetExceeded otherwise.
    """
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or n in bases or any(n % b == 0 for b in bases):
        return n in bases
    if n >= PRIME_TEST_BOUND:
        raise BudgetExceeded(
            f"{n} is not below {PRIME_TEST_BOUND}, the bound of the exact"
            " primality test"
        )
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # b witnesses that n is composite
    return True


def prime_polys(p: int) -> Poly1Ring:
    """F_p[x], where moduli are tested and extension fields multiply."""
    return Poly1Ring(GF(p, 1, (0, 1)), "x")


def power_mod(h, n: int, f, ring: Poly1Ring):
    """h^n mod f in `ring`, by binary powering: about 2 log2(n) products
    of polynomials of degree below deg f, each reduced at once."""
    def mul(a, b):
        return ring.divmod(ring.mul(a, b), f)[1]

    return ring.divmod(binary_power(mul, ring.one, h, n), f)[1]


def frobenius_gcds(f: tuple[int, ...], p: int):
    """gcd(f, x^(p^j) - x) in F_p[x] for j = 1, 2, ..., monic; f is monic,
    constant term first.

    x^(p^j) - x is the product of the monic irreducibles whose degree
    divides j, each once, so the j-th gcd is the product of the distinct
    irreducible factors of f whose degree divides j (Lidl and
    Niederreiter, Finite Fields, Thm 3.20).  x^(p^j) mod f is the p-th
    power of x^(p^(j-1)) mod f by `power_mod`, so a step costs about
    2 bits(p) products of degree below deg f, never p coefficients.
    """
    ring = prime_polys(p)
    x = ring.monomial(1)
    h = x
    while True:
        h = power_mod(h, p, f, ring)
        yield ring.gcd(f, ring.sub(h, x))


def _digits(a: int, p: int) -> tuple[int, ...]:
    """The base-p digits of a, least significant first, without trailing
    zeros: the residue polynomial of a code as an element of F_p[x]."""
    out = []
    while a:
        a, r = divmod(a, p)
        out.append(r)
    return tuple(out)


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Ben-Or's test for a monic f over F_p (constant term first).

    f of degree k is irreducible exactly when gcd(f, x^(p^i) - x) = 1 for
    i = 1 .. k // 2, i.e. when f has no irreducible factor of degree <= k/2.
    """
    gcds = frobenius_gcds(f, p)
    return all(len(next(gcds)) == 1 for _ in range((len(f) - 1) // 2))


class GF(Ring):
    """The finite field with p**k elements, encoded-integer representation."""

    torsion_free = False

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus  # length k+1, monic, constant term first
        self._polys = prime_polys(p) if k > 1 else None  # scalar arithmetic
        # the name, and so the ring's identity, includes the modulus when it
        # shapes the arithmetic
        self.name = f"GF({self.q})"
        if k > 1:
            self.name = f"GF({self.q}, {self._polys.render(modulus)})"
        self._logs = None  # the LogDomain once its tables are built
        self._build_lock = threading.Lock()  # census threads share a field

    # ring interface

    zero = 0
    one = 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def _code(self, digits) -> int:
        return sum(c * self.p**i for i, c in enumerate(digits))

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        p = self.p
        return self._code(self._polys.add(_digits(a, p), _digits(b, p)))

    def neg(self, a: int) -> int:
        return self.mul(a, self.p - 1)

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        ring, p = self._polys, self.p
        product = ring.mul(_digits(a, p), _digits(b, p))
        return self._code(ring.divmod(product, self.modulus)[1])

    def try_inverse(self, a: int):
        if a == 0:
            return None
        return self.power(a, self.q - 2)

    # discrete-log tables, built once per field and held by its LogDomain

    def _find_generator(self) -> int:
        """The least element of multiplicative order q - 1."""
        n = self.q - 1
        primes = list(factorize(n))
        return next(
            c
            for c in range(1, self.q)
            if all(self.power(c, n // r) != 1 for r in primes)
        )

    def _mul_matrix(self, h: int) -> np.ndarray:
        """The k x k matrix M over F_p with digits(a) @ M = digits(a * h)
        mod p: row i holds the digits of h * x^i."""
        p, k = self.p, self.k
        rows = np.array([self.mul(h, p**i) for i in range(k)], dtype=np.int64)
        return rows[:, None] // p ** np.arange(k, dtype=np.int64) % p

    def _build_log_tables(self):
        p, k, n = self.p, self.k, self.q - 1
        g = self._find_generator()
        # digit rows of g^0 .. g^(block-1), doubled until block^2 >= n: the
        # rows times the matrix of g^block are the next block's
        rows = np.eye(1, k, dtype=np.int64)  # the digits of g^0 = 1
        while len(rows) ** 2 < n:
            double = self._mul_matrix(self.power(g, len(rows)))
            rows = np.concatenate([rows, rows @ double % p])
        block = len(rows)
        # exp[e] = g^e for e < n, and exp[n] = exp[-1] = 0, the log of 0.
        # Every entry of a product is below k p^2 <= 2 * 10^7, far inside int64
        jump = self._mul_matrix(self.power(g, block))
        weights = p ** np.arange(k, dtype=np.int64)
        exp = np.zeros(n + 1, dtype=np.int64)
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            exp[lo:hi] = rows[: hi - lo] @ weights
            rows = rows @ jump % p
        log = np.full(self.q, -1, dtype=np.int64)
        log[exp[:n]] = np.arange(n)
        # adding 1 changes only the constant digit of an encoded element:
        # where it wraps from p - 1 to 0, take the carry back.  One block at
        # a time, so that no temporary is q-sized
        zech = np.empty(n, dtype=np.int64)
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            c = exp[lo:hi] + 1
            c[c % p == 0] -= p
            zech[lo:hi] = log[c]
        self._logs = LogDomain(self, exp, log, zech)

    @property
    def _log_built(self) -> bool:
        return self._logs is not None

    def grid_domain(self):
        """The arithmetic grids over this field are evaluated in: the field
        itself, on codes, when k = 1, and its `LogDomain` otherwise."""
        return self if self.k == 1 else self._log_tables()

    def axis_values(self, start: int, stop: int) -> np.ndarray:
        """The elements at positions start..stop-1 of a grid axis: on codes,
        an axis enumerates F_q in code order."""
        return np.arange(start, stop, dtype=np.int64)

    def _log_tables(self) -> LogDomain:
        """This extension field's `LogDomain`, built on first use; a field
        past ``BUDGET`` raises `BudgetExceeded` instead."""
        if self._logs is None:
            if self.q > BUDGET:
                raise BudgetExceeded(
                    f"GF({self.q}) has more than {BUDGET} elements, the"
                    " limit for its discrete-log tables"
                )
            with self._build_lock:
                if self._logs is None:
                    self._build_log_tables()
        return self._logs

    # vectorized arithmetic on numpy arrays of encoded elements

    def vec_add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.k == 1:
            out = a + b
            out %= self.p  # in place: one full-size temporary fewer
            return out
        logs = self._log_tables()
        return logs.exp[logs.vec_add(logs.log[a], logs.log[b])]

    def vec_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.k == 1:
            out = a * b
            out %= self.p  # in place: one full-size temporary fewer
            return out
        logs = self._log_tables()
        return logs.exp[logs.vec_mul(logs.log[a], logs.log[b])]

    def vec_pow(self, a: np.ndarray, n: int) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if n == 0:
            return np.ones_like(a)
        if self.k > 1 and n > 0:
            logs = self._log_tables()
            return logs.exp[logs.vec_pow(logs.log[a], n)]
        if a.size > self.q:
            # past q values, a q-sized table of powers costs less than
            # powering `a` itself
            return self.vec_pow(np.arange(self.q, dtype=np.int64), n)[a]
        # binary_power raises for n < 0; for n == 1 it returns `a` itself,
        # and no caller writes into a vec_pow result
        return binary_power(self.vec_mul, None, a, n)

    def _squares(self) -> np.ndarray:
        """squares[y] = y*y for every code y."""
        grid = np.arange(self.q, dtype=np.int64)
        return self.vec_mul(grid, grid)

    def square_counts(self) -> np.ndarray:
        """counts[d] = number of field elements y with y*y == d."""
        return np.bincount(self._squares(), minlength=self.q)

    def sqrt(self, values):
        """(roots, squares): for each of the codes `values`, a y with y^2
        equal to it, read off a q-sized table of the squares; `squares`
        marks the nonzero squares, and the root of 0 is 0."""
        table = np.full(self.q, -1, dtype=np.int64)
        table[self._squares()] = np.arange(self.q, dtype=np.int64)
        roots = table[values]
        return roots, roots > 0


class LogDomain:
    """One extension field's arithmetic on discrete logarithms.

    A nonzero element g^e, for the field's generator g, is held as e in
    [0, q - 1), and 0 as ``zero`` = -1, so a value is 0 exactly when it is
    negative.  Codes enter through ``log`` and leave through ``exp``, whose
    last entry, exp[-1], is 0.  The ``vec_*`` kernels keep every result in
    that range: a product adds logs mod q - 1, a power multiplies the log,
    and a sum is one gather from the Zech table,
    g^a + g^b = g^(a + zech[b - a]) with zech[e] = log(1 + g^e).
    """

    zero = -1

    def __init__(self, field: GF, exp, log, zech):
        self.p = field.p
        self.q = field.q
        self.exp = exp
        self.log = log
        self.zech = zech

    def from_int(self, n: int) -> int:
        return int(self.log[n % self.p])

    def axis_values(self, start: int, stop: int) -> np.ndarray:
        """The logs at positions start..stop-1 of a grid axis: an axis
        enumerates F_q as 0, g^0, g^1, ..., g^(q-2), so position r holds
        log r - 1."""
        return np.arange(start - 1, stop - 1, dtype=np.int64)

    def vec_add(self, la, lb):
        n = self.q - 1
        # b - a lies in [-n, n], so the index lies in [0, n]; it is n only
        # where a == 0, whose result is overwritten below
        z = np.take(self.zech, _reduce_once(lb - la + n, n), mode="clip")
        out = _reduce_once(la + z, n)
        out = np.where(z < 0, -1, out)  # a == -b
        out = np.where(la < 0, lb, out)
        return np.where(lb < 0, la, out)

    def vec_mul(self, la, lb):
        out = _reduce_once(la + lb, self.q - 1)
        return np.where((la | lb) < 0, -1, out)

    def vec_pow(self, la, d: int):
        """Logs of the d-th powers, for d >= 1."""
        n = self.q - 1
        if d % n == 1:
            return la
        out = la * (d % n)
        out -= out // n * n  # floor division by a scalar is the fast one
        return np.where(la < 0, -1, out)

    def sqrt(self, la):
        """(roots, squares): for each value, the log of a y with y^2 equal
        to it; `squares` marks the nonzero squares, and the root of 0 is 0.
        For odd p the nonzero squares are the even logs e, with the roots
        g^(e/2) and g^(e/2 + (q-1)/2).  In characteristic 2, q - 1 is odd,
        so every g^e is the square of g^(e/2) or, for odd e, of
        g^((e + q - 1)/2)."""
        if self.p == 2:
            roots = (la + (la & 1) * (self.q - 1)) >> 1
            return np.where(la < 0, -1, roots), la >= 0
        return la >> 1, (la & 1) == 0  # -1 is odd, and -1 >> 1 is -1


def _reduce_once(r, n: int):
    """r mod n for r in [0, 2n), as the unsigned minimum of r and r - n,
    which takes no branch; a negative r comes out negative."""
    r = np.asarray(r)
    low = np.asarray(r - n)
    return np.minimum(r.view(np.uint64), low.view(np.uint64)).view(np.int64)


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
        f = _digits(p**k + m, p)  # the k digits of m, then the leading 1
        if _is_irreducible(f, p):
            return GF(p, k, f)
    raise AssertionError("no irreducible polynomial found, impossible")
