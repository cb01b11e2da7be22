"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports wittzeta: every expected value is computed from the
generated inputs with plain integers, fractions and numpy, so a defect in
the package cannot hide by agreeing with itself.  Polynomials and series
are coefficient lists, constant term first.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


# ------------------------------------------------------------ series


def series_mul(a: list, b: list, n: int) -> list:
    """Product of two series truncated after t^n."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                out[i + j] += x * y
    return out


def series_div(num: list, den: list, n: int) -> list:
    """num/den truncated after t^n; den[0] must be 1."""
    if den[0] != 1:
        raise ValueError("denominator needs constant term 1")
    out = []
    for k in range(n + 1):
        acc = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc)
    return out


def teichmuller_product(values, n: int) -> list:
    """prod_c 1/(1 - c t) truncated after t^n, one geometric factor at a time."""
    out = [1] + [0] * n
    for c in values:
        for k in range(1, n + 1):
            out[k] += c * out[k - 1]
    return out


def witt_product(g: list, h: list, n: int) -> list:
    """Big Witt product of two series with constant term 1, after t^n.

    Ghost coordinates are the power sums p_m with
    t g'/g = sum p_m t^m; the product multiplies them pointwise and the
    inverse recurrence divides by m, which must be exact.
    """

    def ghosts(s):
        ps = []
        for m in range(1, n + 1):
            acc = m * s[m]
            for i in range(1, m):
                acc -= s[m - i] * ps[i - 1]
            ps.append(acc)
        return ps

    prod = [x * y for x, y in zip(ghosts(g), ghosts(h))]
    out = [1]
    for m in range(1, n + 1):
        acc = prod[m - 1]
        for i in range(1, m):
            acc += out[m - i] * prod[i - 1]
        q, r = divmod(acc, m)
        if r:
            raise ArithmeticError(f"ghost division by {m} is not exact")
        out.append(q)
    return out


def poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def trim(a: list) -> list:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def rational_equal(num1, den1, num2, den2) -> bool:
    """num1/den1 == num2/den2 as rational functions."""
    return poly_mul(num1, den2) == poly_mul(num2, den1)


def parse_number(text: str):
    """Decimal integer or fraction as printed by the CLI's JSON output."""
    value = Fraction(text)
    return int(value) if value.denominator == 1 else value


# ------------------------------------------------------- elliptic curves


def weierstrass_n1(p: int, a: int, b: int) -> int:
    """Projective points of y^2 z = x^3 + a x z^2 + b z^3 over F_p.

    Affine points by a scalar scan of all (x, y) mod p, plus the single
    point (0 : 1 : 0) at infinity.
    """
    count = 1
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        for y in range(p):
            if (y * y - rhs) % p == 0:
                count += 1
    return count


def elliptic_zeta(p: int, n1: int, n: int) -> list:
    """(1 - a t + p t^2) / ((1 - t)(1 - p t)) after t^n, a = p + 1 - N_1."""
    trace = p + 1 - n1
    numerator = series_mul([1, -trace, p], [1] * (n + 1), n)
    return series_mul(numerator, [p**k for k in range(n + 1)], n)


# ------------------------------------------------ prime-field point counts


def _vanish(equations, p: int, point) -> np.ndarray:
    """Mask of grid points where every equation vanishes mod p.

    `point` holds one entry per variable: a Python int or an int64 array,
    all broadcastable together.  Each term multiplies at most
    len(point) + 1 residues below p, and a sum of such products must fit
    in an int64, which the check below guarantees.
    """
    width = max((len(terms) for terms in equations), default=0)
    if width * p ** (len(point) + 1) >= 2**63:
        raise ValueError(f"F_{p} sums would overflow int64")
    mask = None
    for terms in equations:
        acc = 0
        for exps, coeff in terms:
            term = coeff % p
            for value, e in zip(point, exps):
                if e:
                    term = term * (value**e % p)
            acc = acc + term
        hit = np.asarray(acc % p) == 0
        mask = hit if mask is None else (mask & hit)
    return mask


def affine_count(equations, nvars: int, p: int) -> int:
    """Common zeros in F_p^nvars, in slabs of the first variable."""
    if nvars == 0:
        return int(np.all(_vanish(equations, p, ())))
    slab = max(1, (1 << 20) // p ** (nvars - 1))  # about 2^20 points a slab
    total = 0
    for lo in range(0, p, slab):
        first = np.arange(lo, min(p, lo + slab), dtype=np.int64)
        axes = [first] + [np.arange(p, dtype=np.int64)] * (nvars - 1)
        grid = np.meshgrid(*axes, indexing="ij", sparse=True)
        mask = _vanish(equations, p, grid)
        shape = tuple(len(axis) for axis in axes)
        total += int(np.count_nonzero(np.broadcast_to(mask, shape)))
    return total


def projective_count(equations, nvars: int, p: int) -> int:
    """Points of P^(nvars-1)(F_p), split by the first nonzero coordinate."""
    total = 0
    for lead in range(nvars):
        # coordinates before `lead` are 0, so terms using them vanish;
        # coordinate `lead` is 1, so its exponent drops out
        chart = [
            [(exps[lead + 1 :], c) for exps, c in terms if not any(exps[:lead])]
            for terms in equations
        ]
        total += affine_count(chart, nvars - lead - 1, p)
    return total
