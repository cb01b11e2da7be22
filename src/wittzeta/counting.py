"""Exact point counting over finite fields, and the derived censuses.

Counts are taken blockwise (blocks of a product are independent, so their
counts multiply).  Each block is cut into charts: an affine block is one
chart with no fixed coordinates, a projective block one chart per first
nonzero coordinate, normalized to 1.  Every chart goes through one
pipeline: `_specialize` plugs in the fixed coordinates and reduces the
coefficients mod p, and `_plan_chart` counts q^n for a chart with no
equations left (so A^n and P^n are closed forms and build no field), or
picks one of two strategies and checks the budget against what that
strategy enumerates:

* one equation with some variable of degree at most 2: enumerate the other
  variables and add up root counts of the resulting quadratic or linear
  polynomial, square roots counted by the grid domain's `square_roots`;
* otherwise: enumerate the full grid and test every equation.

A chart whose one variable is the solved one enumerates nothing: its
coefficients lie in F_p, so its root count is a closed form (Euler's
criterion on the discriminant in F_p) and it builds no field at any q.
The budget is a hard 10^7 tuples per chart.  Every chart of every block of
a call is planned from p and q alone, and its budget checked, before any
field is built or anything enumerated.  Every chart that enumerates has at
least q tuples, so the budget also bounds the field-sized tables: the log
tables of an extension field and the square-root table of a prime field.

Both strategies evaluate polynomials on the grid by `_grid_values`, which
never materialises the coordinates of the grid.  It groups the terms by
the exponent of the leading variable, evaluates each group's cofactor once
on the grid of the remaining variables, and combines the groups by numpy
broadcasting, x^e laid along the leading axis times the cofactor along the
others: a Horner scheme over the variables, in which full-size arrays are
touched about twice per distinct leading exponent rather than several
times per monomial.  The field picks the arithmetic (`GF.grid_domain`).
Over an extension field every grid value is a discrete log to the field's
generator g, with -1 for 0: each axis enumerates F_q as 0, g^0, g^1, ...,
g^(q-2), so x^e along an axis is the log times e mod q - 1, a product adds
logs, a sum is one Zech gather, and the quadratic-solve strategy reads
squareness off the parity of the discriminant's log.  Prime fields keep
codes, each axis in code order.  Either order is a bijection of the
positions onto F_q, so a count, a sum over the grid, does not depend on it.  An
optional thread count, capped at the CPU count, splits the grid into
contiguous ranges of whole slabs of the leading variable, so every chunk
is a grid of its own; partial sums are added in order, so the result is
identical for every thread count.

Degree-m counts use the extension field F_(p^(k*m)) built with the same
deterministic modulus scan as the base field; only a chart that enumerates
builds it, a closed form needs nothing but p and q^m.  A census counts its
largest degree first, so the budget of its largest field is checked before
anything is enumerated.  The zeta series exp(sum_m N_m t^m / m) is the Witt
vector whose ghost coordinates are the counts N_m, so the symmetric-product
counts are `from_ghost` of N_1..N_D over the integers.  Closed-point counts
follow by Moebius inversion of N_m = sum_(d|m) d*B_d; they also validate
the counts, since no variety has counts whose B_d are fractional or
negative.
"""

from __future__ import annotations

import itertools
import os
from functools import partial

import numpy as np

from .errors import BudgetExceeded, CensusInconsistent, NotPrime
from .finitefield import (
    BUDGET,
    GF,
    check_field_params,
    factorize,
    is_prime,
    make_field,
)
from .rings import ZZ
from .varieties import Block, VarietyDesc
from .witt import from_ghost

_CHUNK_MIN = 1 << 15  # grids below this size are never split across threads

_count_cache: dict = {}


def _integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method on integers."""
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n^(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def field_params_from_q(q: int) -> tuple[int, int]:
    """Split a prime power into (p, k); rejects everything else.

    While p is a perfect j-th power for a prime j it is replaced by its
    root, so p ends as no perfect power and q = p^k; q is a prime power
    exactly when that p is prime.  A composite j needs no try: a j-th
    power is a power of each prime factor of j.  Before a root is taken,
    p must be a j-th power residue modulo the least prime l = 1 (mod j),
    which only one p in j passes by chance.
    """
    p, k, j = q, 1, 2
    while p >> j > 0:  # a j-th root of p would be at least 2
        ell = next(m for m in itertools.count(2 * j + 1, 2 * j) if is_prime(m))
        if pow(p, (ell - 1) // j, ell) < 2:
            r = _integer_root(p, j)
            if r**j == p:
                p, k = r, k * j
                continue
        j += 1
        while not is_prime(j):
            j += 1
    if p < 2 or not is_prime(p):
        raise NotPrime(f"{q} is not a prime power")
    return p, k


def resolve_field(v: VarietyDesc, p: int = 0, k: int = 0) -> tuple[int, int]:
    """Explicit field parameters win over the variety's own."""
    if p:
        return p, k or 1
    if v.p:
        return v.p, v.k or 1
    raise ValueError(
        "no finite field given; pass --q or a variety that declares p, k"
    )


def moebius(n: int) -> int:
    exponents = factorize(n).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


def count_points(
    v: VarietyDesc, m: int = 1, p: int = 0, k: int = 0, threads: int = 1
) -> int:
    """Number of F_(q^m)-points, q = p^k.

    Every chart of every block is planned, and its budget checked, before
    any field is built or any grid enumerated.
    """
    p, k = resolve_field(v, p, k)
    check_field_params(p, k * m)
    key = (v.blocks, p, k, m)
    cached = _count_cache.get(key)
    if cached is not None:
        return cached
    plans = [_plan_block(block, p, k * m) for block in v.blocks]
    total = 1
    for plan in plans:
        total *= _count_block(plan, p, k * m, threads)
        if total == 0:
            break
    _count_cache[key] = total
    return total


def point_counts(
    v: VarietyDesc, degree: int, p: int = 0, k: int = 0, threads: int = 1
) -> tuple:
    """N_1..N_degree, counted from the largest degree down.

    The largest field has the largest grids, so a census over the budget
    raises before any smaller field is enumerated.
    """
    counts = [count_points(v, m, p, k, threads) for m in range(degree, 0, -1)]
    return tuple(reversed(counts))


def closed_point_census(
    v: VarietyDesc, degree: int, p: int = 0, k: int = 0, threads: int = 1
) -> tuple:
    """B_1..B_degree with B_d the number of degree-d closed points."""
    return _closed_points(point_counts(v, degree, p, k, threads))


def _closed_points(ns: tuple) -> tuple:
    """Moebius inversion of the counts; refuses counts no variety has."""
    out = []
    for d in range(1, len(ns) + 1):
        total = sum(
            moebius(e) * ns[d // e - 1] for e in range(1, d + 1) if d % e == 0
        )
        b, rem = divmod(total, d)
        if rem:
            raise CensusInconsistent(
                f"degree-{d} count sum {total} is not divisible by {d}"
            )
        if b < 0:
            raise CensusInconsistent(f"negative closed-point count B_{d}={b}")
        out.append(b)
    return tuple(out)


def sym_product_counts(
    v: VarietyDesc, degree: int, p: int = 0, k: int = 0, threads: int = 1
) -> tuple:
    """s_0..s_degree, the point counts of the symmetric products.

    sum_n s_n t^n = exp(sum_m N_m t^m / m), the Witt vector whose ghost
    coordinates are the point counts N_m.  The closed-point census checks
    the counts first.
    """
    ns = point_counts(v, degree, p, k, threads)
    _closed_points(ns)
    # truncating keeps a negative degree the error it is for any series
    return from_ghost(ZZ, ns).truncate(degree).coeffs


# block-level counting


def _plan_block(block: Block, p: int, k: int) -> list:
    """The charts of a block over F_(p^k), each a point count or a plan.

    An affine block is one chart with no fixed coordinates; a projective
    block has one chart per first nonzero coordinate, normalized to 1.
    Planning needs p and q alone and builds no field.
    """
    q = p**k
    nvars = block.nvars
    charts = [{}]
    if block.kind == "projective":
        charts = [{**dict.fromkeys(range(i), 0), i: 1} for i in range(nvars)]
    return [
        _plan_chart(
            [_specialize(eq, nvars, fixed, p) for eq in block.equations],
            nvars - len(fixed),
            p,
            q,
        )
        for fixed in charts
    ]


def _specialize(eq, nvars: int, fixed: dict, p: int) -> dict:
    """Plug 0/1 values into some variables and reduce mod p.

    Terms are keyed by the exponents of the remaining variables; terms
    whose coefficient vanishes in F_p are dropped.
    """
    remaining = [i for i in range(nvars) if i not in fixed]
    out: dict = {}
    for exps, coeff in eq:
        if any(exps[i] and fixed[i] == 0 for i in fixed):
            continue
        key = tuple(exps[i] for i in remaining)
        out[key] = (out.get(key, 0) + coeff) % p
    return {key: c for key, c in out.items() if c}


def _plan_chart(eqs: list, nvars: int, p: int, q: int):
    """A chart's point count when nothing needs enumerating, else its plan.

    The plan is (equations, nvars, solve variable or None); it is the one
    place that picks the strategy and checks the budget against what that
    strategy enumerates.
    """
    eqs = [terms for terms in eqs if terms]  # identically zero: no constraint
    if any(set(terms) == {(0,) * nvars} for terms in eqs):
        return 0  # a nonzero constant: the chart is empty
    if not eqs:
        return q**nvars
    solve_var = _solve_variable(eqs[0], nvars, p) if len(eqs) == 1 else None
    if nvars == 1 and solve_var is not None:
        return _one_variable_roots(eqs[0], p, q)
    _check_budget(q ** (nvars if solve_var is None else nvars - 1))
    return eqs, nvars, solve_var


def _one_variable_roots(terms: dict, p: int, q: int) -> int:
    """Roots in F_q of a*s^2 + b*s + c over F_p, as `_solve_variable` admits
    it: one if linear or in characteristic 2, else one, two or none as
    b^2 - 4ac is 0, a nonzero square of F_q (Euler's criterion) or not."""
    a, b, c = (terms.get((e,), 0) for e in (2, 1, 0))
    if a == 0 or p == 2:
        return 1
    disc = (b * b - 4 * a * c) % p
    if disc == 0:
        return 1
    return 2 if pow(disc, (q - 1) // 2, p) == 1 else 0


def _check_budget(tuples: int):
    if tuples > BUDGET:
        raise BudgetExceeded(
            f"{tuples} tuples to enumerate, budget is {BUDGET}"
        )


def _count_block(plan: list, p: int, k: int, threads: int) -> int:
    """Points of a planned block; a chart that enumerates builds F_(p^k)."""
    return sum(
        chart
        if isinstance(chart, int)
        else _count_chart(*chart, make_field(p, k), threads)
        for chart in plan
    )


def _count_chart(
    eqs: list, nvars: int, solve_var, field: GF, threads: int
) -> int:
    """Common zeros of a planned chart, run in chunks of whole slabs.

    A slab is the q^(enumerated - 1) tuples that share the value of the
    leading enumerated variable, so every chunk is a grid of its own.
    """
    enumerated = nvars if solve_var is None else nvars - 1
    domain = field.grid_domain()
    if solve_var is None:
        worker = partial(_grid_zeros, eqs, nvars, domain)
    else:
        worker = _root_counter(eqs[0], nvars, solve_var, domain)
    slab = field.q ** (enumerated - 1)
    return _run_chunks(field.q**enumerated, threads, worker, slab)


def _run_chunks(total: int, threads: int, worker, unit: int = 1) -> int:
    """Sum of worker(lo, hi) over consecutive ranges of whole units."""
    threads = min(threads, os.cpu_count() or 1)
    if threads <= 1 or total < _CHUNK_MIN:
        return worker(0, total)
    # imported here, so that unthreaded processes skip its 0.5 MB of RSS
    from concurrent.futures import ThreadPoolExecutor

    units = total // unit
    bounds = [unit * (units * i // threads) for i in range(threads + 1)]
    ranges = [
        (lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
    ]
    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        parts = list(pool.map(lambda r: worker(*r), ranges))
    return sum(parts)


def _grid_values(terms: dict, domain, n: int, lo: int, hi: int) -> np.ndarray:
    """Values of a reduced polynomial on the n-variable grid of F_q.

    `domain` is a `GF` on codes or a `LogDomain` on logs, which also fixes
    the order in which each axis enumerates F_q (`axis_values`).  The grid
    is the flat indices lo..hi-1, the first variable slowest, and lo and hi
    fall on whole slabs of the first variable.  The result has n axes and
    broadcasts to the grid's shape (rows, q, ..., q).  Terms are grouped by
    their exponent e of the first variable; each group's cofactor is
    evaluated once on the grid of the other variables, and x^e, laid along
    the leading axis, multiplies it by broadcasting.
    """
    if n == 0:
        return np.array(domain.from_int(terms.get((), 0)), dtype=np.int64)
    slab = domain.q ** (n - 1)
    rows = domain.axis_values(lo // slab, hi // slab)
    rows = rows.reshape((-1,) + (1,) * (n - 1))
    groups: dict = {}
    for exps, c in terms.items():
        groups.setdefault(exps[0], {})[exps[1:]] = c
    acc = None
    for e, rest in groups.items():
        if e and rest == {(0,) * (n - 1): 1}:
            term = domain.vec_pow(rows, e)  # x^e times 1: no full-size product
        else:
            term = _grid_values(rest, domain, n - 1, 0, slab)[None]
            if e:
                term = domain.vec_mul(domain.vec_pow(rows, e), term)
        acc = term if acc is None else domain.vec_add(acc, term)
    if acc is None:
        return np.full((1,) * n, domain.zero, dtype=np.int64)
    return acc


def _grid_sum(values: np.ndarray, size: int) -> int:
    """Sum over a grid of `size` points of values that broadcast to it."""
    return int(values.sum()) * (size // values.size)


def _grid_zeros(eqs, nvars: int, domain, lo: int, hi: int) -> int:
    good = None
    for terms in eqs:
        mask = _grid_values(terms, domain, nvars, lo, hi) == domain.zero
        good = mask if good is None else (good & mask)
        if not good.any():
            return 0
    return _grid_sum(good, hi - lo)


def _solve_variable(terms: dict, nvars: int, p: int):
    """A variable whose roots can be counted, or None when none qualifies.

    For a quadratic a*s^2 + b*s + c the number of roots in s is the number
    of square roots of b^2 - 4ac when a != 0 (characteristic not 2), and
    the linear count otherwise; in characteristic 2 only a missing linear
    term (one root, Frobenius) or a linear equation can be counted this way.
    """
    for j in range(nvars):
        degree = max(exps[j] for exps in terms)
        if degree == 1:
            return j
        if degree == 2 and (p != 2 or all(exps[j] != 1 for exps in terms)):
            return j
    return None


def _root_counter(terms: dict, nvars: int, s: int, domain):
    """Worker adding up root counts in variable s over the other variables."""
    coeff_polys = [{}, {}, {}]  # by power of s, keyed without s
    for exps, coeff in terms.items():
        coeff_polys[exps[s]][exps[:s] + exps[s + 1 :]] = coeff
    q, zero = domain.q, domain.zero
    quadratic = bool(coeff_polys[2])
    minus_four = domain.from_int(-4)

    def worker(lo: int, hi: int) -> int:
        a, b, c = (
            _grid_values(coeff_polys[e], domain, nvars - 1, lo, hi)
            for e in (2, 1, 0)
        )
        linear = np.where(b != zero, 1, np.where(c == zero, q, 0))
        if not quadratic:
            return _grid_sum(linear, hi - lo)
        quad = 1  # s^2 = d has one root in characteristic 2
        if domain.p != 2:
            quad = domain.square_roots(
                domain.vec_add(
                    domain.vec_mul(b, b),
                    domain.vec_mul(minus_four, domain.vec_mul(a, c)),
                )
            )
        return _grid_sum(np.where(a != zero, quad, linear), hi - lo)

    return worker
