"""Exact point counting over finite fields, and the derived censuses.

Counts are taken blockwise (blocks of a product are independent, so their
counts multiply) and per projective chart (first nonzero coordinate
normalized to 1).  Within a chart three strategies apply, in order:

* no equations: closed form, nothing is enumerated;
* one equation with some variable of degree at most 2: enumerate the other
  variables and add up root counts of the resulting quadratic or linear
  polynomial, reading square roots off a q-sized table when at least q
  tuples are enumerated, and off Euler's criterion otherwise;
* otherwise: enumerate the full grid and test every equation.

Whatever is actually enumerated is counted against a hard budget of 10^7
tuples per call, checked before any work happens; no field-sized table is
built for a grid smaller than the field, so the budget bounds those too.
Enumeration runs on numpy arrays of encoded field elements; an optional
thread count, capped at the CPU count, splits the grid into contiguous
index ranges whose partial sums are added in order, so the result is
identical for every thread count.

Degree-m counts use the extension field F_(p^(k*m)) built with the same
deterministic modulus scan as the base field; only a block with equations
builds it, a closed form needs nothing but q^m.  A census counts its
largest degree first, so the budget of its largest field is checked before
anything is enumerated.  The zeta series exp(sum_m N_m t^m / m) is the Witt
vector whose ghost coordinates are the counts N_m, so the symmetric-product
counts are `from_ghost` of N_1..N_D over the integers.  Closed-point counts
follow by Moebius inversion of N_m = sum_(d|m) d*B_d; they also validate
the counts, since no variety has counts whose B_d are fractional or
negative.
"""

from __future__ import annotations

import os
from math import isqrt

import numpy as np

from .errors import BudgetExceeded, CensusInconsistent, NotPrime
from .finitefield import GF, check_field_params, make_field
from .rings import ZZ
from .varieties import Block, VarietyDesc
from .witt import from_ghost

BUDGET = 10**7
_CHUNK_MIN = 1 << 15  # grids below this size are never split across threads

_count_cache: dict = {}


def field_params_from_q(q: int) -> tuple[int, int]:
    """Split a prime power into (p, k); rejects everything else."""
    if q < 2:
        raise NotPrime(f"{q} is not a prime power")
    # the smallest divisor is prime, and past sqrt(q) only q itself is left
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    k = 0
    rest = q
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise NotPrime(f"{q} is not a prime power")
    return p, k


def resolve_field(v: VarietyDesc, p: int = 0, k: int = 0) -> tuple[int, int]:
    """Explicit field parameters win over the variety's own."""
    if p:
        return p, k or 1
    if v.p:
        return v.p, v.k or 1
    raise ValueError("no finite field specified for counting")


def moebius(n: int) -> int:
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def count_points(
    v: VarietyDesc, m: int = 1, p: int = 0, k: int = 0, threads: int = 1
) -> int:
    """Number of F_(q^m)-points, q = p^k."""
    p, k = resolve_field(v, p, k)
    check_field_params(p, k * m)
    key = (v.blocks, p, k, m)
    cached = _count_cache.get(key)
    if cached is not None:
        return cached
    total = 1
    for block in v.blocks:
        total *= _count_block(block, p, k * m, threads)
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


def _count_block(block: Block, p: int, k: int, threads: int) -> int:
    """Points over F_(p^k); only a block with equations builds the field."""
    if not block.equations:
        q = p**k
        if block.kind == "affine":
            return q**block.dim
        return sum(q**i for i in range(block.dim + 1))
    field = make_field(p, k)
    if block.kind == "affine":
        return _count_chart(
            list(block.equations), block.nvars, field, threads
        )
    total = 0
    nvars = block.nvars
    for i in range(nvars):
        fixed = {j: 0 for j in range(i)}
        fixed[i] = 1
        eqs = [_specialize(eq, nvars, fixed) for eq in block.equations]
        total += _count_chart(eqs, nvars - i - 1, field, threads)
    return total


def _specialize(eq, nvars: int, fixed: dict):
    """Plug 0/1 values into some variables; terms keyed by remaining exps."""
    remaining = [i for i in range(nvars) if i not in fixed]
    out: dict = {}
    for exps, coeff in eq:
        if any(exps[i] and fixed[i] == 0 for i in fixed):
            continue
        key = tuple(exps[i] for i in remaining)
        out[key] = out.get(key, 0) + coeff
    return {k: c for k, c in out.items() if c}


def _as_term_dict(eq, nvars: int) -> dict:
    if isinstance(eq, dict):
        return eq
    return {exps: coeff for exps, coeff in eq}


def _count_chart(equations, nvars: int, field: GF, threads: int) -> int:
    """Common zeros of the equations on the affine grid of nvars variables."""
    p = field.p
    q = field.q
    eqs = []
    for eq in equations:
        terms = {
            exps: coeff % p
            for exps, coeff in _as_term_dict(eq, nvars).items()
            if coeff % p
        }
        if not terms:
            continue  # identically zero: no constraint
        if set(terms) == {(0,) * nvars}:
            return 0  # nonzero constant: empty chart
        eqs.append(terms)
    if not eqs:
        return q**nvars
    if nvars == 0:
        return 1  # only nontrivial constants could fail, handled above
    if len(eqs) == 1:
        solved = _try_solve_counting(eqs[0], nvars, field, threads)
        if solved is not None:
            return solved
    _check_budget(q, nvars)
    return _run_chunks(
        q**nvars,
        threads,
        lambda lo, hi: _grid_zeros(eqs, nvars, field, lo, hi),
    )


def _check_budget(q: int, enumerated: int):
    planned = q**enumerated
    if planned > BUDGET:
        raise BudgetExceeded(
            f"{planned} tuples to enumerate, budget is {BUDGET}"
        )


def _run_chunks(total: int, threads: int, worker) -> int:
    threads = min(threads, os.cpu_count() or 1)
    if threads <= 1 or total < _CHUNK_MIN:
        return worker(0, total)
    # imported here, so that unthreaded processes skip its 0.5 MB of RSS
    from concurrent.futures import ThreadPoolExecutor

    bounds = [total * i // threads for i in range(threads + 1)]
    ranges = [
        (lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
    ]
    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        parts = list(pool.map(lambda r: worker(*r), ranges))
    return sum(parts)


def _axis_values(q: int, nvars: int, axis: int, lo: int, hi: int) -> np.ndarray:
    """Values of one grid variable on the flattened index range [lo, hi)."""
    idx = np.arange(lo, hi, dtype=np.int64)
    stride = q ** (nvars - 1 - axis)
    return (idx // stride) % q


def _eval_terms(terms: dict, arrays: list, field: GF, size: int) -> np.ndarray:
    acc = None
    for exps, coeff in terms.items():
        c = field.from_int(coeff)
        if c == 0:
            continue
        term = None
        for j, e in enumerate(exps):
            if e:
                power = field.vec_pow(arrays[j], e)
                term = power if term is None else field.vec_mul(term, power)
        if term is None:
            term = np.full(size, c, dtype=np.int64)
        elif c != 1:
            term = field.vec_mul(term, np.int64(c))
        acc = term if acc is None else field.vec_add(acc, term)
    if acc is None:
        return np.zeros(size, dtype=np.int64)
    return acc


def _grid_zeros(eqs, nvars: int, field: GF, lo: int, hi: int) -> int:
    arrays = [
        _axis_values(field.q, nvars, j, lo, hi) for j in range(nvars)
    ]
    good = None
    for terms in eqs:
        mask = _eval_terms(terms, arrays, field, hi - lo) == 0
        good = mask if good is None else (good & mask)
        if not good.any():
            return 0
    return int(np.count_nonzero(good))


def _try_solve_counting(terms: dict, nvars: int, field: GF, threads: int):
    """Root counting in one variable, or None when no variable qualifies.

    For a quadratic a*s^2 + b*s + c the number of roots in s is the number
    of square roots of b^2 - 4ac when a != 0 (characteristic not 2), and
    the linear count otherwise; in characteristic 2 only a missing linear
    term (one root, Frobenius) or a linear equation can be counted this way.
    """
    degrees = [0] * nvars
    for exps in terms:
        for j, e in enumerate(exps):
            degrees[j] = max(degrees[j], e)
    solve_var = None
    for j in range(nvars):
        if degrees[j] == 1:
            solve_var = j
            break
        if degrees[j] == 2:
            has_linear = any(exps[j] == 1 for exps in terms)
            if field.p != 2 or not has_linear:
                solve_var = j
                break
    if solve_var is None:
        return None
    _check_budget(field.q, nvars - 1)

    def part(exps):
        reduced = list(exps)
        reduced[solve_var] = 0
        return tuple(reduced)

    coeff_polys = [{}, {}, {}]  # by power of the solve variable
    for exps, coeff in terms.items():
        bucket = coeff_polys[exps[solve_var]]
        key = part(exps)
        bucket[key] = bucket.get(key, 0) + coeff

    quadratic = bool(coeff_polys[2])
    grid = field.q ** (nvars - 1)
    # a grid of fewer than q points decides squareness by Euler's criterion
    # instead of a q-sized table; characteristic 2 needs neither
    sqrt_counts = None
    if quadratic and field.p != 2 and grid >= field.q:
        sqrt_counts = field.square_counts()
    minus_four = np.int64(field.from_int(-4))

    def worker(lo: int, hi: int) -> int:
        size = hi - lo
        # the solve variable's slot is never read (its exponent is 0 in
        # every coefficient polynomial) but keeps indexing by variable
        eval_arrays = []
        for j in range(nvars):
            if j == solve_var:
                eval_arrays.append(np.zeros(size, dtype=np.int64))
            else:
                rank = j - (1 if j > solve_var else 0)
                eval_arrays.append(
                    _axis_values(field.q, nvars - 1, rank, lo, hi)
                )
        a = _eval_terms(coeff_polys[2], eval_arrays, field, size)
        b = _eval_terms(coeff_polys[1], eval_arrays, field, size)
        c = _eval_terms(coeff_polys[0], eval_arrays, field, size)
        linear = np.where(b != 0, 1, np.where(c == 0, field.q, 0))
        if not quadratic:
            return int(linear.sum())
        if field.p == 2:
            quad = 1  # s^2 = d: one root
        else:
            disc = field.vec_add(
                field.vec_mul(b, b),
                field.vec_mul(minus_four, field.vec_mul(a, c)),
            )
            if sqrt_counts is not None:
                quad = sqrt_counts[disc]
            else:
                # d^((q-1)/2) is 1 on nonzero squares and -1 on the rest
                euler = field.vec_pow(disc, (field.q - 1) // 2)
                quad = np.where(disc == 0, 1, np.where(euler == 1, 2, 0))
        return int(np.where(a != 0, quad, linear).sum())

    return _run_chunks(grid, threads, worker)
