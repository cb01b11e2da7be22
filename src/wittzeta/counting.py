"""Exact point counting over finite fields, and the derived censuses.

Counts are taken blockwise (blocks of a product are independent, so their
counts multiply).  Each block is cut into charts: an affine block is one
chart with no fixed coordinates, a projective block one chart per first
nonzero coordinate, normalized to 1.  Every chart goes through one
pipeline: `_specialize` plugs in the fixed coordinates and reduces the
coefficients mod p, and `_plan_chart`, the one place that picks a chart's
strategy, returns its `ChartPlan`, of one of the kinds in `PLAN_KINDS`:

* "empty": some equation is a nonzero constant, so there are no points;
* "no equations": q^n points, so A^n and P^n are closed forms;
* "one variable": any equations of any degree in the chart's one
  variable.  Their coefficients lie in F_p, so the chart is counted in
  F_p[x], with no grid and no field: f is their monic gcd, and
  gcd(f, x^(p^j) - x), with x^(p^j) mod f by binary powering, is the
  product of the distinct irreducible factors of f whose degree divides
  j, for j = 1 .. deg f.  The count over F_(p^k) is the sum of the
  degrees of the factors whose degree divides k (Lidl and Niederreiter,
  Finite Fields, Thm 3.20; the distinct-degree step of Cantor and
  Zassenhaus, 1981);
* "root count": one equation a*s^2 + b*s + c with a variable s of degree
  at most 2 (in characteristic 2, only without a linear term): enumerate
  the other n - 1 variables and add up the root counts, 2 where the
  grid domain's `sqrt` finds b^2 - 4ac a nonzero square and 1 where it is
  0, q where the equation vanishes identically in s;
* "roots substituted": the same with other equations left.  The roots
  are computed, s = (-b +- sqrt(b^2 - 4ac)) / (2a) by the grid domain's
  `sqrt`, -c/b where a = 0 and sqrt(c/a) in characteristic 2, a quotient
  x / y being x y^(2q-3) by `vec_pow`, and each other equation is
  evaluated at them by Horner's rule in s over its cofactor grids.  Where
  the solved equation vanishes identically in s, s is enumerated at those
  points alone;
* "full grid": enumerate all q^n tuples and test every equation.

The planner takes the strategy that enumerates the fewest tuples, the
full grid on a tie.  A solve for s costs q^(n-1) tuples when the top
coefficient of s is a nonzero constant, and (1 + d) q^(n-1) when it has
total degree d with other equations left: by Schwartz-Zippel it vanishes
at no more than d q^(n-2) points, each of which enumerates q values of s.
A solve also needs q-sized tables, so it costs at least q.  A chart of one
variable costs d^3 bits(p) by its gcd f of degree d, d Frobenius steps of
about 2 bits(p) products of degree below d, so it beats the full grid of q
values where q is large: z - B z^3, the chart x = 0 of every Weierstrass
curve, costs 81 at p = 5, and a quadratic over a field of any size costs
8 bits(p).  The gcd is taken only when the equation of least degree D
costs D^3 bits(p) within the budget, so x^100000 - 1 costs its grid.

A curve in P^3 whose quadric has a constant top coefficient in some
variable of each chart, as in the census-prime benchmark, costs q^2
tuples in its largest chart, so it is counted up to q = 3162.

The budget is a hard 10^7 tuples per chart.  Every chart of every block
of a call is planned from p and k alone, and its budget checked, before
any field is built, any closed form computed or anything enumerated; q
itself is computed only after a bit-length check, so a chart over a field
of more than 256 bits is refused at once, unless it is a chart of one
variable that its gcd answers.  Every chart that enumerates has at least
q tuples, so the budget also bounds the field-sized tables: the log
tables of an extension field and the tables of squares and of powers of
a prime field.

Every strategy that enumerates evaluates polynomials on the grid by
`_grid_values`, which never materialises the coordinates of the grid.  It
groups the terms by the exponent of the leading variable, evaluates each
group's cofactor once on the grid of the remaining variables, and
combines the groups by numpy broadcasting, x^e laid along the leading
axis times the cofactor along the others: a Horner scheme over the
variables, in which full-size arrays are touched about twice per distinct
leading exponent rather than several times per monomial.  The field picks
the arithmetic (`GF.grid_domain`).  Over an extension field every grid
value is a discrete log to the field's generator g, with -1 for 0: each
axis enumerates F_q as 0, g^0, g^1, ..., g^(q-2), so x^e along an axis is
the log times e mod q - 1, a product adds logs, a sum is one Zech gather,
and a square root halves an even log.  Prime fields keep codes, each axis
in code order.  Either order is a bijection of the positions onto F_q, so
a count, a sum over the grid, does not depend on it.  An optional thread
count, capped at the CPU count, splits the grid into contiguous ranges of
whole slabs of the leading variable, so every chunk is a grid of its own;
partial sums are added in order, so the result is identical for every
thread count.

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
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceeded, CensusInconsistent, NotPrime
from .finitefield import (
    BUDGET,
    GF,
    check_field_params,
    factorize,
    frobenius_gcds,
    is_prime,
    make_field,
    power_mod,
    prime_polys,
)
from .rings import ZZ
from .varieties import Block, VarietyDesc
from .witt import from_ghost

_CHUNK_MIN = 1 << 15  # grids below this size are never split across threads

# never written; read only by perfbench/run.py (len, clear) and tracing.py
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
    plans = [_plan_block(block, p, k * m) for block in v.blocks]
    total = 1
    for plan in plans:
        total *= _count_block(plan, p, k * m, threads)
        if total == 0:
            break
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

# the strategies a chart can be planned for; see the module docstring
PLAN_KINDS = (
    "empty", "no equations", "one variable", "root count",
    "roots substituted", "full grid",
)
# a field with more bits than this is past any budget, so a chart that
# enumerates over it is refused before q is computed
_EXACT_BITS = 256


class ChartPlan(NamedTuple):
    """How one chart is counted: the strategy `kind`, the chart's reduced
    equations (the solved one first; for "one variable", their monic gcd
    in F_p[x], constant term first) and variables, and the solved
    variable, if any."""

    kind: str
    eqs: tuple = ()
    nvars: int = 0
    solve_var: int | None = None


def _plan_block(block: Block, p: int, k: int) -> list:
    """The charts of a block over F_(p^k), each as a `ChartPlan`.

    An affine block is one chart with no fixed coordinates; a projective
    block has one chart per first nonzero coordinate, normalized to 1.
    Planning needs p and k alone and builds no field.
    """
    nvars = block.nvars
    charts = [{}]
    if block.kind == "projective":
        charts = [{**dict.fromkeys(range(i), 0), i: 1} for i in range(nvars)]
    return [
        _plan_chart(
            [_specialize(eq, nvars, fixed, p) for eq in block.equations],
            nvars - len(fixed),
            p,
            k,
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


def _plan_chart(eqs: list, nvars: int, p: int, k: int) -> ChartPlan:
    """The one place that picks a chart's strategy and checks the budget
    against what that strategy enumerates over F_(p^k).

    Every (equation, variable) pair that `_solvable_variables` admits is a
    candidate, and so is the full grid; so is the gcd of a chart of one
    variable, at d^3 bits(p) for its degree d.  The one with the fewest
    tuples wins, the full grid on a tie (see the module docstring for the
    costs).
    """
    eqs = [terms for terms in eqs if terms]  # identically zero: no constraint
    if any(set(terms) == {(0,) * nvars} for terms in eqs):
        return ChartPlan("empty")  # a nonzero constant: no points
    if not eqs:
        return ChartPlan("no equations", nvars=nvars)
    f = _common_factor(eqs, p) if nvars == 1 else None
    huge = k * p.bit_length() > _EXACT_BITS  # q is past every budget
    # in one variable every other candidate costs q, the full grid's size
    if f is not None and (huge or _factor_cost(f, p) < p**k):
        _check_budget(_factor_cost(f, p))
        return ChartPlan("one variable", (f,), 1)
    if huge:
        raise BudgetExceeded(
            f"at least {p}^{k} tuples to enumerate, budget is {BUDGET}"
        )
    q = p**k
    tuples, kind, order, solve_var = q**nvars, "full grid", eqs, None
    for i, terms in enumerate(eqs):
        for s, top_degree in _solvable_variables(terms, nvars, p):
            # s is enumerated where the top coefficient vanishes, at most
            # top_degree q^(nvars-2) points (Schwartz-Zippel); the tables
            # are q-sized
            vanishing = top_degree if len(eqs) > 1 else 0
            cost = max(q, q ** (nvars - 1) * (1 + vanishing))
            if cost < tuples:
                tuples, solve_var = cost, s
                kind = "roots substituted" if len(eqs) > 1 else "root count"
                order = [terms] + eqs[:i] + eqs[i + 1 :]
    _check_budget(tuples)
    return ChartPlan(kind, tuple(order), nvars, solve_var)


def _solvable_variables(terms: dict, nvars: int, p: int):
    """(s, d) for every variable s whose roots can be computed, with d the
    total degree of its top coefficient in the other variables.

    For a quadratic a*s^2 + b*s + c the roots are (-b +- sqrt(b^2 - 4ac))
    / (2a) when a != 0 (characteristic not 2), and the linear root -c/b
    otherwise; in characteristic 2 only a missing linear term (the one
    root sqrt(c/a), Frobenius) or a linear equation can be solved this way.
    """
    for s in range(nvars):
        degree = max(exps[s] for exps in terms)
        if degree == 1 or (
            degree == 2 and (p != 2 or all(exps[s] != 1 for exps in terms))
        ):
            top = (
                sum(exps) - degree for exps in terms if exps[s] == degree
            )
            yield s, max(top)


def _factor_cost(f: tuple, p: int) -> int:
    """What `_distinct_roots` costs for f, in units of tuples: d Frobenius
    steps of about 2 bits(p) products of degree below d = deg f."""
    return (len(f) - 1) ** 3 * p.bit_length()


def _common_factor(eqs: list, p: int):
    """The monic gcd in F_p[x] of the equations of a chart of one
    variable, constant term first.

    Only the equation of least degree D is written out densely, and only
    when D^3 bits(p) is within the budget; past it the gcd is not taken
    (None), and the chart is counted on its grid or refused by the grid's
    budget.  A lone equation is its own gcd, so that loses nothing; of
    several, a gcd of lower degree goes unused.  Every other equation is
    reduced modulo the gcd so far term by term, x^e by `power_mod`, so no
    exponent, however large, is spread into coefficients.
    """
    degrees = [max(e for (e,) in terms) for terms in eqs]
    low = degrees.index(min(degrees))
    if degrees[low] ** 3 * p.bit_length() > BUDGET:
        return None
    ring = prime_polys(p)
    dense = [0] * (degrees[low] + 1)
    for (e,), c in eqs[low].items():
        dense[e] = c
    f = ring.gcd(tuple(dense), ())  # the equation made monic
    x = ring.monomial(1)
    for terms in eqs[:low] + eqs[low + 1 :]:
        rest = ()
        for (e,), c in terms.items():
            rest = ring.add(rest, ring.scale(c, power_mod(x, e, f, ring)))
        f = ring.gcd(f, rest)
    return f


def _distinct_roots(f: tuple, p: int, k: int) -> int:
    """Distinct roots in F_(p^k) of a monic f over F_p: the sum of the
    degrees of the distinct irreducible factors of f whose degree divides
    k (Lidl and Niederreiter, Finite Fields, Thm 3.20).

    The j-th of `frobenius_gcds` has as its degree the sum over the factor
    degrees e dividing j, so the factors of degree exactly j add up to it
    less those of its proper divisors: the distinct-degree step of
    Cantor-Zassenhaus.  Once they add up to deg f, f is squarefree and
    every factor is found.
    """
    exact: dict = {}  # e: total degree of the factors of degree exactly e
    d = len(f) - 1
    for j, g in zip(range(1, d + 1), frobenius_gcds(f, p)):
        exact[j] = len(g) - 1 - sum(n for e, n in exact.items() if j % e == 0)
        if sum(exact.values()) == d:
            break
    return sum(n for e, n in exact.items() if k % e == 0)


def _check_budget(tuples: int):
    if tuples > BUDGET:
        raise BudgetExceeded(
            f"{tuples} tuples to enumerate, budget is {BUDGET}"
        )


def _count_block(plan: list, p: int, k: int, threads: int) -> int:
    """Points of a planned block; a chart that enumerates builds F_(p^k)."""
    total = 0
    for chart in plan:
        if chart.kind == "no equations":
            total += p ** (k * chart.nvars)
        elif chart.kind == "one variable":
            total += _distinct_roots(chart.eqs[0], p, k)
        elif chart.kind != "empty":
            total += _count_chart(chart, make_field(p, k), threads)
    return total


def _count_chart(plan: ChartPlan, field: GF, threads: int) -> int:
    """Common zeros of a planned chart, run in chunks of whole slabs.

    A slab is the q^(enumerated - 1) tuples that share the value of the
    leading enumerated variable, so every chunk is a grid of its own.
    """
    eqs, nvars, s = plan.eqs, plan.nvars, plan.solve_var
    domain = field.grid_domain()
    if s is None:
        enumerated = nvars
        worker = partial(_grid_zeros, eqs, nvars, domain)
    else:
        enumerated = nvars - 1
        worker = _root_counter(eqs[0], nvars, s, domain, eqs[1:])
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


def _by_power(terms: dict, s: int, degree: int) -> list:
    """The coefficients of s^0 .. s^degree in `terms`, keyed without s."""
    polys: list = [{} for _ in range(degree + 1)]
    for exps, coeff in terms.items():
        polys[exps[s]][exps[:s] + exps[s + 1 :]] = coeff
    return polys


def _horner(coeffs: list, s, domain):
    """sum_e coeffs[e] * s^e by Horner's rule; a None coefficient is 0, and
    the top one is never None."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = domain.vec_mul(acc, s)
        if c is not None:
            acc = domain.vec_add(acc, c)
    return acc


def _root_counter(terms: dict, nvars: int, s: int, domain, others=()):
    """Worker counting the points of a chart solved for variable s.

    On the grid of the other variables the solved equation is
    a*s^2 + b*s + c, and its discriminant is -4ac, plus b^2 only when the
    equation has a linear term in s: a Weierstrass curve solved for y has
    none.  With no other equation the worker adds up its root counts, q
    where it vanishes identically in s.  Otherwise it tests the other
    equations at each of its roots (`_roots`) by Horner's rule in s over
    their cofactor grids, and where a, b and c all vanish, at every s
    (`_every_s`).
    """
    coeff_polys = _by_power(terms, s, 2)
    other_polys = [
        _by_power(eq, s, max(exps[s] for exps in eq)) for eq in others
    ]
    n = nvars - 1
    q, zero = domain.q, domain.zero
    quadratic = bool(coeff_polys[2])
    minus_four = domain.from_int(-4)

    def worker(lo: int, hi: int) -> int:
        a, b, c = (
            _grid_values(coeff_polys[e], domain, n, lo, hi) for e in (2, 1, 0)
        )
        disc = None
        if quadratic and domain.p != 2:
            disc = domain.vec_mul(minus_four, domain.vec_mul(a, c))
            if coeff_polys[1]:
                disc = domain.vec_add(domain.vec_mul(b, b), disc)
        if not others:
            linear = np.where(b != zero, 1, np.where(c == zero, q, 0))
            if not quadratic:
                return _grid_sum(linear, hi - lo)
            quad = 1  # s^2 = d has one root in characteristic 2
            if disc is not None:
                quad = 2 * domain.sqrt(disc)[1] + (disc == zero)
            return _grid_sum(np.where(a != zero, quad, linear), hi - lo)
        grids = [
            [_grid_values(g, domain, n, lo, hi) if g else None for g in polys]
            for polys in other_polys
        ]
        total = 0
        for root, found in _roots(a, b, c, disc, quadratic, domain):
            for coeffs in grids:
                if not found.any():
                    break
                found = found & (_horner(coeffs, root, domain) == zero)
            total += _grid_sum(found, hi - lo)
        vanishing = (a == zero) & (b == zero) & (c == zero)
        if vanishing.any():
            shape = ((hi - lo) // q ** (n - 1),) + (q,) * (n - 1)
            total += _every_s(vanishing, grids, domain, shape)
        return total

    return worker


def _roots(a, b, c, disc, quadratic: bool, domain):
    """(root, where it is one) for each root in s of a*s^2 + b*s + c, one
    root at a time; every root of every point comes once.  disc is
    b^2 - 4ac for a quadratic in odd characteristic, else None.

    Where a = 0 the root is -c/b, if b != 0.  Otherwise it is
    (-b +- sqrt(disc)) / (2a), a double root once, or in characteristic 2,
    where there is no linear term, the one root sqrt(c/a).  A quotient
    x / y is x times y^(2q-3), which is 1/y for y != 0 and 0 at 0, also
    for q = 2.
    """
    zero, minus_one = domain.zero, domain.from_int(-1)
    exponent = 2 * domain.q - 3
    flat = a == zero
    if flat.any():
        minus_c = domain.vec_mul(minus_one, c)
        yield (
            domain.vec_mul(minus_c, domain.vec_pow(b, exponent)),
            flat & (b != zero),
        )
    if disc is not None:
        root, square = domain.sqrt(disc)
        minus_b = domain.vec_mul(minus_one, b)
        half = domain.vec_pow(domain.vec_mul(domain.from_int(2), a), exponent)
        found = (square | (disc == zero)) & ~flat  # a double root once
        for r in (root, domain.vec_mul(minus_one, root)):
            yield domain.vec_mul(domain.vec_add(minus_b, r), half), found
            found = square & ~flat
    elif quadratic:
        c_over_a = domain.vec_mul(c, domain.vec_pow(a, exponent))
        yield domain.sqrt(c_over_a)[0], ~flat


def _every_s(points, grids: list, domain, shape: tuple) -> int:
    """Common zeros of the other equations at the grid points where
    `points` holds, for every value of s."""
    at = np.nonzero(np.broadcast_to(points, shape))
    s = domain.axis_values(0, domain.q)
    found = np.ones((len(at[0]), 1), dtype=bool)
    for coeffs in grids:
        values = [
            None if g is None else np.broadcast_to(g, shape)[at][:, None]
            for g in coeffs
        ]
        found = found & (_horner(values, s, domain) == domain.zero)
    return _grid_sum(found, len(at[0]) * domain.q)
