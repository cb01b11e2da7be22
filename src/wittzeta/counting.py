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
* "solved": an equation a*s^2 + b*s + c with a variable s of degree at
  most 2 (in characteristic 2, only without a linear term): enumerate the
  other n - 1 variables.  `_roots` marks, for each root, the points where
  it exists: -c/b where a = 0 and b != 0, (-b +- sqrt(b^2 - 4ac)) / (2a)
  where the grid domain's `sqrt` finds b^2 - 4ac a square (a double root
  once), and sqrt(c/a) in characteristic 2.  With one equation the count
  is the sum of those masks, plus q where the equation vanishes
  identically in s.  With other equations left, the roots are computed,
  a quotient x / y being x y^(2q-3) by `vec_pow`, and each other equation
  is evaluated at them by Horner's rule in s over its cofactor grids;
  where the solved equation vanishes identically in s, s is enumerated at
  those points alone.  The one equation of a chart may also be a cubic
  e*s^3 + a*s^2 + b*s + c with a nonzero constant e, in characteristic
  other than 3: divided by e and shifted by s = r - a/(3e), it is
  r^3 + P*r + Q, and `_roots` reads the masks of at least one, at least
  two and three roots off a q x q table of the root counts N[P, Q],
  built by one `bincount` per block of rows of P (`_cubic_counts`);
* "full grid": enumerate all q^n tuples and test every equation.

The planner takes the strategy that enumerates the fewest tuples, the
full grid on a tie.  A solve for s costs q^(n-1) tuples when the top
coefficient of s is a nonzero constant, and (1 + d) q^(n-1) when it has
total degree d with other equations left: by Schwartz-Zippel it vanishes
at no more than d q^(n-2) points, each of which enumerates q values of s.
A solve also needs q-sized tables, so it costs at least q, and a cubic
its q x q table, so it costs max(q^2, q^(n-1)).  A chart of one variable
costs d^3 bits(p) by its gcd f of degree d, d Frobenius steps of about
2 bits(p) products of degree below d, so it beats the full grid of q
values where q is large: z - B z^3, the chart x = 0 of every Weierstrass
curve, costs 81 at p = 5, and a quadratic over a field of any size costs
8 bits(p).  The gcd is taken only when the equation of least degree D
costs D^3 bits(p) within the budget, so x^100000 - 1 costs its grid.

A curve in P^3 whose quadric has a constant top coefficient in some
variable of each chart, and a cubic surface in A^3 with a constant top
coefficient in some variable, both as in the census-prime benchmark,
cost q^2 tuples in their largest chart, so they are counted while q^2 is
within the budget.  A plane cubic solved as a cubic would cost q^2 too,
which ties its grid, and the grid wins.

The budget is the "tuples" row of `budgets`, per chart.  Every chart of
every block of a call is planned from p and k alone, and its budget
checked, before any field is built, any closed form computed or anything
enumerated.  A chart over a field past `budgets.EXACT_BITS` is refused
before q is computed, unless it has one variable and its gcd answers it.

Every strategy that enumerates evaluates polynomials on the grid by
`_grid_values`, which never materialises the coordinates of the grid: it
is `_horner` in the leading variable, laid along the leading axis, over
the cofactors of its powers, each evaluated once on the grid of the other
variables.  `_horner`, the one place that combines the powers of a
variable, walks the exponents present, highest first; a gap of g costs
one power s^g and a top coefficient 1 no product, so the cost grows with
the number of terms, not the degree.  The field picks
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
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from .budgets import BUDGETS, EXACT_BITS, check
from .errors import CensusInconsistent, NotPrime
from .finitefield import (
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

# grids below this size are never split across threads; a cubic's table of
# root counts is built in blocks of about this size
_CHUNK_MIN = 1 << 15

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
PLAN_KINDS = ("empty", "no equations", "one variable", "solved", "full grid")


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
    huge = k * p.bit_length() > EXACT_BITS  # q is past every budget
    # in one variable every other candidate costs q, the full grid's size
    if f is not None and (huge or _factor_cost(f, p) < p**k):
        check("tuples", _factor_cost(f, p))
        return ChartPlan("one variable", (f,), 1)
    if huge:
        check("tuples", f"{p}^{k}", "at least ")  # refuses
    q = p**k
    tuples, kind, order, solve_var = q**nvars, "full grid", eqs, None
    for i, terms in enumerate(eqs):
        for s, degree, top_degree in _solvable_variables(
            terms, nvars, p, len(eqs) == 1
        ):
            # s is enumerated where the top coefficient vanishes, at most
            # top_degree q^(nvars-2) points (Schwartz-Zippel); the tables
            # are q-sized, and a cubic's table of root counts q x q
            vanishing = top_degree if len(eqs) > 1 else 0
            table = q**2 if degree == 3 else q
            cost = max(table, q ** (nvars - 1) * (1 + vanishing))
            if cost < tuples:
                tuples, kind, solve_var = cost, "solved", s
                order = [terms] + eqs[:i] + eqs[i + 1 :]
    check("tuples", tuples)
    return ChartPlan(kind, tuple(order), nvars, solve_var)


def _solvable_variables(terms: dict, nvars: int, p: int, alone: bool):
    """(s, e, d) for every variable s of degree e whose roots can be
    computed, or, when the equation is `alone` in its chart, counted, with
    d the total degree of its top coefficient in the other variables.

    For a quadratic a*s^2 + b*s + c the roots are (-b +- sqrt(b^2 - 4ac))
    / (2a) when a != 0 (characteristic not 2), and the linear root -c/b
    otherwise; in characteristic 2 only a missing linear term (the one
    root sqrt(c/a), Frobenius) or a linear equation can be solved this way.
    The roots of a cubic whose top coefficient is a nonzero constant, in
    characteristic other than 3, are counted by a table (`_cubic_counts`)
    but not computed, so no other equation can be tested at them.
    """
    for s in range(nvars):
        degree = max(exps[s] for exps in terms)
        top = [exps for exps in terms if exps[s] == degree]
        if degree == 1 or (
            degree == 2 and (p != 2 or all(exps[s] != 1 for exps in terms))
        ):
            yield s, degree, max(sum(exps) - degree for exps in top)
        elif degree == 3 and p != 3 and alone:
            if [sum(exps) for exps in top] == [3]:  # s^3 is the top term
                yield s, degree, 0


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
    if degrees[low] ** 3 * p.bit_length() > BUDGETS["tuples"].limit:
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
    broadcasts to the grid's shape (rows, q, ..., q).  It is `_horner` in
    the first variable, laid along the leading axis, over the cofactors of
    its powers, each evaluated once on the grid of the other variables.
    """
    if n == 0:
        return np.array(domain.from_int(terms.get((), 0)), dtype=np.int64)
    if not terms:
        return np.full((1,) * n, domain.zero, dtype=np.int64)
    slab = domain.q ** (n - 1)
    rows = domain.axis_values(lo // slab, hi // slab)
    rows = rows.reshape((-1,) + (1,) * (n - 1))
    cofactors = {
        e: _grid_values(rest, domain, n - 1, 0, slab)[None]
        for e, rest in _by_power(terms, 0).items()
    }
    return _horner(cofactors, rows, domain)


def _grid_sum(mask: np.ndarray, size: int) -> int:
    """Points of a grid of `size` points where a mask that broadcasts to it
    holds."""
    return int(np.count_nonzero(mask)) * (size // mask.size)


def _grid_zeros(eqs, nvars: int, domain, lo: int, hi: int) -> int:
    good = None
    for terms in eqs:
        mask = _grid_values(terms, domain, nvars, lo, hi) == domain.zero
        good = mask if good is None else (good & mask)
        if not good.any():
            return 0
    return _grid_sum(good, hi - lo)


def _by_power(terms: dict, s: int) -> dict:
    """{e: the coefficient of s^e in `terms`, keyed without s}, for the
    powers e that occur."""
    polys: dict = {}
    for exps, coeff in terms.items():
        polys.setdefault(exps[s], {})[exps[:s] + exps[s + 1 :]] = coeff
    return polys


def _horner(coeffs: dict, s, domain):
    """sum_e coeffs[e] * s^e by Horner's rule over the exponents present,
    highest first; `coeffs` is not empty.  A gap of g between them costs
    one s^g, so the cost grows with the number of terms, not the degree.
    A top coefficient that is the constant 1 costs no product."""
    exps = sorted(coeffs, reverse=True)
    acc = coeffs[exps[0]]
    unit = acc.size == 1 and acc.item() == domain.from_int(1)
    for high, low in zip(exps, exps[1:] + [0]):
        if high > low:
            power = s if high - low == 1 else domain.vec_pow(s, high - low)
            # rebinding acc before the add frees the old one: no third array
            acc = power if unit else domain.vec_mul(acc, power)
            unit = False
            if low in coeffs:
                acc = domain.vec_add(acc, coeffs[low])
    return acc


def _root_counter(terms: dict, nvars: int, s: int, domain, others):
    """Worker counting the points of a chart solved for variable s.

    On the grid of the other variables the solved equation is
    a*s^2 + b*s + c, or a cubic with a constant top coefficient and no
    other equation.  The worker adds up the masks of its roots (`_roots`),
    each narrowed first to the points where the other equations vanish at
    that root, by `_horner` over the grids of their cofactors of each power
    of s (`_by_power`); a root is computed only when there are other
    equations.  Where a, b and c all vanish, every s of a quadratic counts,
    or is tested by the other equations (`_every_s`).  A cubic's table of
    root counts is built here, once for every chunk the threads count.
    """
    coeff_polys = _by_power(terms, s)
    other_polys = [_by_power(eq, s) for eq in others]
    n = nvars - 1
    q, zero = domain.q, domain.zero
    table = _cubic_counts(domain) if 3 in coeff_polys else None

    def worker(lo: int, hi: int) -> int:
        a, b, c = (
            _grid_values(coeff_polys.get(e, {}), domain, n, lo, hi)
            for e in (2, 1, 0)
        )
        grids = [
            {e: _grid_values(g, domain, n, lo, hi) for e, g in polys.items()}
            for polys in other_polys
        ]
        total = 0
        for found, root in _roots(a, b, c, coeff_polys, domain, table):
            if grids and found.any():
                at = root()
                for coeffs in grids:
                    found = found & (_horner(coeffs, at, domain) == zero)
            total += _grid_sum(found, hi - lo)
        if table is not None:  # a cubic's top coefficient never vanishes
            return total
        vanishing = (a == zero) & (b == zero) & (c == zero)
        if vanishing.any():
            shape = ((hi - lo) // q ** (n - 1),) + (q,) * (n - 1)
            total += _every_s(vanishing, grids, domain, shape)
        return total

    return worker


def _roots(a, b, c, powers, domain, table):
    """(found, root) for each root in s of a*s^2 + b*s + c, the one place
    that says where the equation has a root: `found` marks the grid points
    at which the root exists, every root of every point once, and root()
    computes it.  `powers` holds the powers of s the equation has.

    Where a = 0 the root is -c/b, if b != 0.  Otherwise, in odd
    characteristic, it is (-b +- sqrt(disc)) / (2a) where the grid domain's
    `sqrt` finds disc = b^2 - 4ac a square, a double root once; b^2 is
    left out without a linear term, as a Weierstrass curve solved for y
    has none.  In characteristic 2, where there is no linear term, it is
    the one root sqrt(c/a).  A quotient x / y is x times y^(2q-3), which is
    1/y for y != 0 and 0 at 0, also for q = 2.

    A cubic e*s^3 + a*s^2 + b*s + c with a constant e, in characteristic
    other than 3, is divided by e and shifted by s = r - h, h = a/(3e),
    which is a bijection at each point and leaves r^3 + P*r + Q with
    P = b/e - 3h^2 and Q = c/e + h*(2h^2 - b/e).  `table`, None for a
    quadratic, holds its root counts (`_cubic_counts`), so the masks are
    where there are at least one, at least two and three roots; root is
    None, as no root is computed.
    """
    zero, minus_one = domain.zero, domain.from_int(-1)
    exponent = 2 * domain.q - 3

    def over(x, y):  # x / y
        return domain.vec_mul(x, domain.vec_pow(y, exponent))

    if table is not None:
        (e,) = powers[3].values()
        p, mul, add = domain.p, domain.vec_mul, domain.vec_add
        h = mul(domain.from_int(pow(3 * e, -1, p)), a)
        b, c = (mul(domain.from_int(pow(e, -1, p)), x) for x in (b, c))
        hh = mul(h, h)
        linear = add(b, mul(domain.from_int(-3), hh))
        constant = mul(domain.from_int(2), hh)
        constant = add(c, mul(h, add(constant, mul(minus_one, b))))
        counts = table[linear, constant]
        yield counts >= 1, None
        yield counts >= 2, None
        yield counts == 3, None
        return
    flat = a == zero
    if 2 in powers and domain.p == 2:
        yield ~flat, lambda: domain.sqrt(over(c, a))[0]
    elif 2 in powers:
        disc = domain.vec_mul(domain.from_int(-4), domain.vec_mul(a, c))
        if 1 in powers:
            disc = domain.vec_add(domain.vec_mul(b, b), disc)
        root, square = domain.sqrt(disc)
        steep = ~flat
        square = square & steep
        # 1 / (2a), computed once for both roots, and only if one is asked
        two = domain.from_int(2)
        half = cache(lambda: domain.vec_pow(domain.vec_mul(two, a), exponent))
        yield square | ((disc == zero) & steep), lambda: domain.vec_mul(
            domain.vec_add(domain.vec_mul(minus_one, b), root), half()
        )
        yield square, lambda: domain.vec_mul(
            domain.vec_mul(minus_one, domain.vec_add(b, root)), half()
        )
    yield flat & (b != zero), lambda: over(domain.vec_mul(minus_one, c), b)


def _cubic_counts(domain) -> np.ndarray:
    """N[P, Q] = #{r in F_q : r^3 + P*r + Q = 0}, as a q x q uint8 table,
    since a count is at most 3.

    It is indexed by the values P and Q themselves mod q, so on logs the
    -1 of 0 is the last index, where numpy reads -1 from, and a grid of
    values indexes it as it is.  Each block of about `_CHUNK_MIN` entries,
    whole rows of P, is one `bincount` of Q = -(r^3 + P*r) over every r,
    computed by the domain's own vector ops, so no q^2-sized array of keys
    exists.
    """
    q, zero = domain.q, domain.zero
    r = domain.axis_values(0, q)
    cubes = domain.vec_pow(r, 3)
    minus_one = domain.from_int(-1)
    table = np.empty((q, q), dtype=np.uint8)
    step = max(1, _CHUNK_MIN // q)
    for lo in range(0, q, step):
        rows = np.arange(lo, min(lo + step, q), dtype=np.int64)
        linear = ((rows - zero) % q + zero)[:, None]  # the value at each row
        values = domain.vec_mul(
            minus_one, domain.vec_add(cubes, domain.vec_mul(linear, r))
        )
        keys = values % q + q * (rows - lo)[:, None]
        counts = np.bincount(keys.ravel(), minlength=len(rows) * q)
        table[lo : lo + len(rows)] = counts.reshape(len(rows), q)
    return table


def _every_s(points, grids: list, domain, shape: tuple) -> int:
    """Common zeros of the other equations at the grid points where
    `points` holds, for every value of s."""
    at = np.nonzero(np.broadcast_to(points, shape))
    s = domain.axis_values(0, domain.q)
    found = np.ones((len(at[0]), 1), dtype=bool)
    for coeffs in grids:
        values = {
            e: np.broadcast_to(g, shape)[at][:, None] for e, g in coeffs.items()
        }
        found = found & (_horner(values, s, domain) == domain.zero)
    return _grid_sum(found, len(at[0]) * domain.q)
