"""Seeded op generators for the four benchmark workloads.

Each workload is an endless stream of ops built from a fixed cycle of
input *sizes*; the seed only draws coefficients, so every seed gives the
same cost mix and runs on different seeds are comparable.  An op is the
argv a user would type (without ``--json``, which the runner appends) and
a check that compares the CLI's JSON output against an independent oracle.

The cycles are ordered so that any stretch of a run mixes cheap and dear
ops, and their class shares put the median and the tail latency inside a
cost class rather than on the boundary between two classes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

import oracles

WORKLOADS = ("census-ext", "census-prime", "witt-algebra", "rational")


@dataclass(frozen=True)
class Op:
    label: str  # cost class, e.g. "zeta-weil p=5 N=8"
    argv: tuple
    check: Callable[[int, str], str | None]  # (exit code, stdout) -> error or None


def _json_output(rc: int, out: str) -> dict:
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    return json.loads(out)


def _checked(fn):
    """Turn a check that raises into one that returns the error text."""

    def check(rc: int, out: str):
        try:
            return fn(_json_output(rc, out))
        except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
            return f"{type(exc).__name__}: {exc}"

    return check


def _expect_holds(data: dict):
    if data.get("holds") is not True:
        return f"identity reported as failing: {data}"
    return None


def _poly_text(terms, names) -> str:
    """Integer polynomial from (exponents, coefficient) pairs."""
    parts = []
    for exps, coeff in terms:
        mono = "*".join(
            v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e
        )
        parts.append(f"({coeff})*{mono}" if mono else f"({coeff})")
    return " + ".join(parts)


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([c for c in range(-bound, bound + 1) if c])


# ------------------------------------------------------------ census-ext

# (p, N): the zeta series of a curve over F_p to t^N counts points up to
# F_(p^N), whose size sets the cost.  Per ten ops: two dear ops (5^8 =
# 390625, about twice the cost of a middle op), two middle ones (13^5 =
# 371293) and six cheap ones (5^7 = 78125, 7^6 = 117649, 11^5 = 161051).
# A 25-second run holds 14 to 18 dear ops, so the tail latency (the
# 11th-slowest op) falls inside the dear class and the median among the
# cheap ones.
EXT_CYCLE = (
    (5, 8), (7, 6), (13, 5), (11, 5), (5, 7),
    (5, 8), (7, 6), (11, 5), (13, 5), (5, 7),
)


class _CurveSource:
    """Distinct smooth curves y^2 z = x^3 + A x z^2 + B z^3 for one prime.

    The nonsingular pairs (a, b) with a, b != 0 mod p come in seeded order;
    once used up, the next pass lifts them to A = a + j p, B = b + j p.
    The curve mod p repeats, but the input never does, so the package's
    count cache (keyed on the integer equation) is never hit by a repeat.
    """

    def __init__(self, p: int, rng: random.Random):
        self.p = p
        self.rng = rng
        self.pairs = [
            (a, b)
            for a in range(1, p)
            for b in range(1, p)
            if (4 * a**3 + 27 * b**2) % p
        ]
        self.lift = -1
        self.queue: list = []

    def next(self) -> tuple[int, int]:
        if not self.queue:
            self.lift += 1
            self.queue = list(self.pairs)
            self.rng.shuffle(self.queue)
        a, b = self.queue.pop()
        return a + self.lift * self.p, b + self.lift * self.p


def _curve_json(p: int, a: int, b: int) -> str:
    eq = f"y^2*z - x^3 - {a}*x*z^2 - {b}*z^3"
    return json.dumps(
        {"p": p, "k": 1, "ambient": {"projective": 2}, "equations": [eq]}
    )


def _zeta_weil_op(p: int, n: int, a: int, b: int) -> Op:
    def check(data):
        got = [int(c) for c in data["coeffs"]]
        want = oracles.elliptic_zeta(p, oracles.weierstrass_n1(p, a, b), n)
        if got != want:
            return f"zeta of y^2z=x^3+{a}xz^2+{b}z^3 over F_{p}: {got} != {want}"
        return None

    argv = ("zeta", "weil", "--variety", _curve_json(p, a, b), "--prec", str(n))
    return Op(f"zeta-weil p={p} N={n}", argv, _checked(check))


def census_ext(rng: random.Random):
    sources = {p: _CurveSource(p, rng) for p, _ in EXT_CYCLE}
    while True:
        for p, n in EXT_CYCLE:
            yield _zeta_weil_op(p, n, *sources[p].next())


# ---------------------------------------------------------- census-prime

# Every variable has degree 3, so no variable can be solved for and the
# package enumerates the whole grid F_p^3.
SURFACE_TERMS = (
    (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1), (2, 1, 0),
    (0, 2, 1), (1, 0, 2), (1, 0, 0), (0, 1, 0), (0, 0, 0),
)
# A quadric and a cubic in P^3: two equations always take the full grid.
QUADRIC_TERMS = (
    (2, 0, 0, 0), (0, 2, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0),
    (0, 0, 0, 2), (1, 0, 0, 1),
)
CUBIC_TERMS = (
    (3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3),
    (1, 1, 1, 0), (0, 1, 1, 1), (1, 0, 2, 0),
)
# (kind, p): grids from 89^3 = 704969 to 149^3 = 3307949 tuples.  As in
# census-ext, per ten ops one dear (p = 149), three middle (p = 109, 113)
# and six cheap ones (p = 89), so the tail lies among the middle ops and
# the median among the cheap ones.
PRIME_CYCLE = (
    ("surface", 149), ("curve", 89), ("surface", 113), ("surface", 89),
    ("curve", 89), ("curve", 113), ("surface", 89), ("curve", 89),
    ("curve", 109), ("surface", 89),
)


def _random_terms(rng: random.Random, shape) -> list:
    return [(exps, _nonzero(rng, 9)) for exps in shape]


def _surface_op(p: int, terms) -> Op:
    text = _poly_text(terms, "xyz")
    variety = json.dumps(
        {"p": p, "k": 1, "ambient": {"affine": 3}, "equations": [text]}
    )

    def check(data):
        want = oracles.affine_count([terms], 3, p)
        if int(data["value"]) != want:
            return f"surface {text} over F_{p}: {data['value']} != {want}"
        return None

    argv = ("count", "points", "--variety", variety)
    return Op(f"count-points p={p}", argv, _checked(check))


def _curve_op(p: int, equations) -> Op:
    texts = [_poly_text(terms, "xyzw") for terms in equations]
    variety = json.dumps(
        {"p": p, "k": 1, "ambient": {"projective": 3}, "equations": texts}
    )

    def check(data):
        want = oracles.projective_count(equations, 4, p)
        if [int(c) for c in data["counts"]] != [want]:
            return f"curve {texts} over F_{p}: {data['counts']} != [{want}]"
        return None

    argv = ("count", "census", "--degree", "1", "--variety", variety)
    return Op(f"count-census p={p}", argv, _checked(check))


def _prime_op(kind: str, p: int, rng: random.Random, seen: set) -> Op:
    while True:
        if kind == "surface":
            eqs = (tuple(_random_terms(rng, SURFACE_TERMS)),)
        else:
            eqs = (
                tuple(_random_terms(rng, QUADRIC_TERMS)),
                tuple(_random_terms(rng, CUBIC_TERMS)),
            )
        if (p, eqs) not in seen:
            seen.add((p, eqs))
            break
    if kind == "surface":
        return _surface_op(p, list(eqs[0]))
    return _curve_op(p, [list(e) for e in eqs])


def census_prime(rng: random.Random):
    seen: set = set()
    while True:
        for kind, p in PRIME_CYCLE:
            yield _prime_op(kind, p, rng, seen)


# ---------------------------------------------------------- witt-algebra

# Fifteen classes with equal shares: the median falls inside the eighth
# cheapest class and the tail among the three dearest (the precision-30
# checks and witt mul at 400).
WITT_CYCLE = (
    ("mul", 150), ("totaro", 16), ("expo", 16), ("gident", 6), ("lambda", 6),
    ("mul", 250), ("totaro", 24), ("expo", 24), ("gident", 7), ("lambda", 8),
    ("mul", 400), ("totaro", 30), ("expo", 30), ("gident", 8), ("lambda", 10),
)


def _linear_factors(values) -> str:
    return "*".join(
        f"(1{'-' if c > 0 else '+'}{abs(c)}*t)" for c in values
    )


def _signed(rng: random.Random, magnitudes) -> list:
    """The given magnitudes with seeded signs.

    Fixed magnitudes keep the size of the integers an op produces, and so
    its cost, the same for every seed.
    """
    return [m * rng.choice((-1, 1)) for m in magnitudes]


def _teichmuller_values(rng: random.Random) -> list:
    values = [1, 2, 3]
    rng.shuffle(values)
    return _signed(rng, values)


def _witt_mul_op(rng: random.Random, n: int) -> Op:
    a = _teichmuller_values(rng)
    b = _teichmuller_values(rng)

    def check(data):
        want = oracles.teichmuller_product([x * y for x in a for y in b], n)
        got = [int(c) for c in data["coeffs"]]
        if got != want:
            first = next(i for i, (x, y) in enumerate(zip(got, want)) if x != y)
            return f"witt mul {a} x {b}: first difference at t^{first}"
        return None

    argv = (
        "witt", "mul", "--a", _linear_factors(a), "--inv-a",
        "--b", _linear_factors(b), "--inv-b", "--prec", str(n),
    )
    return Op(f"witt-mul n={n}", argv, _checked(check))


def _u_poly(rng: random.Random) -> str:
    """A virtual Poincare polynomial 1 + c1 u + c2 u^2, {c1, c2} = {2, 3}.

    A negative coefficient turns a dense inverse series into a sparse
    polynomial power and halves the op's cost, so the signs stay fixed.
    """
    c1, c2 = rng.sample((2, 3), 2)
    return f"1 + {c1}*u + {c2}*u^2"


def _witt_algebra_op(kind: str, n: int, rng: random.Random) -> Op:
    if kind == "mul":
        return _witt_mul_op(rng, n)
    if kind == "totaro":
        argv = (
            "check", "totaro", "--measure", "poincare",
            "--variety-value", _u_poly(rng), "--n", "2", "--trace",
            "--prec", str(n),
        )
    elif kind == "expo":
        argv = (
            "check", "expo", "--measure", "poincare",
            "--x-value", _u_poly(rng), "--y-value", _u_poly(rng),
            "--prec", str(n),
        )
    elif kind == "gident":
        c = _signed(rng, (1, 2, 1, 2, 1, 2))
        g = f"1 + ({c[0]}*a + {c[1]}*b)*t + ({c[2]}*a*b + {c[3]}*s)*t^2"
        argv = (
            "check", "gident", "--g", g, "--s", f"{c[4]}*a + s",
            "--poly", f"1 + ({c[5]})*b*t", "--prec", str(n),
        )
    else:
        argv = (
            "check", "lambda-axioms", "--structure", "plethystic",
            "--trials", "4", "--seed", str(rng.randrange(10**9)),
            "--prec", str(n),
        )
    return Op(f"{kind} n={n}", argv, _checked(_expect_holds))


def witt_algebra(rng: random.Random):
    while True:
        for kind, n in WITT_CYCLE:
            yield _witt_algebra_op(kind, n, rng)


# -------------------------------------------------------------- rational

# ("mul", d): both operands num/den with deg num = d - 2, deg den = d.
# ("rationalize", D): a pair of degrees (D - 1, D) expanded to t^(2D+2).
# Nine ops with rat mul at degree 5 twice, so the tail lies inside that
# class and the median inside rat mul at degree 4.
RATIONAL_CYCLE = (
    ("mul", 3), ("rationalize", 2), ("mul", 4), ("rationalize", 3),
    ("mul", 5), ("rationalize", 4), ("rationalize", 5), ("mul", 5),
    ("rationalize", 6),
)


def _int_poly(rng: random.Random, degree: int) -> list:
    return [1] + [_nonzero(rng, 3) for _ in range(degree)]


def _t_poly(coeffs) -> str:
    return _poly_text([((i,), c) for i, c in enumerate(coeffs)], "t")


def _rat_mul_op(rng: random.Random, d: int) -> Op:
    an, ad, bn, bd = (_int_poly(rng, deg) for deg in (d - 2, d, d - 2, d))

    def check(data):
        num = [oracles.parse_number(c) for c in data["num"]]
        den = [oracles.parse_number(c) for c in data["den"]]
        # the true product has num/den degrees at most these
        top_num = (d - 2) * d * 2
        top_den = (d - 2) ** 2 + d * d
        n = max(len(num) - 1 + top_den, top_num + len(den) - 1) + 1
        want = oracles.witt_product(
            oracles.series_div(an, ad, n), oracles.series_div(bn, bd, n), n
        )
        got = oracles.series_div(num, den, n)
        if got != want:
            return f"rat mul ({an})/({ad}) x ({bn})/({bd}) disagrees with ghosts"
        return None

    argv = (
        "rat", "mul", "--a-num", _t_poly(an), "--a-den", _t_poly(ad),
        "--b-num", _t_poly(bn), "--b-den", _t_poly(bd),
    )
    return Op(f"rat-mul d={d}", argv, _checked(check))


def _rationalize_op(rng: random.Random, dmax: int) -> Op:
    num, den = _int_poly(rng, dmax - 1), _int_poly(rng, dmax)
    coeffs = oracles.series_div(num, den, 2 * dmax + 2)

    def check(data):
        if data.get("found") is False:
            return f"no rational form found for ({num})/({den})"
        got_num = [oracles.parse_number(c) for c in data["num"]]
        got_den = [oracles.parse_number(c) for c in data["den"]]
        if not oracles.rational_equal(got_num, got_den, num, den):
            return f"rationalize gave ({got_num})/({got_den}), not ({num})/({den})"
        return None

    argv = (
        "rat", "rationalize", "--coeffs", ",".join(map(str, coeffs)),
        "--dmax", str(dmax),
    )
    return Op(f"rationalize D={dmax}", argv, _checked(check))


def rational(rng: random.Random):
    while True:
        for kind, size in RATIONAL_CYCLE:
            if kind == "mul":
                yield _rat_mul_op(rng, size)
            else:
                yield _rationalize_op(rng, size)


GENERATORS = {
    "census-ext": (census_ext, len(EXT_CYCLE)),
    "census-prime": (census_prime, len(PRIME_CYCLE)),
    "witt-algebra": (witt_algebra, len(WITT_CYCLE)),
    "rational": (rational, len(RATIONAL_CYCLE)),
}

INPUT_SIZES = {
    "census-ext": "zeta weil on y^2z=x^3+axz^2+bz^3, (p, N) cycle "
    + ", ".join(f"({p}, {n}): F_{p}^{n} = {p**n}" for p, n in EXT_CYCLE),
    "census-prime": "count points on cubic surfaces in A^3 and count census "
    "--degree 1 on quadric-cubic curves in P^3, (kind, p) cycle "
    + ", ".join(f"({k}, {p}): {p**3} tuples" for k, p in PRIME_CYCLE),
    "witt-algebra": "witt mul over ZZ of 3x3 Teichmuller products, check "
    "totaro --trace / expo over ZZ[u], gident over ZZ[a,b,s], lambda-axioms "
    "plethystic; (kind, precision) cycle "
    + ", ".join(f"({k}, {n})" for k, n in WITT_CYCLE),
    "rational": "rat mul with operand degrees (d-2)/d, rat rationalize of "
    "(D-1)/D pairs from 2D+3 coefficients; (kind, d or D) cycle "
    + ", ".join(f"({k}, {n})" for k, n in RATIONAL_CYCLE),
}


def ops(workload: str, seed: int):
    """Endless, seed-determined op stream of one workload."""
    make, _ = GENERATORS[workload]
    return make(random.Random(f"{workload}:{seed}"))


def invariance_ops(seed: int) -> list:
    """Small census ops re-run with --threads 2; grids exceed the split size."""
    rng = random.Random(f"threads:{seed}")
    curve = _CurveSource(7, rng).next()
    return [
        _zeta_weil_op(7, 6, *curve),
        _prime_op("surface", 53, rng, set()),
    ]
