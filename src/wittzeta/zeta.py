"""Zeta series of measures and the identity checkers built on them.

The zeta series of a class X is sum_n value(n-th symmetric power of X) t^n.
Census-policy measures compute the coefficients from closed-point counts of
an honest variety, or, for A^n, P^n and smooth Weierstrass cubics, expand
the rational form `certified_zeta` gives; sigma-policy measures take the
single value mu(X) and expand sigma_t of it.  Under counting, the
exponentiation, Totaro, bundle and product-rationality checks compare
against the zeta of a product atom, which has several blocks and so is
always counted degree by degree.

The checkers compare independently computed expansions coefficient by
coefficient and report the first discrepancy, so a failure pinpoints the
offending degree instead of returning a bare boolean.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .budgets import EXACT_BITS, check
from .counting import count_points, field_params_from_q, sym_product_counts
from .errors import (
    CrossCheckFailed,
    NotRationalAtBound,
    UnsupportedClass,
)
from .measures import (
    Measure,
    as_k0,
    counting_measure,
    lefschetz_power,
    measure_value,
)
from .polynomials import Poly1Ring
from .rational import RatWitt, rat_expand, rat_mul, rationalize
from .rings import ZZ
from .series import TruncSeries
from .varieties import (
    K0Class,
    SymbolicAtom,
    VarietyDesc,
    affine_space,
    atom_product,
    projective_space,
)
from .verdict import Verdict, all_hold, compare_series
from .witt import teichmuller, twist, witt_add, witt_mul, witt_pow, witt_zero


@dataclass(frozen=True)
class ZetaSeries:
    series: TruncSeries
    measure_name: str
    class_text: str

    @property
    def precision(self) -> int:
        return self.series.precision

    def render(self) -> str:
        return self.series.render()

    def render_json(self) -> dict:
        data = self.series.render_json()
        data["measure"] = self.measure_name
        data["class"] = self.class_text
        return data


def _single_variety(cls: K0Class) -> VarietyDesc:
    if len(cls.terms) == 1:
        atom, mult = cls.terms[0]
        if mult == 1 and isinstance(atom, VarietyDesc):
            return atom
    raise UnsupportedClass(
        "census-policy zeta is defined on single variety atoms, "
        "not formal combinations"
    )


# coefficient bits past which printing, quadratic in the digits, costs
# more than the linear work of the expansion (see `_expansion_cost`)
_PRINT_BITS = 2**13
# the monomials x^i y^j z^l of a Weierstrass cubic, as (i, j, l)
_WEIERSTRASS = {
    "y2z": (0, 2, 1), "xyz": (1, 1, 1), "yz2": (0, 1, 2), "x3": (3, 0, 0),
    "x2z": (2, 0, 1), "xz2": (1, 0, 2), "z3": (0, 0, 3),
}


def kapranov_zeta(measure: Measure, c, precision: int) -> ZetaSeries:
    """Zeta series of a class: sum of symmetric-power values.

    Under the counting measure a variety that `certified_zeta` answers is
    expanded from its rational form, once the "series" budget has admitted
    `_expansion_cost` of the bits of q (past `EXACT_BITS`, the lower bound
    k (bits(p) - 1) on them), before anything is counted; any other is
    counted over F_(q^m) for m = 1..precision.  The cost is taken to
    t^max(N, w + 1), w being the weight, since b_(w+1) bounds the bits of
    every coefficient of the form.
    """
    cls = as_k0(c)
    if measure.policy == "census":
        atom = _single_variety(cls)
        p, k, threads = measure.p, measure.k, measure.threads
        weight = _certified_weight(atom, p)
        if weight is None:
            coeffs = sym_product_counts(atom, precision, p, k, threads)
            series = TruncSeries.make(ZZ, coeffs, precision)
        else:
            context = f"--prec {precision} would expand a zeta over "
            reach = max(precision, weight + 1)
            if k * p.bit_length() > EXACT_BITS:
                bits = k * (p.bit_length() - 1)
                context += f"F_({p}^{k}) to at least "
            else:
                bits = (p**k - 1).bit_length()
                context += f"F_{p**k} to "
            check("series", _expansion_cost(reach, weight, bits), context)
            form = certified_zeta(atom, p, k, threads)
            series = rat_expand(form, precision)
        return ZetaSeries(series, measure.name, atom.describe())
    value = measure_value(measure, cls)
    series = measure.structure.sigma_series(value, precision)
    return ZetaSeries(series, measure.name, cls.describe())


def certified_zeta(
    v: VarietyDesc, p: int, k: int, threads: int = 1
) -> RatWitt | None:
    """The zeta of a single-block variety over F_q, q = p^k, in closed
    form, or None where no certificate applies.

    * A^n, no equations: N_m = q^(nm), so 1/(1 - q^n t).
    * P^n, no equations: N_m = sum_(i<=n) q^(im), so the product of
      1/(1 - q^i t) over i = 0..n.
    * A smooth Weierstrass cubic in P^2: its zeta is
      (1 - a t + q t^2)/((1 - t)(1 - q t)) with a = q + 1 - N_1 (Hasse
      1936; Weil 1948), N_1 counted honestly.  `_weierstrass_discriminant`
      certifies smoothness; a count with a^2 > 4q breaks Hasse's bound
      and raises CrossCheckFailed.

    Anything else, products of blocks included, is None, and its zeta is
    counted degree by degree.
    """
    if _certified_weight(v, p) is None:
        return None
    (block,) = v.blocks
    if not block.equations:
        if block.kind == "affine":
            return RatWitt(ZZ, (1,), (1, -(p ** (k * block.dim))))
        rt = Poly1Ring(ZZ, "t")
        den = (1,)
        for i in range(block.dim + 1):
            den = rt.mul(den, (1, -(p ** (k * i))))
        return RatWitt(ZZ, (1,), den)
    n1 = count_points(v, 1, p, k, threads)
    q = p**k
    a = q + 1 - n1
    if a * a > 4 * q:
        raise CrossCheckFailed(
            f"{n1} points over F_{q} break Hasse's bound |q + 1 - N_1|"
            f" <= 2 sqrt(q) for the smooth cubic {block.describe()}"
        )
    return RatWitt(ZZ, (1, -a, q), (1, -(q + 1), q))


def _certified_weight(v: VarietyDesc, p: int) -> int | None:
    """The dimension of v where `certified_zeta` answers it, else None;
    it needs p alone and counts nothing."""
    if len(v.blocks) != 1:
        return None
    (block,) = v.blocks
    if block.equations and _weierstrass_discriminant(block, p) is None:
        return None
    return block.dim - len(block.equations)


def _weierstrass_discriminant(block, p: int) -> int | None:
    """The discriminant in F_p of a plane cubic of Weierstrass shape, or
    None where the block is not one or the discriminant is 0.

    The shape is one equation in P^2 whose monomials, reduced mod p, lie
    among y^2 z, xyz, y z^2, x^3, x^2 z, x z^2, z^3, with the
    coefficients u of y^2 z and -v of x^3 nonzero.  x -> (u/v) x,
    y -> (u/v) y and division by u (u/v)^2 make it monic,
    y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 at z = 1, and the
    discriminant of a1..a6 (Silverman, AEC, Sec. III.1) vanishes exactly
    where the curve is singular, in every characteristic.  Its point at
    infinity, (0 : 1 : 0), is always smooth.
    """
    if block.kind != "projective" or block.dim != 2:
        return None
    if len(block.equations) != 1:
        return None
    terms = {exps: c % p for exps, c in block.equations[0] if c % p}
    if not set(terms) <= set(_WEIERSTRASS.values()):
        return None
    c = {name: terms.get(exps, 0) for name, exps in _WEIERSTRASS.items()}
    u, v = c["y2z"], -c["x3"] % p
    if not (u and v):
        return None
    inv_u = pow(u, -1, p)
    a1 = c["xyz"] * inv_u
    a3 = c["yz2"] * v * inv_u**2
    a2 = -c["x2z"] * inv_u
    a4 = -c["xz2"] * v * inv_u**2
    a6 = -c["z3"] * v**2 * inv_u**3
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    disc = (-b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6) % p
    return disc or None


def _expansion_cost(n: int, weight: int, bits: int) -> int:
    """An upper bound, in bit units, on expanding and printing a certified
    zeta of the given weight (its dimension) over F_q to t^n, bits being
    ceil(log2 q) = bits(q - 1); fewer bits give a lower bound.

    Coefficient m has at most b_m = w m ceil(log2 q) + w bits(n + 1) + 3
    bits: every root of the denominator is at most q^w, and the numerator
    and the binomial of a P^n add the rest.  The cost is the sum over
    m = 0..n of max(64, b_m), the output's size with each coefficient
    counted as a machine word at least, plus b_m^2 / 2^13, since decimal
    printing is quadratic in the digits.  The sums are in closed form.
    """
    slope = weight * bits
    base = weight * (n + 1).bit_length() + 3
    low = 0  # b_m < 64 for m < low, and those count 64 each
    if base < 64:
        low = n + 1 if slope == 0 else min(n + 1, -((base - 64) // slope))
    linear = 64 * low + base * (n + 1 - low)
    linear += slope * (n * (n + 1) - (low - 1) * low) // 2
    squares = slope**2 * n * (n + 1) * (2 * n + 1) // 6
    squares += slope * base * n * (n + 1) + base**2 * (n + 1)
    return linear + squares // _PRINT_BITS


def weil_zeta(variety, q: int, precision: int, threads: int = 1) -> ZetaSeries:
    """Counting-measure zeta over F_q."""
    p, k = field_params_from_q(q)
    return kapranov_zeta(counting_measure(p, k, threads), variety, precision)


def _zeta(measure: Measure, c, precision: int) -> TruncSeries:
    return kapranov_zeta(measure, c, precision).series


def _affine_factor(measure: Measure, n: int):
    """Atom playing the role of affine n-space for the given measure."""
    if measure.policy == "census":
        return affine_space(n)
    return SymbolicAtom.make(
        f"A{n}", {measure.name: lefschetz_power(measure, n)}
    )


def _projective_factor(measure: Measure, n: int):
    if measure.policy == "census":
        return projective_space(n)
    ring = measure.ring
    value = ring.zero
    for i in range(n + 1):
        value = ring.add(value, lefschetz_power(measure, i))
    return SymbolicAtom.make(f"P{n}", {measure.name: value})


def check_exponentiation(measure: Measure, x, y, precision: int) -> Verdict:
    """zeta(X x Y) against the Witt product of the factor zetas."""
    lhs = _zeta(measure, atom_product(x, y), precision)
    rhs = witt_mul(
        _zeta(measure, x, precision), _zeta(measure, y, precision)
    )
    return compare_series(lhs, rhs, "exponentiation")


def totaro_check(measure: Measure, x, n: int, precision: int) -> Verdict:
    """zeta(X x A^n; t) against zeta(X; mu(L)^n t)."""
    lhs = _zeta(measure, atom_product(x, _affine_factor(measure, n)), precision)
    rhs = twist(_zeta(measure, x, precision), lefschetz_power(measure, n))
    return compare_series(lhs, rhs, "totaro")


@dataclass(frozen=True)
class TraceReport:
    steps: tuple  # of (claim, Verdict)
    precision: int

    @property
    def holds(self) -> bool:
        return all_hold(v for _, v in self.steps)

    def render(self) -> str:
        lines = []
        for i, (claim, verdict) in enumerate(self.steps, start=1):
            lines.append(f"link {i}: {claim}: {verdict.render()}")
        word = "HOLDS" if self.holds else "FAILS"
        lines.append(f"TRACE {word} (precision {self.precision})")
        return "\n".join(lines)

    def render_json(self) -> dict:
        return {
            "holds": self.holds,
            "precision": self.precision,
            "links": [
                {"claim": claim, **verdict.render_json()}
                for claim, verdict in self.steps
            ],
        }


def totaro_proof_trace(
    measure: Measure, x, n: int, precision: int
) -> TraceReport:
    """Verify each link of the Witt-algebra chain behind the twist identity.

    The chain rewrites zeta(X x A^n) as a Witt product, collapses the
    affine factor to a Teichmuller element, and ends at the twisted series.
    """
    ring = measure.ring
    ell = measure.lefschetz
    ell_n = lefschetz_power(measure, n)
    zx = _zeta(measure, x, precision)
    zan = _zeta(measure, _affine_factor(measure, n), precision)
    za1 = _zeta(measure, _affine_factor(measure, 1), precision)
    lhs = _zeta(measure, atom_product(x, _affine_factor(measure, n)), precision)

    r1 = witt_mul(zx, zan)
    r2 = witt_mul(zx, witt_pow(za1, n))
    r3 = witt_mul(zx, witt_pow(teichmuller(ring, ell, precision), n))
    r4 = witt_mul(zx, teichmuller(ring, ell_n, precision))
    r5 = twist(zx, ell_n)

    steps = (
        (
            "zeta(X x A^n) = zeta(X) * zeta(A^n)",
            compare_series(lhs, r1, "link 1"),
        ),
        (
            "zeta(X) * zeta(A^n) = zeta(X) * zeta(A^1)^{*n}",
            compare_series(r1, r2, "link 2"),
        ),
        (
            "zeta(X) * zeta(A^1)^{*n} = zeta(X) * [mu(L)]^{*n}",
            compare_series(r2, r3, "link 3"),
        ),
        (
            "zeta(X) * [mu(L)]^{*n} = zeta(X) * [mu(L)^n]",
            compare_series(r3, r4, "link 4"),
        ),
        (
            "zeta(X) * [mu(L)^n] = zeta(X; mu(L)^n t)",
            compare_series(r4, r5, "link 5"),
        ),
    )
    return TraceReport(steps, precision)


def bundle_zeta_check(
    measure: Measure, x, n: int, precision: int, kind: str = "fiber"
) -> Verdict:
    """Trivial-bundle zeta formulas.

    fiber: zeta(X x A^n) = zeta(X; mu(L)^n t).
    projective: zeta(X x P^n) = Witt sum of zeta(X; mu(L)^i t), i = 0..n.
    """
    if kind == "fiber":  # Totaro's identity, under the bundle's label
        verdict = totaro_check(measure, x, n, precision)
        return replace(verdict, label="fiber bundle")
    if kind == "projective":
        zx = _zeta(measure, x, precision)
        lhs = _zeta(
            measure, atom_product(x, _projective_factor(measure, n)), precision
        )
        rhs = witt_zero(measure.ring, precision)
        for i in range(n + 1):
            rhs = witt_add(rhs, twist(zx, lefschetz_power(measure, i)))
        return compare_series(lhs, rhs, "projective bundle")
    raise ValueError(f"unknown bundle kind {kind!r}")


def product_rationality(
    measure: Measure, x, y, dmax: int, precision: int
) -> RatWitt:
    """Rational form of zeta(X x Y) built from the factor reconstructions.

    Reconstructs each factor zeta at denominator/numerator degree at most
    dmax, multiplies in the rational Witt ring, and cross-checks the
    expansion against the directly computed product zeta; a mismatch
    raises CrossCheckFailed naming the first differing degree.
    """
    rx = rationalize(_zeta(measure, x, precision), dmax)
    if rx is None:
        raise NotRationalAtBound(
            f"no rational form of degree <= {dmax} for the first factor"
        )
    ry = rationalize(_zeta(measure, y, precision), dmax)
    if ry is None:
        raise NotRationalAtBound(
            f"no rational form of degree <= {dmax} for the second factor"
        )
    product = rat_mul(rx, ry)
    direct = _zeta(measure, atom_product(x, y), precision)
    verdict = compare_series(rat_expand(product, precision), direct)
    if not verdict.holds:
        raise CrossCheckFailed(
            "rational product disagrees with the direct product zeta: "
            + verdict.render()
        )
    return product


def g_witt_identity_check(
    g: TruncSeries, s, p_coeffs, precision: int | None = None
) -> Verdict:
    """g * (P(t) (1-st)^{-1}) = g(st) +_W (g * P(t)).

    P is given by its coefficient tuple with P(0) = 1; the series
    P(t) (1-st)^{-1} is the Witt sum of the Teichmuller element [s] and P,
    so the identity is distributivity of * over +_W in one stroke.
    """
    ring = g.ring
    n = g.precision if precision is None else precision
    gg = g.truncate(n)
    if not p_coeffs or p_coeffs[0] != ring.one:
        raise ValueError("P must have constant term 1")
    pser = TruncSeries.make(ring, p_coeffs, n)
    factor = TruncSeries.quotient(ring, p_coeffs, (ring.one, ring.neg(s)), n)
    lhs = witt_mul(gg, factor)
    rhs = witt_add(twist(gg, s), witt_mul(gg, pser))
    return compare_series(lhs, rhs, "equivariant product")
