"""Zeta series of measures and the identity checkers built on them.

The zeta series of a class X is sum_n value(n-th symmetric power of X) t^n.
Census-policy measures compute the coefficients from closed-point counts of
an honest variety; sigma-policy measures take the single value mu(X) and
expand sigma_t of it.

The checkers compare independently computed expansions coefficient by
coefficient and report the first discrepancy, so a failure pinpoints the
offending degree instead of returning a bare boolean.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .counting import field_params_from_q, sym_product_counts
from .errors import CrossCheckFailed, NotRationalAtBound, UnsupportedClass
from .measures import (
    Measure,
    as_k0,
    counting_measure,
    lefschetz_power,
    measure_value,
)
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


def kapranov_zeta(measure: Measure, c, precision: int) -> ZetaSeries:
    """Zeta series of a class: sum of symmetric-power values."""
    cls = as_k0(c)
    if measure.policy == "census":
        atom = _single_variety(cls)
        coeffs = sym_product_counts(
            atom, precision, measure.p, measure.k, measure.threads
        )
        series = TruncSeries.make(ZZ, coeffs, precision)
        return ZetaSeries(series, measure.name, atom.describe())
    value = measure_value(measure, cls)
    series = measure.structure.sigma_series(value, precision)
    return ZetaSeries(series, measure.name, cls.describe())


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
    factor = pser.mul(teichmuller(ring, s, n))
    lhs = witt_mul(gg, factor)
    rhs = witt_add(twist(gg, s), witt_mul(gg, pser))
    return compare_series(lhs, rhs, "equivariant product")
