"""Zeta series and the identity checkers layered on them."""

import random
import time
from dataclasses import replace

import pytest

import wittzeta.zeta as zeta_module
from wittzeta import cli, counting
from wittzeta.budgets import BUDGETS
from wittzeta import (
    CrossCheckFailed,
    NotRationalAtBound,
    RatWitt,
    TruncSeries,
    UnsupportedClass,
    ZU,
    ZZ,
    affine_space,
    atom_product,
    bundle_zeta_check,
    certified_zeta,
    check_exponentiation,
    compare_series,
    counting_measure,
    elliptic_f5,
    euler_atom,
    euler_measure,
    field_params_from_q,
    g_witt_identity_check,
    k0_add,
    k0_atom,
    k0_scale,
    kapranov_zeta,
    load_variety,
    multiplicative_group,
    point,
    poincare_atom,
    poincare_measure,
    product_rationality,
    projective_space,
    projective_variety,
    rat_expand,
    sym_product_counts,
    totaro_check,
    totaro_proof_trace,
    variety_product,
    weil_zeta,
)

F2 = counting_measure(2)
F3 = counting_measure(3)


# verdict plumbing


def test_verdict_success_render():
    a = TruncSeries.make(ZZ, (1, 2, 3), 2)
    v = compare_series(a, a, "x")
    assert v.holds and v.precision == 2
    assert v.render() == "HOLDS (precision 2)"
    assert v.render_json() == {"holds": True, "precision": 2, "label": "x"}


def test_verdict_failure_names_the_degree():
    a = TruncSeries.make(ZZ, (1, 2, 3), 2)
    b = TruncSeries.make(ZZ, (1, 2, 5), 2)
    v = compare_series(a, b)
    assert not v.holds and v.fail_index == 2
    assert v.render() == "FAILS at t^2: lhs=3, rhs=5"
    assert v.render_json()["fail_index"] == 2


# zeta series of the three measures


def test_counting_zeta_of_small_varieties():
    assert kapranov_zeta(F2, point(), 4).series.coeffs == (1,) * 5
    line = kapranov_zeta(F2, affine_space(1), 5)
    assert line.series.coeffs == (1, 2, 4, 8, 16, 32)
    torus = kapranov_zeta(counting_measure(5), multiplicative_group(), 4)
    assert torus.series.coeffs == (1, 4, 20, 100, 500)


def test_counting_zeta_metadata():
    z = kapranov_zeta(F2, multiplicative_group(), 3)
    assert z.measure_name == "counting"
    assert z.class_text == "affine(2){-1 + x*y}"
    assert z.precision == 3
    data = z.render_json()
    assert data["measure"] == "counting"
    assert data["coeffs"][0] == "1"


def test_zeta_render():
    z = kapranov_zeta(F2, point(), 3)
    assert z.render() == "1 + t + t^2 + t^3 + O(t^4)"


def test_census_zeta_rejects_formal_combinations():
    cls = k0_add(k0_atom(point()), k0_atom(affine_space(1)))
    with pytest.raises(UnsupportedClass):
        kapranov_zeta(F2, cls, 3)
    with pytest.raises(UnsupportedClass):
        kapranov_zeta(F2, k0_scale(2, k0_atom(point())), 3)
    with pytest.raises(UnsupportedClass):
        kapranov_zeta(F2, euler_atom("X", 1), 3)


def test_weil_zeta_over_a_prime_power_field():
    # Sym^n of the projective line is P^n, counted by the closed form
    z = weil_zeta(projective_space(1), 9, 3)
    assert z.series.coeffs == tuple((9 ** (n + 1) - 1) // 8 for n in range(4))


def test_weil_zeta_thread_count_is_invisible():
    a = weil_zeta(elliptic_f5(), 5, 6, threads=4)
    b = weil_zeta(elliptic_f5(), 5, 6)
    assert a.series == b.series


def test_euler_zeta_expansions():
    z = kapranov_zeta(euler_measure(), euler_atom("S2", 2), 4)
    assert z.series.coeffs == (1, 2, 3, 4, 5)
    w = kapranov_zeta(euler_measure(), euler_atom("C", -2), 4)
    assert w.series.coeffs == (1, -2, 1, 0, 0)


def test_poincare_zeta_expansion():
    z = kapranov_zeta(poincare_measure(), poincare_atom("P1", [1, 0, 1]), 3)
    got = z.series.coeffs[2]
    assert ZU.render(got) == "1 + u^2 + u^4"
    assert z.series.coeffs[0] == ZU.one


def test_zeta_at_precision_zero_is_one():
    assert kapranov_zeta(F3, projective_space(2), 0).series.coeffs == (1,)
    z = kapranov_zeta(euler_measure(), euler_atom("X", 7), 0)
    assert z.series.coeffs == (1,)


# exponentiation


def test_exponentiation_for_counting():
    v = check_exponentiation(F3, affine_space(1), projective_space(1), 5)
    assert v.holds
    assert check_exponentiation(F2, elliptic_f5(), projective_space(1), 4).holds


def test_exponentiation_unit_law():
    assert check_exponentiation(F2, point(), projective_space(2), 5).holds


def test_exponentiation_for_sigma_measures():
    mu = euler_measure()
    assert check_exponentiation(mu, euler_atom("X", 2), euler_atom("Y", 3), 6).holds
    nu = poincare_measure()
    p1 = poincare_atom("P1", [1, 0, 1])
    s = poincare_atom("S", [1, 0, 2, 0, 1])
    assert check_exponentiation(nu, p1, s, 5).holds


# the twist identity and its proof trace


def test_totaro_for_counting():
    assert totaro_check(F2, projective_space(1), 1, 6).holds
    assert totaro_check(F2, elliptic_f5(), 2, 4).holds


def test_totaro_trivial_twist():
    assert totaro_check(F3, multiplicative_group(), 0, 5).holds


def test_totaro_for_sigma_measures():
    assert totaro_check(euler_measure(), euler_atom("X", 3), 2, 6).holds
    p1 = poincare_atom("P1", [1, 0, 1])
    assert totaro_check(poincare_measure(), p1, 1, 4).holds


def test_totaro_trace_holds_and_renders():
    report = totaro_proof_trace(F2, projective_space(1), 2, 6)
    assert report.holds
    text = report.render()
    lines = text.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("link 1: zeta(X x A^n) = zeta(X) * zeta(A^n)")
    assert all("HOLDS (precision 6)" in line for line in lines[:5])
    assert lines[-1] == "TRACE HOLDS (precision 6)"


def test_totaro_trace_json_and_agreement():
    report = totaro_proof_trace(euler_measure(), euler_atom("X", 2), 1, 5)
    data = report.render_json()
    assert data["holds"] is True
    assert len(data["links"]) == 5
    assert all(link["holds"] for link in data["links"])
    assert report.holds == totaro_check(euler_measure(), euler_atom("X", 2), 1, 5).holds


# bundle formulas


def test_fiber_bundle_matches_twist():
    assert bundle_zeta_check(F3, projective_space(1), 1, 5, "fiber").holds
    assert bundle_zeta_check(F2, multiplicative_group(), 2, 5, "fiber").holds


def test_fiber_bundle_is_totaros_verdict_relabelled(monkeypatch):
    cases = [
        (F3, projective_space(1), 1, 5),
        (euler_measure(), euler_atom("X", 3), 2, 6),
        (poincare_measure(), poincare_atom("P1", [1, 0, 1]), 1, 4),
    ]
    for case in cases:
        fiber = bundle_zeta_check(*case, "fiber")
        assert fiber.label == "fiber bundle"
        assert fiber == replace(totaro_check(*case), label="fiber bundle")
    # and so is a failure: an untwisted right-hand side fails at t^1 where
    # mu(L) is not 1 (it is 1 under the euler measure)
    monkeypatch.setattr(zeta_module, "twist", lambda series, c: series)
    for case in cases:
        fiber = bundle_zeta_check(*case, "fiber")
        assert fiber == replace(totaro_check(*case), label="fiber bundle")
        want = (True, -1) if case[0].name == "euler" else (False, 1)
        assert (fiber.holds, fiber.fail_index) == want


def test_projective_bundle_is_a_witt_sum_of_twists():
    assert bundle_zeta_check(F2, projective_space(1), 1, 6, "projective").holds
    assert bundle_zeta_check(F2, projective_space(1), 2, 5, "projective").holds


def test_projective_bundle_rank_zero():
    assert bundle_zeta_check(F3, multiplicative_group(), 0, 5, "projective").holds


def test_projective_bundle_for_sigma_measures():
    assert bundle_zeta_check(
        euler_measure(), euler_atom("X", 2), 2, 6, "projective"
    ).holds
    p1 = poincare_atom("P1", [1, 0, 1])
    assert bundle_zeta_check(poincare_measure(), p1, 1, 4, "projective").holds


def test_bundle_rejects_unknown_kind():
    with pytest.raises(ValueError):
        bundle_zeta_check(F2, point(), 1, 4, "grassmannian")


# rationality of product zetas


def test_product_rationality_for_projective_lines():
    rat = product_rationality(F2, projective_space(1), projective_space(1), 2, 12)
    assert rat.num == (1,)
    assert rat.den == (1, -9, 28, -36, 16)
    square = variety_product(projective_space(1), projective_space(1))
    direct = kapranov_zeta(F2, square, 12)
    assert rat_expand(rat, 12) == direct.series
    assert direct.series.coeffs[:3] == (1, 9, 53)


def test_product_rationality_for_euler():
    rat = product_rationality(
        euler_measure(), euler_atom("X", 2), euler_atom("Y", 3), 6, 14
    )
    assert rat.num == (1,)
    assert rat.den == (1, -6, 15, -20, 15, -6, 1)


def test_product_rationality_for_poincare():
    p1 = poincare_atom("P1", [1, 0, 1])
    rat = product_rationality(poincare_measure(), p1, p1, 2, 8)
    assert len(rat.den) == 5
    direct = kapranov_zeta(poincare_measure(), atom_product(p1, p1), 8)
    assert rat_expand(rat, 8) == direct.series


def test_product_rationality_refuses_a_wrong_product(monkeypatch):
    # the cross-check must catch a rat_mul that drops one factor
    monkeypatch.setattr(zeta_module, "rat_mul", lambda f, g: f)
    with pytest.raises(CrossCheckFailed, match="FAILS at t\\^1"):
        product_rationality(F2, projective_space(1), projective_space(1), 2, 12)


def test_product_rationality_bound_too_small():
    with pytest.raises(NotRationalAtBound):
        product_rationality(F2, projective_space(1), projective_space(1), 1, 12)


# the equivariant product identity


def test_g_identity_over_the_integers():
    g = TruncSeries.make(ZZ, (1, 2, 3, 4, 5, 6, 7, 8, 9), 8)
    assert g_witt_identity_check(g, 3, (1, 1, 2)).holds
    assert g_witt_identity_check(g, -2, (1, 0, 0, 5), precision=6).holds


def test_g_identity_degenerate_inputs():
    g = TruncSeries.make(ZZ, (1, 5, 7, 2, 0, 1, 3), 6)
    assert g_witt_identity_check(g, 0, (1, 4)).holds
    assert g_witt_identity_check(g, 2, (1,)).holds


def test_g_identity_over_polynomial_coefficients():
    u = ZU.variable("u")
    coeffs = (ZU.one, u, ZU.add(ZU.one, ZU.mul(u, u)), u, ZU.one)
    g = TruncSeries.make(ZU, coeffs, 4)
    assert g_witt_identity_check(g, u, (ZU.one, u)).holds


def test_g_identity_requires_unit_constant_term():
    g = TruncSeries.make(ZZ, (1, 1, 1), 2)
    with pytest.raises(ValueError):
        g_witt_identity_check(g, 1, (2, 1))
    with pytest.raises(ValueError):
        g_witt_identity_check(g, 1, ())


# certified rational zetas, against honest counts


def weierstrass_curve(p: int, a: int, b: int):
    """y^2 z = x^3 + a x z^2 + b z^3 over F_p, the census-ext shape."""
    return load_variety({
        "p": p, "ambient": {"projective": 2},
        "equations": [f"y^2*z - x^3 - {a}*x*z^2 - {b}*z^3"],
    })


def census_ext_curves(p: int, count: int):
    """Seeded nonsingular (a, b) mod p, lifted to a + j p, b + j p."""
    rng = random.Random(p)
    pairs = [
        (a, b) for a in range(1, p) for b in range(1, p)
        if (4 * a**3 + 27 * b**2) % p
    ]
    return [
        (a + j * p, b + j * p)
        for j, (a, b) in enumerate(rng.sample(pairs, count))
    ]


@pytest.mark.parametrize("p,n", [(5, 8), (7, 6), (11, 5), (13, 5)])
def test_certified_census_ext_curves_match_honest_counts(p, n):
    # n is the precision of the benchmark's op over F_p: F_(p^n) has
    # 78125 to 390625 elements
    for a, b in census_ext_curves(p, 3):
        v = weierstrass_curve(p, a, b)
        form = certified_zeta(v, p, 1)
        assert form is not None and form.den == (1, -(p + 1), p)
        want = sym_product_counts(v, n)
        assert rat_expand(form, n).coeffs == want
        assert weil_zeta(v, p, n).series.coeffs == want


def test_certified_e5_matches_honest_counts_to_precision_ten():
    # F_(5^10) is the largest field e5 can be counted over within the budget
    form = certified_zeta(elliptic_f5(), 5, 1)
    want = sym_product_counts(elliptic_f5(), 10)
    assert rat_expand(form, 10).coeffs == want
    assert weil_zeta(elliptic_f5(), 5, 10).series.coeffs == want


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_certified_affine_and_projective_spaces_match_honest_counts(q):
    p, k = field_params_from_q(q)
    for n in range(4):
        for v in (affine_space(n), projective_space(n)):
            form = certified_zeta(v, p, k)
            assert form.num == (1,) and len(form.den) - 1 == (
                1 if v.blocks[0].kind == "affine" else n + 1
            )
            assert rat_expand(form, 6).coeffs == sym_product_counts(v, 6, p, k)


@pytest.mark.parametrize(
    "equation,q,n",
    [
        # a1 = a3 = 1 in characteristic 2, over F_2 and over F_4
        ("y^2*z + x*y*z + y*z^2 + x^3 + z^3", 2, 9),
        ("y^2*z + x*y*z + y*z^2 + x^3 + x*z^2 + z^3", 2, 9),
        ("y^2*z + x*y*z + y*z^2 + x^3 + z^3", 4, 5),
        # in characteristic 3, with u = 2 and v = 2 scaled away
        ("2*y^2*z + x*y*z + y*z^2 - 2*x^3 + x*z^2 + z^3", 3, 6),
        ("y^2*z + x*y*z + 2*y*z^2 - x^3 - x^2*z - z^3", 3, 6),
    ],
)
def test_certified_general_weierstrass_curves_match_honest_counts(
    equation, q, n
):
    p, k = field_params_from_q(q)
    v = projective_variety(2, (equation,))
    form = certified_zeta(v, p, k)
    assert form is not None
    assert rat_expand(form, n).coeffs == sym_product_counts(v, n, p, k)


WEIERSTRASS_TERMS = ((0, 2, 1), (1, 1, 1), (0, 1, 2), (3, 0, 0), (2, 0, 1),
                     (1, 0, 2), (0, 0, 3))


def singular_point(terms: dict, p: int) -> bool:
    """Whether the plane cubic has an F_p-point where it and its three
    partial derivatives vanish.  A singular irreducible cubic has one
    singular point, fixed by Frobenius, so it lies in P^2(F_p)."""
    def value(poly, point):
        total = 0
        for exps, c in poly.items():
            term = c
            for x, e in zip(point, exps):
                term *= x**e
            total += term
        return total % p

    def partial(i):
        out = {}
        for exps, c in terms.items():
            if exps[i]:
                lower = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
                out[lower] = c * exps[i]
        return out

    polys = [terms] + [partial(i) for i in range(3)]
    points = [(x, y, 1) for x in range(p) for y in range(p)]
    points += [(x, 1, 0) for x in range(p)] + [(1, 0, 0)]
    return any(all(value(f, pt) == 0 for f in polys) for pt in points)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_discriminant_certifies_exactly_the_smooth_cubics(p):
    # random Weierstrass coefficients, u of y^2 z and -v of x^3 nonzero
    # mod p, the x^3 one lifted by a multiple of p, against a search for a
    # singular point
    rng = random.Random(p)
    smooth = 0
    for _ in range(60):
        terms = {e: rng.randrange(p) for e in WEIERSTRASS_TERMS}
        terms[(0, 2, 1)] = rng.randrange(1, p)
        terms[(3, 0, 0)] = rng.randrange(1, p) + p * rng.randint(-1, 1)
        text = " + ".join(
            f"({c})*x^{i}*y^{j}*z^{k}" for (i, j, k), c in terms.items()
        )
        block = projective_variety(2, (text,)).blocks[0]
        disc = zeta_module._weierstrass_discriminant(block, p)
        assert (disc is None) == singular_point(terms, p), text
        smooth += disc is not None
    assert 10 < smooth < 60


def spy_counts(monkeypatch):
    """The (variety, m) of every count_points call, wherever it is made."""
    seen = []
    real = counting.count_points

    def spy(v, m=1, *args):
        seen.append((v, m))
        return real(v, m, *args)

    monkeypatch.setattr(counting, "count_points", spy)
    monkeypatch.setattr(zeta_module, "count_points", spy)
    return seen


HONEST_VARIETIES = {  # name: (variety, p)
    "nodal cubic": (projective_variety(2, ("y^2*z - x^3 - x^2*z",)), 5),
    "cuspidal cubic": (projective_variety(2, ("y^2*z - x^3",)), 5),
    # 4 * 2^3 + 27 * 2^2 = 140, 0 mod 5
    "singular mod p only": (weierstrass_curve(5, 2, 2), 5),
    # singular at (1, 1) over F_2, with a1 = a3 = 1
    "singular in characteristic 2": (
        projective_variety(2, ("y^2*z + x*y*z + y*z^2 + x^3 + x^2*z + z^3",)),
        2,
    ),
    "a line times a conic": (
        variety_product(
            projective_variety(2, ("x + y + z",)),
            projective_variety(2, ("x*z - y^2",)),
        ),
        5,
    ),
    "no y^2 z": (projective_variety(2, ("x^3 + x*y*z + y*z^2 + z^3",)), 5),
}


@pytest.mark.parametrize("name", HONEST_VARIETIES)
def test_uncertified_varieties_count_every_degree(monkeypatch, name):
    v, p = HONEST_VARIETIES[name]
    assert certified_zeta(v, p, 1) is None
    seen = spy_counts(monkeypatch)
    got = kapranov_zeta(counting_measure(p), v, 4).series.coeffs
    assert sorted(m for _, m in seen) == [1, 2, 3, 4]
    assert got == sym_product_counts(v, 4, p)


def test_count_commands_stay_honest(monkeypatch):
    seen = spy_counts(monkeypatch)
    assert cli.main(["count", "sym", "--variety", "e5", "--degree", "4"]) == 0
    assert sorted(m for _, m in seen) == [1, 2, 3, 4]


def test_certified_curve_counts_one_degree_with_its_threads(monkeypatch):
    calls = []
    real = counting.count_points
    monkeypatch.setattr(
        zeta_module, "count_points",
        lambda *args: calls.append(args) or real(*args),
    )
    weil_zeta(elliptic_f5(), 5, 9, threads=2)
    assert calls == [(elliptic_f5(), 1, 5, 1, 2)]


def test_a_count_past_hasses_bound_is_refused(monkeypatch):
    monkeypatch.setattr(zeta_module, "count_points", lambda *args: 20)
    with pytest.raises(CrossCheckFailed, match="Hasse"):
        certified_zeta(elliptic_f5(), 5, 1)  # a = -14, a^2 > 20


# the checks compare against a product atom, counted honestly


def spy_forms(monkeypatch):
    """(blocks, form) of every certified_zeta call."""
    forms = []
    real = zeta_module.certified_zeta

    def spy(v, *args):
        form = real(v, *args)
        forms.append((len(v.blocks), form))
        return form

    monkeypatch.setattr(zeta_module, "certified_zeta", spy)
    return forms


CHECKS = {
    "expo": lambda m, x, n: check_exponentiation(m, x, projective_space(1), n),
    "totaro": lambda m, x, n: totaro_check(m, x, 1, n),
    "totaro trace": lambda m, x, n: totaro_proof_trace(m, x, 1, n),
    "fiber bundle": lambda m, x, n: bundle_zeta_check(m, x, 1, n, "fiber"),
    "projective bundle": lambda m, x, n: bundle_zeta_check(
        m, x, 1, n, "projective"
    ),
    "product rationality": lambda m, x, n: product_rationality(
        m, x, projective_space(1), 2, n
    ),
}


@pytest.mark.parametrize("check", CHECKS)
def test_checks_count_their_product_atom_at_every_degree(monkeypatch, check):
    x, n = projective_space(1), 6
    forms = spy_forms(monkeypatch)
    seen = spy_counts(monkeypatch)
    result = CHECKS[check](counting_measure(3), x, n)
    assert getattr(result, "holds", True)
    # every single block is certified, and no product atom ever is
    assert forms and all(blocks == 1 and form for blocks, form in forms)
    products = [m for v, m in seen if len(v.blocks) == 2]
    assert sorted(set(products)) == list(range(1, n + 1))


def test_check_expo_reports_a_wrong_certified_trace(monkeypatch):
    real = zeta_module.certified_zeta

    def off_by_one(v, *args):
        form = real(v, *args)
        if form is not None and len(form.num) == 3:  # a curve's a, plus 1
            a = -form.num[1] + 1
            form = RatWitt(ZZ, (1, -a, form.num[2]), form.den)
        return form

    monkeypatch.setattr(zeta_module, "certified_zeta", off_by_one)
    verdict = check_exponentiation(
        counting_measure(5), elliptic_f5(), projective_space(1), 4
    )
    assert not verdict.holds and verdict.fail_index == 1
    code = cli.main(["check", "expo", "--x", "e5", "--y", "p1", "--prec", "4"])
    assert code == 1


# the series budget of a certified expansion


@pytest.mark.parametrize(
    "v,q,weight",
    [
        (point(), 7, 0), (affine_space(2), 3, 2), (projective_space(1), 2, 1),
        (projective_space(3), 4, 3), (elliptic_f5(), 5, 1),
        (elliptic_f5(), 25, 1),
    ],
)
def test_expansion_cost_bounds_every_coefficient(v, q, weight):
    p, k = field_params_from_q(q)
    n = 60
    coeffs = rat_expand(certified_zeta(v, p, k), n).coeffs
    bits = [c.bit_length() for c in coeffs]
    want = sum(max(64, b) + b * b // zeta_module._PRINT_BITS for b in bits)
    assert want <= zeta_module._expansion_cost(n, q, weight)
    slope = weight * (q - 1).bit_length()
    extra = weight * (n + 1).bit_length() + 3
    assert all(b <= slope * m + extra for m, b in enumerate(bits))


def test_expansion_cost_is_its_sum_in_closed_form():
    for n in (0, 1, 5, 62, 63, 200):
        for q, w in ((2, 0), (5, 1), (2, 1), (4, 3), (2**61 - 1, 2)):
            slope, base = w * (q - 1).bit_length(), w * (n + 1).bit_length() + 3
            bits = [slope * m + base for m in range(n + 1)]
            want = sum(max(64, b) for b in bits)
            want += sum(b * b for b in bits) // zeta_module._PRINT_BITS
            assert zeta_module._expansion_cost(n, q, w) == want, (n, q, w)


@pytest.mark.parametrize("name", ["pt", "a1", "p2", "e5"])
def test_series_budget_refuses_before_expanding(monkeypatch, capsys, name):
    # refused before N_1 is counted or anything expanded
    monkeypatch.setattr(zeta_module, "count_points", None)
    monkeypatch.setattr(zeta_module, "rat_expand", None)
    start = time.perf_counter()
    argv = ["zeta", "weil", "--variety", name, "--prec", "100000000"]
    code = cli.main(argv + ([] if name == "e5" else ["--q", "5"]))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --prec 100000000 would expand")
    assert f"budget is {BUDGETS['series'].limit}" in err


def test_high_precision_certified_zetas_print_at_once(capsys):
    start = time.perf_counter()
    assert cli.main(["zeta", "weil", "--variety", "e5", "--prec", "1000"]) == 0
    argv = ["zeta", "weil", "--variety", "p2", "--q", "5", "--prec", "2000"]
    assert cli.main(argv) == 0
    assert time.perf_counter() - start < 2.0
    out = capsys.readouterr().out.splitlines()
    # Sym^2000 P^2 has the Gaussian binomial [2002 choose 2]_5 points
    top = (5**2002 - 1) * (5**2001 - 1) // ((5 - 1) * (5**2 - 1))
    assert out[1].endswith(f" + {top}*t^2000 + O(t^2001)")
