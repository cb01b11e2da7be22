"""Zeta series and the identity checkers layered on them."""

from dataclasses import replace

import pytest

import wittzeta.zeta as zeta_module
from wittzeta import (
    CrossCheckFailed,
    NotRationalAtBound,
    TruncSeries,
    UnsupportedClass,
    ZU,
    ZZ,
    affine_space,
    atom_product,
    bundle_zeta_check,
    check_exponentiation,
    compare_series,
    counting_measure,
    elliptic_f5,
    euler_atom,
    euler_measure,
    g_witt_identity_check,
    k0_add,
    k0_atom,
    k0_scale,
    kapranov_zeta,
    multiplicative_group,
    point,
    poincare_atom,
    poincare_measure,
    product_rationality,
    projective_space,
    rat_expand,
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
    got = z.series.coefficient(2)
    assert ZU.render(got) == "1 + u^2 + u^4"
    assert z.series.coefficient(0) == ZU.one


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
