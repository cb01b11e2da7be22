"""Acceptance suite: thirteen end-to-end criteria, one test each.

Every comparison is exact; each test also enforces its own wall-clock
budget so regressions in speed fail loudly.  Random data is drawn from
seeded generators, so runs are reproducible.
"""

import math
import random
import time

from wittzeta import (
    BINOMIAL_Z,
    PLETHYSTIC_ZU,
    ZU,
    ZZ,
    affine_space,
    bundle_zeta_check,
    check_exponentiation,
    check_lambda_additivity,
    check_sigma_ring_hom,
    counting_measure,
    elliptic_f5,
    field_params_from_q,
    g_witt_identity_check,
    multiplicative_group,
    point,
    poly_ring,
    projective_space,
    rat_equal,
    rat_expand,
    rat_make,
    rat_mul,
    rationalize,
    sym_product_counts,
    teichmuller,
    totaro_check,
    totaro_proof_trace,
    twist,
    weil_zeta,
    witt_add,
    witt_mul,
    witt_neg,
    witt_zero,
    TruncSeries,
)

# Degree-1 point count of the catalog elliptic curve over F_5, found with
# an independent brute-force scan of P^2(F_5) before this package existed:
# the 31 projective points were tested against y^2*z = x^3 + x*z^2 + z^3
# by hand-rolled modular arithmetic.
ELLIPTIC_N1_ORACLE = 9


def _elapsed_under(start: float, limit: float):
    elapsed = time.monotonic() - start
    assert elapsed < limit, f"took {elapsed:.2f}s, budget {limit}s"


def _int_series(rng, precision):
    coeffs = [1] + [rng.randint(-9, 9) for _ in range(precision)]
    return TruncSeries.make(ZZ, coeffs, precision)


def _zu_monomial(rng, max_deg=3, bound=3):
    return ZU.from_terms({(rng.randint(0, max_deg),): rng.randint(-bound, bound)})


def _zu_series(rng, precision):
    coeffs = [ZU.one] + [_zu_monomial(rng) for _ in range(precision)]
    return TruncSeries.make(ZU, coeffs, precision)


def _zu_poly(rng, max_deg=3, bound=2):
    return ZU.from_terms(
        {(d,): rng.randint(-bound, bound) for d in range(max_deg + 1)}
    )


def test_c01_witt_ring_axioms():
    start = time.monotonic()
    rng = random.Random(101)
    cases = [(ZZ, _int_series, 200), (ZU, _zu_series, 50)]
    for ring, draw, trials in cases:
        n = 12
        zero = witt_zero(ring, n)
        unit = teichmuller(ring, ring.one, n)
        for _ in range(trials):
            a, b, c = draw(rng, n), draw(rng, n), draw(rng, n)
            assert witt_add(witt_add(a, b), c) == witt_add(a, witt_add(b, c))
            assert witt_add(a, b) == witt_add(b, a)
            assert witt_add(a, zero) == a
            assert witt_add(a, witt_neg(a)) == zero
            ab, bc = witt_mul(a, b), witt_mul(b, c)
            assert witt_mul(ab, c) == witt_mul(a, bc)
            assert ab == witt_mul(b, a)
            assert witt_mul(a, unit) == a
            assert witt_mul(a, witt_add(b, c)) == witt_add(ab, witt_mul(a, c))
    _elapsed_under(start, 5.0)


def test_c02_teichmuller_laws():
    start = time.monotonic()
    rng = random.Random(202)
    n = 12
    for _ in range(100):
        a, b = rng.randint(-20, 20), rng.randint(-20, 20)
        g = _int_series(rng, n)
        lhs = witt_mul(teichmuller(ZZ, a, n), teichmuller(ZZ, b, n))
        assert lhs == teichmuller(ZZ, a * b, n)
        assert witt_mul(g, teichmuller(ZZ, a, n)) == twist(g, a)
    _elapsed_under(start, 2.0)


def _random_rat(rng):
    def poly():
        degree = rng.randint(0, 3)
        return (1,) + tuple(rng.randint(-3, 3) for _ in range(degree))

    return rat_make(ZZ, poly(), poly())


def test_c03_rational_witt_closure():
    start = time.monotonic()
    rng = random.Random(303)
    n = 20
    for _ in range(100):
        f, g = _random_rat(rng), _random_rat(rng)
        product = rat_mul(f, g)
        lhs = rat_expand(product, n)
        rhs = witt_mul(rat_expand(f, n), rat_expand(g, n))
        assert lhs == rhs
    _elapsed_under(start, 10.0)


def test_c04_weil_zeta_of_the_projective_line():
    start = time.monotonic()
    zeta = weil_zeta(projective_space(1), 3, 8)
    rat = rationalize(zeta.series, 2)
    assert rat is not None
    assert rat.num == (1,)
    assert rat.den == (1, -4, 3)  # (1 - t)(1 - 3t)
    _elapsed_under(start, 1.0)


def test_c05_elliptic_curve_zeta():
    start = time.monotonic()
    zeta = weil_zeta(elliptic_f5(), 5, 8)
    assert zeta.series.coeffs[1] == ELLIPTIC_N1_ORACLE
    a = 6 - ELLIPTIC_N1_ORACLE
    assert abs(a) <= 4  # Hasse bound for a genus-one curve over F_5
    rat = rationalize(zeta.series, 2)
    assert rat is not None
    assert rat.num == (1, -a, 5)
    assert rat.den == (1, -6, 5)  # (1 - t)(1 - 5t)
    _elapsed_under(start, 5.0)


def test_c06_counting_measure_exponentiation():
    start = time.monotonic()
    family = [
        point(),
        affine_space(1),
        multiplicative_group(),
        projective_space(1),
        projective_space(2),
    ]
    for q in (2, 3):
        measure = counting_measure(q)
        for x in family:
            for y in family:
                assert check_exponentiation(measure, x, y, 6).holds
    _elapsed_under(start, 30.0)


def test_c07_totaro_identity_with_proof_trace():
    start = time.monotonic()
    cases = [
        (counting_measure(2), projective_space(1)),
        (counting_measure(5), projective_space(1)),
        (counting_measure(5), elliptic_f5()),
    ]
    for measure, x in cases:
        for n in (1, 2):
            assert totaro_check(measure, x, n, 6).holds
            report = totaro_proof_trace(measure, x, n, 6)
            assert report.holds
            assert len(report.steps) == 5
    _elapsed_under(start, 20.0)


def _geometric_rat(exponent):
    """(1 - t)^(-exponent) as a rational Witt vector."""
    binomial = tuple(
        (-1) ** i * math.comb(abs(exponent), i)
        for i in range(abs(exponent) + 1)
    )
    if exponent >= 0:
        return rat_make(ZZ, (1,), binomial)
    return rat_make(ZZ, binomial, (1,))


def test_c08_euler_measure_product_identity():
    start = time.monotonic()
    for a in range(-3, 4):
        for b in range(-3, 4):
            product = rat_mul(_geometric_rat(a), _geometric_rat(b))
            expected = _geometric_rat(a * b)
            assert rat_equal(product, expected)
            assert (product.num, product.den) == (expected.num, expected.den)
    _elapsed_under(start, 1.0)


def test_c09_plethystic_sigma_is_a_ring_homomorphism():
    start = time.monotonic()
    rng = random.Random(909)
    for _ in range(50):
        f, g = _zu_poly(rng), _zu_poly(rng)
        assert check_sigma_ring_hom(PLETHYSTIC_ZU, f, g, 10).holds
    _elapsed_under(start, 10.0)


def test_c10_lambda_axiom_suite():
    start = time.monotonic()
    rng = random.Random(1010)
    n = 8
    for _ in range(100):
        a, b = rng.randint(-6, 6), rng.randint(-6, 6)
        series = BINOMIAL_Z.lambda_series(a, n)
        assert series.coeffs[0] == 1
        assert series.coeffs[1] == a
        assert check_lambda_additivity(BINOMIAL_Z, a, b, n).holds
    for _ in range(100):
        f, g = _zu_poly(rng), _zu_poly(rng)
        series = PLETHYSTIC_ZU.lambda_series(f, n)
        assert series.coeffs[0] == ZU.one
        assert series.coeffs[1] == f
        assert check_lambda_additivity(PLETHYSTIC_ZU, f, g, n).holds
    _elapsed_under(start, 2.0)


def test_c11_projective_bundle_formula():
    start = time.monotonic()
    measure = counting_measure(2)
    for n in (1, 2):
        verdict = bundle_zeta_check(
            measure, projective_space(1), n, 6, "projective"
        )
        assert verdict.holds
    _elapsed_under(start, 10.0)


def test_c12_equivariant_witt_identity():
    start = time.monotonic()
    ring = poly_ring(("a", "b", "s"))
    rng = random.Random(1212)

    def monomial(bound=2):
        exps = tuple(rng.randint(0, 1) for _ in range(3))
        return ring.from_terms({exps: rng.randint(-bound, bound)})

    n = 8
    for _ in range(50):
        g = TruncSeries.make(
            ring, [ring.one] + [monomial() for _ in range(n)], n
        )
        s = monomial()
        p_coeffs = (ring.one, monomial(), monomial())
        assert g_witt_identity_check(g, s, p_coeffs, n).holds
    _elapsed_under(start, 10.0)


def test_c13_symmetric_product_cross_validation():
    start = time.monotonic()
    for q in (2, 3, 4, 5):
        p, k = field_params_from_q(q)
        line = sym_product_counts(affine_space(1), 6, p, k)
        assert line == tuple(q**n for n in range(7))
        proj = sym_product_counts(projective_space(1), 6, p, k)
        assert proj == tuple(
            (q ** (n + 1) - 1) // (q - 1) for n in range(7)
        )
    _elapsed_under(start, 5.0)
