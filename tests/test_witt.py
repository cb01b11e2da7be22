import random

import pytest

from wittzeta.errors import NonIntegral, TorsionUnsupported
from wittzeta.finitefield import make_field
from wittzeta.rings import ZZ, poly_ring
from wittzeta.series import TruncSeries
from wittzeta.witt import (
    from_ghost,
    ghost,
    lambda_involution,
    teichmuller,
    twist,
    witt_add,
    witt_mul,
    witt_neg,
    witt_pow,
    witt_sub,
    witt_unit,
    witt_zero,
)


def wv(*coeffs, prec=None):
    prec = len(coeffs) - 1 if prec is None else prec
    return TruncSeries.make(ZZ, coeffs, prec)


def random_wv(rng, prec):
    return wv(1, *(rng.randint(-4, 4) for _ in range(prec)))


def random_wv_u(rng, prec):
    """Random Witt vector over ZZ[u], coefficients of u-degree at most 2."""
    R = poly_ring(("u",))
    coeffs = [R.one] + [
        R.from_terms({(d,): rng.randint(-3, 3) for d in range(3)})
        for _ in range(prec)
    ]
    return TruncSeries.make(R, coeffs, prec)


def test_zero_and_unit():
    assert witt_zero(ZZ, 3).coeffs == (1, 0, 0, 0)
    assert witt_unit(ZZ, 3).coeffs == (1, 1, 1, 1)


def test_add_is_series_multiplication():
    a = wv(1, 1, 0)
    assert witt_add(a, a).coeffs == (1, 2, 1)
    assert witt_add(a, witt_zero(ZZ, 2)).coeffs == a.coeffs
    assert witt_sub(a, a).coeffs == (1, 0, 0)
    assert witt_add(a, witt_neg(a)).coeffs == (1, 0, 0)


def test_witt_requires_constant_term_one():
    with pytest.raises(ValueError):
        witt_add(wv(2, 1), wv(1, 1))
    with pytest.raises(ValueError):
        witt_mul(wv(0, 1), wv(1, 1))


def test_teichmuller_and_ghost():
    t2 = teichmuller(ZZ, 2, 5)
    assert t2.coeffs == (1, 2, 4, 8, 16, 32)
    assert ghost(t2) == (2, 4, 8, 16, 32)
    assert ghost(witt_unit(ZZ, 4)) == (1, 1, 1, 1)
    assert ghost(witt_zero(ZZ, 4)) == (0, 0, 0, 0)


def test_ghost_of_sum_is_pointwise_sum():
    rng = random.Random(1)
    for _ in range(10):
        a = random_wv(rng, 8)
        b = random_wv(rng, 8)
        ga = ghost(a)
        gb = ghost(b)
        gsum = ghost(witt_add(a, b))
        assert gsum == tuple(x + y for x, y in zip(ga, gb))


def test_from_ghost_roundtrip():
    rng = random.Random(2)
    for _ in range(10):
        a = random_wv(rng, 8)
        assert from_ghost(ZZ, ghost(a)).coeffs == a.coeffs
    R = poly_ring(("u",))
    for _ in range(10):
        a = random_wv_u(rng, 6)
        assert from_ghost(R, ghost(a)).coeffs == a.coeffs


def test_from_ghost_rejects_non_integral():
    # ghost vector (1, 0): c_2 = (0 + 1*1)/2 is not an integer
    with pytest.raises(NonIntegral):
        from_ghost(ZZ, (1, 0))


def test_witt_mul_pins_down_teichmuller_product():
    lhs = witt_mul(teichmuller(ZZ, 2, 6), teichmuller(ZZ, 3, 6))
    assert lhs.coeffs == teichmuller(ZZ, 6, 6).coeffs


def test_witt_mul_unit_law():
    rng = random.Random(3)
    for _ in range(5):
        a = random_wv(rng, 8)
        assert witt_mul(a, witt_unit(ZZ, 8)).coeffs == a.coeffs
        assert witt_mul(a, witt_zero(ZZ, 8)).coeffs == witt_zero(ZZ, 8).coeffs


def test_twist_is_teichmuller_product():
    rng = random.Random(4)
    for _ in range(5):
        g = random_wv(rng, 8)
        a = rng.randint(-5, 5)
        assert witt_mul(g, teichmuller(ZZ, a, 8)).coeffs == twist(g, a).coeffs


def test_iota_swaps_units():
    # iota(1 + t) = (1 - t)^(-1), the Witt multiplicative unit
    one_plus_t = wv(1, 1, 0, 0, 0)
    assert lambda_involution(one_plus_t).coeffs == witt_unit(ZZ, 4).coeffs
    # and iota is an involution
    rng = random.Random(5)
    for _ in range(5):
        g = random_wv(rng, 8)
        assert lambda_involution(lambda_involution(g)).coeffs == g.coeffs


def test_square_of_one_plus_t_under_witt_mul():
    g = lambda_involution(wv(1, 1, 0, 0))  # [1] written as iota(1 + t)
    assert witt_mul(g, g).coeffs == witt_unit(ZZ, 3).coeffs


def test_witt_pow():
    t2 = teichmuller(ZZ, 2, 6)
    assert witt_pow(t2, 0).coeffs == witt_unit(ZZ, 6).coeffs
    assert witt_pow(t2, 3).coeffs == teichmuller(ZZ, 8, 6).coeffs
    with pytest.raises(ValueError):
        witt_pow(t2, -1)
    # against the n-fold Witt product, over ZZ and ZZ[u]
    rng = random.Random(7)
    for draw, prec in ((random_wv, 7), (random_wv_u, 5)):
        for _ in range(6):
            g = draw(rng, prec)
            expected = witt_unit(g.ring, prec)
            for n in range(5):
                assert witt_pow(g, n).coeffs == expected.coeffs
                expected = witt_mul(expected, g)
    # the unit needs no ghost inversion; higher powers refuse torsion
    F = make_field(3, 1)
    a = TruncSeries.make(F, (1, 2, 1), 2)
    assert witt_pow(a, 0).coeffs == witt_unit(F, 2).coeffs
    for n in (1, 2, 3):
        with pytest.raises(TorsionUnsupported):
            witt_pow(a, n)


def test_witt_mul_over_polynomials():
    R = poly_ring(("u",))
    u = R.variable("u")
    lhs = witt_mul(teichmuller(R, u, 5), teichmuller(R, u, 5))
    assert lhs.coeffs == teichmuller(R, R.mul(u, u), 5).coeffs


def test_witt_mul_refuses_torsion():
    F = make_field(3, 1)
    a = TruncSeries.make(F, (1, 2, 1), 2)
    with pytest.raises(TorsionUnsupported):
        witt_mul(a, a)
