import math
import random

import pytest

from wittzeta.errors import RingMismatch
from wittzeta.rings import ZZ
from wittzeta.series import TruncSeries
from wittzeta.sigma import (
    BINOMIAL_Z,
    PLETHYSTIC_ZU,
    ZU,
    check_lambda_additivity,
    check_sigma_ring_hom,
)
from wittzeta.witt import lambda_involution, witt_unit


# The series powers sigma_t was built from before it was written through its
# line elements, kept as the oracle for the closed form.


def _binomial_rule(m, precision: int) -> TruncSeries:
    one_minus_t = TruncSeries.make(ZZ, (1, -1), precision)
    return one_minus_t.pow_int(-m)


def _plethystic_rule(f, precision: int) -> TruncSeries:
    result = TruncSeries.one(ZU, precision)
    for exps, c in f:
        factor = TruncSeries.make(
            ZU, (ZU.one, ZU.neg(ZU.monomial(exps))), precision
        )
        result = result.mul(factor.pow_int(-c))
    return result


def test_binomial_sigma_matches_series_powers():
    rng = random.Random(14)
    for _ in range(250):
        m, precision = rng.randint(-30, 30), rng.randint(0, 30)
        assert BINOMIAL_Z.sigma_series(m, precision) == _binomial_rule(
            m, precision
        )


def test_plethystic_sigma_matches_series_powers():
    rng = random.Random(15)
    for _ in range(250):
        degree, precision = rng.randint(0, 4), rng.randint(0, 30)
        f = ZU.from_terms(
            {(r,): rng.randint(-4, 4) for r in range(degree + 1)}
        )
        assert PLETHYSTIC_ZU.sigma_series(f, precision) == _plethystic_rule(
            f, precision
        )


def test_geometric_exponent_is_a_series_power():
    for c in range(-3, 4):
        for a in (-2, 1, 3):
            for precision in (0, 1, 2, 5, 9):
                got = TruncSeries.geometric(ZZ, a, precision, c)
                base = TruncSeries.make(ZZ, (1, -a), precision)
                assert got == base.pow_int(-c)
                assert got.coeffs == tuple(
                    math.comb(c + n - 1, n) * a**n if c > 0
                    else (-1) ** n * math.comb(-c, n) * a**n
                    for n in range(precision + 1)
                )


def test_binomial_sigma_series():
    assert BINOMIAL_Z.sigma_series(1, 4).coeffs == (1, 1, 1, 1, 1)
    assert BINOMIAL_Z.sigma_series(0, 3).coeffs == (1, 0, 0, 0)
    # sigma^n(m) counts multisets: C(m+n-1, n)
    s = BINOMIAL_Z.sigma_series(3, 5)
    assert s.coeffs == tuple(math.comb(3 + n - 1, n) for n in range(6))


def test_binomial_lambda_is_binomial():
    for m in (0, 1, 2, 5):
        lam = BINOMIAL_Z.lambda_series(m, 6)
        assert lam.coeffs == tuple(math.comb(m, n) for n in range(7))
    # negative argument expands (1 + t)^m as a series
    lam = BINOMIAL_Z.lambda_series(-2, 4)
    assert lam.coeffs == (1, -2, 3, -4, 5)


def test_lambda_nth_operations():
    # coefficient n of lambda_t(5) is C(5, n); of sigma_t(3), C(3 + n - 1, n)
    assert BINOMIAL_Z.lambda_series(5, 2).coeffs == (1, 5, 10)
    assert BINOMIAL_Z.sigma_series(3, 2).coeffs[2] == 6


def test_binomial_rejects_foreign_values():
    with pytest.raises(RingMismatch):
        BINOMIAL_Z.sigma_series("x", 3)


def test_plethystic_on_integers_matches_binomial():
    for m in (-2, 0, 1, 3):
        lhs = PLETHYSTIC_ZU.sigma_series(ZU.from_int(m), 6)
        rhs = BINOMIAL_Z.sigma_series(m, 6)
        assert list(lhs.coeffs) == [ZU.from_int(c) for c in rhs.coeffs]


def test_plethystic_single_power_of_u():
    u2 = ZU.monomial((2,))
    s = PLETHYSTIC_ZU.sigma_series(u2, 3)
    # sigma_t(u^2) = 1/(1 - u^2 t)
    assert s.coeffs == (ZU.one, u2, ZU.monomial((4,)), ZU.monomial((6,)))


def test_plethystic_teichmuller_law():
    u = ZU.variable("u")
    u2 = ZU.mul(u, u)
    u3 = ZU.mul(u2, u)
    from wittzeta.witt import witt_mul

    lhs = witt_mul(
        PLETHYSTIC_ZU.sigma_series(u, 8),
        PLETHYSTIC_ZU.sigma_series(u2, 8),
    )
    assert lhs.coeffs == PLETHYSTIC_ZU.sigma_series(u3, 8).coeffs


def test_lambda_is_involution_of_sigma():
    rng = random.Random(11)
    for _ in range(10):
        m = rng.randint(-5, 5)
        lam = BINOMIAL_Z.lambda_series(m, 8)
        sig = BINOMIAL_Z.sigma_series(m, 8)
        assert lambda_involution(sig).coeffs == lam.coeffs


def test_lambda_additivity_random():
    rng = random.Random(12)
    for _ in range(20):
        a, b = rng.randint(-6, 6), rng.randint(-6, 6)
        assert check_lambda_additivity(BINOMIAL_Z, a, b, 8).holds
    for _ in range(10):
        f = ZU.from_terms({(d,): rng.randint(-2, 2) for d in range(3)})
        g = ZU.from_terms({(d,): rng.randint(-2, 2) for d in range(3)})
        assert check_lambda_additivity(PLETHYSTIC_ZU, f, g, 8).holds


def test_sigma_ring_hom_random():
    rng = random.Random(13)
    for _ in range(10):
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        assert check_sigma_ring_hom(BINOMIAL_Z, a, b, 8).holds
    for _ in range(5):
        f = ZU.from_terms({(d,): rng.randint(-2, 2) for d in range(3)})
        g = ZU.from_terms({(d,): rng.randint(-2, 2) for d in range(3)})
        assert check_sigma_ring_hom(PLETHYSTIC_ZU, f, g, 8).holds


def test_sigma_of_one_is_witt_unit():
    assert BINOMIAL_Z.sigma_series(1, 5).coeffs == witt_unit(ZZ, 5).coeffs
    lhs = PLETHYSTIC_ZU.sigma_series(ZU.one, 5)
    assert lhs.coeffs == (ZU.one,) * 6
