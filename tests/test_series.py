import random
from fractions import Fraction

import pytest

from wittzeta.errors import (
    NonUnitConstantTerm,
    PrecisionMismatch,
    RingMismatch,
)
from wittzeta.rings import QQ, ZZ, poly_ring
from wittzeta.series import TruncSeries


def S(*coeffs, prec=None):
    prec = len(coeffs) - 1 if prec is None else prec
    return TruncSeries.make(ZZ, coeffs, prec)


def test_precision_counts_stored_terms_minus_one():
    s = S(1, 2, 3)
    assert s.precision == 2
    assert s.coeffs == (1, 2, 3)
    assert TruncSeries.make(ZZ, (1,), 4).coeffs == (1, 0, 0, 0, 0)


def test_constructors():
    assert TruncSeries.one(ZZ, 3).coeffs == (1, 0, 0, 0)
    assert TruncSeries.constant(ZZ, 7, 2).coeffs == (7, 0, 0)
    assert TruncSeries.geometric(ZZ, 3, 4).coeffs == (1, 3, 9, 27, 81)


def test_coefficient_access():
    s = S(1, 5, 7)
    assert s.coefficient(0) == 1
    assert s.coefficient(2) == 7
    # past the stored window the tail reads as zero
    assert s.coefficient(3) == 0


def test_add_sub_mul():
    a = S(1, 2, 3)
    b = S(1, -1, 1)
    assert a.add(b).coeffs == (2, 1, 4)
    assert a.sub(a).coeffs == (0, 0, 0)
    assert a.neg().coeffs == (-1, -2, -3)
    # (1+t)(1-t) = 1 - t^2
    assert S(1, 1, 0).mul(S(1, -1, 0)).coeffs == (1, 0, -1)


def test_mul_truncates():
    a = S(1, 1)  # precision 1
    assert a.mul(a).coeffs == (1, 2)


def test_invert():
    s = S(1, 2, 1)
    inv = s.invert()
    assert inv.coeffs == (1, -2, 3)
    assert s.mul(inv).coeffs == (1, 0, 0)
    assert S(1, -1, 0, 0).invert().coeffs == (1, 1, 1, 1)


def test_invert_steps_over_sparse_terms_with_any_unit_constant():
    # 1/((1 - t)(1 - 2t)(1 - 3t)) = sum h_n(1, 2, 3) t^n
    s = TruncSeries.make(ZZ, (1, -6, 11, -6), 400)
    want = tuple((3 ** (n + 2) - 2 ** (n + 3) + 1) // 2 for n in range(401))
    assert s.invert().coeffs == want
    rng = random.Random(5)
    for ring, unit in ((ZZ, -1), (QQ, Fraction(2, 3)), (QQ, Fraction(1))):
        for _ in range(20):
            draws = (rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(12))
            s = TruncSeries.make(ring, [unit, *map(ring.from_int, draws)], 12)
            assert s.mul(s.invert()) == TruncSeries.one(ring, 12)


def test_invert_requires_unit_constant_term():
    with pytest.raises(NonUnitConstantTerm):
        S(2, 1).invert()
    with pytest.raises(NonUnitConstantTerm):
        S(0, 1).invert()


def test_invert_over_rationals():
    s = TruncSeries.make(QQ, (Fraction(1), Fraction(1, 2)), 2)
    assert s.invert().coeffs == (
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 4),
    )


def test_pow_int():
    s = S(1, 1, 0, 0)
    assert s.pow_int(3).coeffs == (1, 3, 3, 1)
    assert s.pow_int(0).coeffs == (1, 0, 0, 0)
    assert s.pow_int(-2).coeffs == (1, -2, 3, -4)


def test_pow_int_matches_repeated_multiplication(monkeypatch):
    R = poly_ring(("u",))
    u = R.variable("u")
    for s in [S(1, -2, 3, 0, 5, -1), TruncSeries.make(R, [R.one, u, R.neg(u)], 4)]:
        one = TruncSeries.one(s.ring, s.precision)
        inverse = s.invert()
        for n in range(-5, 9):
            want = one
            for _ in range(abs(n)):
                want = want.mul(s if n > 0 else inverse)
            assert s.pow_int(n) == want
    # square-and-multiply: no product with the unit, no square after the
    # top bit of the exponent
    calls = []
    mul = TruncSeries.mul
    monkeypatch.setattr(
        TruncSeries, "mul", lambda a, b: calls.append(1) or mul(a, b)
    )
    s = S(1, 1, 0, 0)
    for n, products in [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (-3, 2)]:
        calls.clear()
        s.pow_int(n)
        assert len(calls) == products, n


def test_scale_argument():
    s = S(1, 1, 1, 1)
    assert s.scale_argument(2).coeffs == (1, 2, 4, 8)


def test_truncate():
    s = S(1, 2, 3, 4)
    assert s.truncate(1).coeffs == (1, 2)
    assert s.truncate(3) is s
    assert s.truncate(5).coeffs == (1, 2, 3, 4, 0, 0)


def test_mismatch_errors():
    with pytest.raises(PrecisionMismatch):
        S(1, 1).add(S(1, 1, 1))
    qs = TruncSeries.make(QQ, (Fraction(1), Fraction(1)), 1)
    with pytest.raises(RingMismatch):
        S(1, 1).add(qs)


def test_render():
    assert S(1, 3, 9).render() == "1 + 3*t + 9*t^2 + O(t^3)"
    assert S(1, 0, -2).render() == "1 - 2*t^2 + O(t^3)"
    assert S(0, 0, 0).render() == "0 + O(t^3)"
    assert S(1, -1).render() == "1 - t + O(t^2)"
    coeffs = (Fraction(-1, 2), Fraction(1, 3), Fraction(-1), Fraction(-3, 4))
    s = TruncSeries.make(QQ, coeffs, 4)
    assert s.render() == "-1/2 + 1/3*t - t^2 - 3/4*t^3 + O(t^5)"
    s = TruncSeries.make(QQ, (Fraction(0), Fraction(-1, 2)), 2)
    assert s.render() == "-1/2*t + O(t^3)"


def test_render_polynomial_coefficients_are_parenthesized():
    R = poly_ring(("u",))
    u = R.variable("u")
    s = TruncSeries.make(R, (R.one, R.add(R.one, u)), 1)
    assert s.render() == "1 + (1 + u)*t + O(t^2)"
    s = TruncSeries.make(
        R,
        (R.one, R.from_int(-3), R.sub(u, R.from_int(2)), R.neg(u),
         R.from_int(-1), R.mul_int(R.mul(u, u), -2)),
        6,
    )
    assert s.render() == (
        "1 - 3*t + (-2 + u)*t^2 - u*t^3 - t^4 - 2*u^2*t^5 + O(t^7)"
    )
    lead = TruncSeries.make(R, (R.zero, R.sub(R.zero, R.add(R.one, u))), 1)
    assert lead.render() == "(-1 - u)*t + O(t^2)"


def test_render_json_uses_decimal_strings():
    s = S(1, 2, 3)
    assert s.render_json() == {"precision": 2, "coeffs": ["1", "2", "3"]}
