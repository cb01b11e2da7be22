import random
from fractions import Fraction

import pytest

from wittzeta.errors import NonIntegral
from wittzeta.finitefield import make_field
from wittzeta.polynomials import Poly1Ring, determinant, resultant
from wittzeta.rings import QQ, ZZ, poly_ring

Zt = Poly1Ring(ZZ, "t")
Qt = Poly1Ring(QQ, "t")


def test_construction_strips_trailing_zeros():
    assert Zt.trim((1, 2, 0, 0)) == (1, 2)
    assert Zt.trim((0, 0)) == Zt.zero


def test_arithmetic():
    p = Zt.trim((1, 1))       # 1 + t
    q = Zt.trim((1, -1))      # 1 - t
    assert Zt.add(p, q) == (2,)
    assert Zt.mul(p, q) == (1, 0, -1)
    assert Zt.sub(p, p) == Zt.zero
    assert Zt.neg(p) == (-1, -1)
    assert Zt.scale(3, p) == (3, 3)
    assert Zt.from_int(4) == (4,)


def test_exact_div():
    num = Zt.mul((1, 2), (3, 0, 1))
    assert Zt.exact_div(num, (1, 2)) == (3, 0, 1)
    with pytest.raises(NonIntegral):
        Zt.exact_div((1, 1), (2,))
    assert Zt.exact_div((), (1, 2)) == ()
    # a nonzero remainder below the divisor's degree, and a dividend of
    # lower degree than the divisor
    with pytest.raises(NonIntegral):
        Zt.exact_div((1, 3, 1), (1, 1))
    with pytest.raises(NonIntegral):
        Zt.exact_div((2, 1), (1, 2, 1))
    with pytest.raises(NonIntegral):
        Zt.exact_div((1, 1), ())


def test_divmod_monic():
    # t^3 + 2t + 1 = (t - 1)(t^2 + t + 3) + 4
    quo, rem = Zt.divmod((1, 2, 0, 1), (-1, 1))
    assert quo == (3, 1, 1)
    assert rem == (4,)


def test_divmod_reconstructs_the_dividend():
    rng = random.Random(7)
    F5 = make_field(5, 1)
    for ring, draw in [
        (Qt, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))),
        (Poly1Ring(F5, "x"), lambda: rng.randrange(5)),
    ]:
        for _ in range(40):
            a = ring.trim(draw() for _ in range(rng.randint(0, 7)))
            b = ring.trim(draw() for _ in range(rng.randint(1, 4)))
            if not b:
                continue
            quo, rem = ring.divmod(a, b)
            assert ring.add(ring.mul(quo, b), rem) == a
            assert len(rem) < len(b)
            if not rem:
                assert ring.exact_div(a, b) == quo


def test_division_errors():
    with pytest.raises(NonIntegral, match="^division by the zero polynomial$"):
        Qt.divmod((Fraction(1),), ())
    with pytest.raises(NonIntegral, match="^division by the zero polynomial$"):
        Zt.exact_div((1,), ())
    with pytest.raises(NonIntegral, match="^leading coefficient is not invertible$"):
        Zt.divmod((1, 0, 1), (1, 2))
    with pytest.raises(NonIntegral, match="^inexact polynomial division$"):
        Zt.exact_div((1, 0, 1), (1, 1))
    with pytest.raises(NonIntegral, match="^3 is not divisible by 2$"):
        Zt.exact_div((0, 3), (0, 2))


def test_gcd_over_field():
    a = Qt.trim((Fraction(-1), Fraction(0), Fraction(1)))   # t^2 - 1
    b = Qt.trim((Fraction(1), Fraction(-2), Fraction(1)))   # (t - 1)^2
    g = Qt.gcd(a, b)
    assert g == (Fraction(-1), Fraction(1))  # monic t - 1
    assert Qt.gcd(a, Qt.zero) == a  # already monic


def test_render():
    assert Zt.render((1, -2, 0, 3)) == "1 - 2*t + 3*t^3"
    assert Zt.render(Zt.zero) == "0"
    assert Zt.render((0, 0)) == "0"
    assert Zt.render((0, 1)) == "t"
    assert Zt.render((0, -1)) == "-t"
    assert Zt.render((-1, 0, 1)) == "-1 + t^2"
    coeffs = (Fraction(-1, 2), Fraction(1, 3), Fraction(-1), Fraction(-3, 4))
    assert Qt.render(coeffs) == "-1/2 + 1/3*t - t^2 - 3/4*t^3"
    R = poly_ring(("u",))
    u = R.variable("u")
    Rt = Poly1Ring(R, "t")
    a = (R.from_int(-1), R.add(u, R.one), R.neg(u), R.mul_int(u, -5), R.one)
    assert Rt.render(a) == "-1 + (1 + u)*t - u*t^2 - 5*u*t^3 + t^4"
    assert Rt.render((R.zero, R.sub(R.zero, R.add(R.one, u)))) == "(-1 - u)*t"


def test_determinant_exact():
    assert determinant(ZZ, [[1, -2], [-3, 1]]) == -5
    assert determinant(ZZ, [[2, 0, 1], [1, 3, 2], [0, 1, 1]]) == 3
    assert determinant(ZZ, [[1, 2], [2, 4]]) == 0
    # zero pivot forces a row swap and a sign flip
    assert determinant(ZZ, [[0, 1], [1, 0]]) == -1
    assert determinant(ZZ, []) == 1


def test_resultant_known_values():
    # monic f = (x-1)(x-2): res(f, g) = g(1) * g(2)
    f = (2, -3, 1)
    g = (1, 0, 1)
    assert resultant(ZZ, f, g, 2, 2) == 10
    assert resultant(ZZ, (-2, 1), (1, -3), 1, 1) == -5


def test_resultant_antisymmetry_sign():
    import random

    rng = random.Random(5)
    for _ in range(20):
        df = rng.randint(1, 3)
        dg = rng.randint(1, 3)
        f = tuple(rng.randint(-4, 4) for _ in range(df)) + (rng.randint(1, 3),)
        g = tuple(rng.randint(-4, 4) for _ in range(dg)) + (rng.randint(1, 3),)
        lhs = resultant(ZZ, f, g, df, dg)
        rhs = resultant(ZZ, g, f, dg, df)
        assert lhs == (-1) ** (df * dg) * rhs


def test_resultant_degree_zero():
    assert resultant(ZZ, (2, -3, 1), (3,), 2, 0) == 9
    assert resultant(ZZ, (3,), (2, -3, 1), 0, 2) == 9


def test_resultant_product_formula():
    import random

    rng = random.Random(11)
    for _ in range(10):
        roots = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        f = (1,)
        for r in roots:
            f = Zt.mul(f, (-r, 1))
        g = tuple(rng.randint(-3, 3) for _ in range(3)) + (rng.randint(1, 2),)
        expected = 1
        for r in roots:
            expected *= sum(c * r**i for i, c in enumerate(g))
        assert resultant(ZZ, f, g, len(roots), 3) == expected
