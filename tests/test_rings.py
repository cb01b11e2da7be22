from fractions import Fraction

import pytest

from wittzeta.errors import NonIntegral
from wittzeta.finitefield import GF, make_field
from wittzeta.polynomials import Poly1Ring
from wittzeta.rational import RatFuncRing
from wittzeta.rings import (
    QQ,
    ZZ,
    IntegerRing,
    MPolyRing,
    RationalRing,
    binary_power,
    poly_ring,
    scaled_term,
    signed_sum,
)


def test_integer_ring_basics():
    assert ZZ.zero == 0 and ZZ.one == 1
    assert ZZ.add(2, 3) == 5
    assert ZZ.sub(2, 3) == -1
    assert ZZ.mul(-4, 6) == -24
    assert ZZ.power(3, 4) == 81
    assert ZZ.power(5, 0) == 1
    assert ZZ.mul_int(7, -2) == -14
    assert ZZ.from_int(-9) == -9
    assert ZZ.render(-3) == "-3"
    assert ZZ.torsion_free


def test_binary_power_product_count():
    # bit_length(n) - 1 squares and popcount(n) - 1 multiplies: no product
    # with the unit and no square after the top bit
    for n in range(41):
        operands = []

        def mul(a, b):
            operands.extend((a, b))
            return a * b

        assert binary_power(mul, 1, 3, n) == 3**n
        products = len(operands) // 2
        assert products == (n.bit_length() + bin(n).count("1") - 2 if n else 0)
        assert 1 not in operands
    with pytest.raises(ValueError):
        binary_power(lambda a, b: a * b, 1, 3, -1)


def test_power_matches_repeated_multiplication():
    R = poly_ring(("u",))
    F = make_field(3, 2)
    for ring, a in [
        (ZZ, -3),
        (QQ, Fraction(-2, 3)),
        (R, R.add(R.variable("u"), R.from_int(-2))),
        (F, 5),
    ]:
        want = ring.one
        for n in range(21):
            assert ring.power(a, n) == want
            want = ring.mul(want, a)
        with pytest.raises(ValueError):
            ring.power(a, -1)


def test_integer_inverse_and_division():
    assert ZZ.try_inverse(1) == 1
    assert ZZ.try_inverse(-1) == -1
    assert ZZ.try_inverse(2) is None
    assert ZZ.exact_div(12, 4) == 3
    with pytest.raises(NonIntegral):
        ZZ.exact_div(7, 2)


def test_rational_ring_is_a_field():
    half = Fraction(1, 2)
    assert QQ.add(half, half) == 1
    assert QQ.try_inverse(Fraction(3, 4)) == Fraction(4, 3)
    assert QQ.try_inverse(QQ.zero) is None
    assert QQ.exact_div(Fraction(1), Fraction(3)) == Fraction(1, 3)
    assert QQ.render(Fraction(-3, 7)) == "-3/7"
    assert QQ.render(Fraction(4, 2)) == "2"


def test_poly_ring_interning():
    assert poly_ring(("u",)) is poly_ring(("u",))
    assert poly_ring(("u",)) is not poly_ring(("v",))


def test_poly_arithmetic():
    R = poly_ring(("u",))
    u = R.variable("u")
    two = R.from_int(2)
    p = R.add(R.mul(u, u), two)  # u^2 + 2
    q = R.sub(p, two)
    assert q == R.mul(u, u)
    assert R.render(p) == "2 + u^2"
    assert R.render(R.neg(p)) == "-2 - u^2"
    assert R.power(u, 3) == R.monomial((3,))
    assert R.is_zero(R.sub(p, p))


def test_poly_render_graded_order():
    R = poly_ring(("x", "y"))
    x, y = R.variable("x"), R.variable("y")
    p = R.add(R.add(R.mul(x, y), R.power(x, 3)), R.one)
    assert R.render(p) == "1 + x*y + x^3"
    # same total degree orders by the earlier variable's exponent first
    q = R.add(R.mul(x, x), R.mul(y, y))
    assert R.render(q) == "x^2 + y^2"


def test_poly_from_terms_drops_zeros():
    R = poly_ring(("u",))
    p = R.from_terms({(2,): 0, (1,): 3})
    assert p == R.from_terms({(1,): 3})
    assert R.from_terms({}) == R.zero


def test_poly_degrees_and_coefficients():
    R = poly_ring(("x", "y"))
    x, y = R.variable("x"), R.variable("y")
    p = R.add(R.mul(R.mul(x, x), y), R.mul(R.from_int(3), y))  # x^2 y + 3y
    assert R.total_degree(p) == 3
    assert R.total_degree(R.from_int(4)) == 0
    assert R.total_degree(R.zero) == -1
    # terms are (exponents, coefficient) pairs in sorted exponent order
    assert p == (((0, 1), 3), ((2, 1), 1))
    assert R.from_int(4) == (((0, 0), 4),)


def test_poly_exact_div():
    R = poly_ring(("u",))
    u = R.variable("u")
    p = R.sub(R.mul(u, u), R.one)  # u^2 - 1
    d = R.sub(u, R.one)
    q = R.exact_div(p, d)
    assert q == R.add(u, R.one)
    with pytest.raises(NonIntegral):
        R.exact_div(u, R.from_int(2))


def test_poly_inverse_only_for_units():
    R = poly_ring(("u",))
    assert R.try_inverse(R.one) == R.one
    assert R.try_inverse(R.from_int(-1)) == R.from_int(-1)
    assert R.try_inverse(R.from_int(2)) is None
    assert R.try_inverse(R.variable("u")) is None


def test_signed_sum_and_scaled_term():
    assert signed_sum([]) == "0"
    assert signed_sum(["-a"]) == "-a"
    assert signed_sum(["1", "-2*t", "t^2"]) == "1 - 2*t + t^2"
    assert scaled_term("-3", "") == "-3"
    assert scaled_term("1", "t") == "t"
    assert scaled_term("-1", "t") == "-t"
    assert scaled_term("-1/2", "t") == "-1/2*t"
    assert scaled_term("1 - u", "t^2") == "(1 - u)*t^2"


def test_poly_dense_coefficients():
    R = poly_ring(("u",))
    assert R.dense(R.zero) == []
    assert R.dense(R.from_terms({(3,): -2, (0,): 5})) == [5, 0, 0, -2]


def _rings():
    return {
        "ZZ": ZZ,
        "QQ": QQ,
        "ZZ[u]": poly_ring(("u",)),
        "ZZ[t]": Poly1Ring(ZZ, "t"),
        "QQ(u)": RatFuncRing("u"),
        "GF(3)": make_field(3, 1),
        "GF(9)": make_field(3, 2),
        "GF(9) other modulus": GF(3, 2, (2, 1, 1)),
    }


@pytest.mark.parametrize("label", list(_rings()))
def test_exact_div_by_zero_raises_nonintegral(label):
    ring = _rings()[label]
    with pytest.raises(NonIntegral):
        ring.exact_div(ring.one, ring.zero)
    with pytest.raises(NonIntegral):
        ring.exact_div(ring.zero, ring.zero)


def test_rational_function_with_zero_denominator_is_nonintegral():
    with pytest.raises(NonIntegral):
        RatFuncRing("u").make((Fraction(1),), ())
    with pytest.raises(NonIntegral):
        RatFuncRing("u").make((), (Fraction(0),))


def test_ring_identity_is_class_and_name():
    twins = [  # a second, separately built ring of the same class and name
        (ZZ, IntegerRing()),
        (QQ, RationalRing()),
        (poly_ring(("u",)), MPolyRing(("u",))),
        (Poly1Ring(ZZ, "t"), Poly1Ring(ZZ, "t")),
        (Poly1Ring(make_field(3, 2), "x"), Poly1Ring(make_field(3, 2), "x")),
        (RatFuncRing("u"), RatFuncRing("u")),
        (make_field(3, 2), GF(3, 2, (1, 0, 1))),
    ]
    for a, b in twins:
        assert a is not b
        assert a == b and b == a and hash(a) == hash(b)
    rings = [b for _, b in twins] + [
        poly_ring(("v",)),
        Poly1Ring(ZZ, "u"),
        Poly1Ring(QQ, "t"),
        RatFuncRing("v"),
        make_field(3, 1),
        make_field(5, 1),
        GF(3, 2, (2, 1, 1)),
        Poly1Ring(GF(3, 2, (2, 1, 1)), "x"),
    ]
    for a in rings:
        assert repr(a) == a.name
        for b in rings:
            same = type(a) is type(b) and a.name == b.name
            assert (a == b) is same and (a != b) is not same
            if same:
                assert hash(a) == hash(b)
    # a ring never equals a non-ring that prints like it
    assert ZZ != "ZZ" and QQ != 0


def test_a_field_is_named_by_its_size_and_modulus():
    # two moduli of F_9 are two models of it, and so two rings, also as
    # the base of a polynomial ring
    a, b = GF(3, 2, (1, 0, 1)), GF(3, 2, (2, 1, 1))
    assert a.mul(3, 3) != b.mul(3, 3)
    assert a != b and a.name != b.name
    assert Poly1Ring(a, "x") != Poly1Ring(b, "x")
    assert Poly1Ring(a, "x") == Poly1Ring(make_field(3, 2), "x")
    assert hash(Poly1Ring(a, "x")) == hash(Poly1Ring(make_field(3, 2), "x"))
    assert a.name == "GF(9, 1 + x^2)"
    # the name of a prime field is its size alone
    assert make_field(5, 1).name == "GF(5)"
    assert GF(5, 1, (3, 1)) == make_field(5, 1)
