import random
from fractions import Fraction

import pytest

from wittzeta.errors import BudgetExceeded, PrecisionTooLow
from wittzeta.finitefield import make_field
from wittzeta.polynomials import Poly1Ring, resultant
from wittzeta.rational import (
    RatFuncRing,
    RatWitt,
    _assemble,
    _primitive_gcd,
    fraction_field,
    rat_add,
    rat_equal,
    rat_expand,
    rat_make,
    rat_mul,
    rat_neg,
    rat_star,
    rat_zero,
    rationalize,
)
from wittzeta.rings import QQ, ZZ, poly_ring
from wittzeta.series import TruncSeries
from wittzeta.witt import ghost, teichmuller, witt_mul, witt_unit
from wittzeta.zeta import weil_zeta
from wittzeta.varieties import projective_space


def test_ratwitt_requires_unit_constant_terms():
    with pytest.raises(ValueError):
        RatWitt(ZZ, (2,), (1,))
    with pytest.raises(ValueError):
        RatWitt(ZZ, (1,), (0, 1))
    # t/t has a common factor with no constant term to normalize by
    with pytest.raises(ValueError):
        rat_make(ZZ, (0, 1), (0, 1))
    with pytest.raises(ValueError):
        rat_make(QQ, (), (1,))


def _star_by_resultant(ring, p, q):
    """r(t) = Res_x(x^deg p * p(1/x), q(t*x)), the Sylvester construction."""
    rt = Poly1Ring(ring, "t")
    dp, dq = len(p) - 1, len(q) - 1
    if dp < 1 or dq < 1:
        return (ring.one,)
    a = tuple(rt.constant(c) for c in reversed(p))
    b = tuple(rt.monomial(j, c) for j, c in enumerate(q))
    return resultant(rt, a, b, dp, dq)


def _reduce_by_euclid(num, den):
    """Lowest terms by Euclid over Fraction coefficients, constant terms 1."""
    qt = Poly1Ring(QQ, "t")
    num, den = tuple(map(Fraction, num)), tuple(map(Fraction, den))
    g = qt.gcd(num, den)
    g = qt.scale(1 / g[0], g)
    return qt.divmod(num, g)[0], qt.divmod(den, g)[0]


def _rat_mul_by_resultants(f, g):
    qt = Poly1Ring(QQ, "t")
    a, b, c, d = f.num, f.den, g.num, g.den
    num = qt.mul(_star_by_resultant(ZZ, a, d), _star_by_resultant(ZZ, b, c))
    den = qt.mul(_star_by_resultant(ZZ, a, c), _star_by_resultant(ZZ, b, d))
    return _reduce_by_euclid(num, den)


def _random_poly(rng, degree, frac=False):
    coeffs = [rng.randint(-4, 4) for _ in range(degree)]
    if coeffs:
        coeffs[-1] = coeffs[-1] or 1
    if frac:
        coeffs = [Fraction(c, rng.randint(1, 6)) for c in coeffs]
    return (1,) + tuple(coeffs)


def test_render():
    f = rat_make(ZZ, (1, -1), (1, -2))
    assert f.render() == "(1 - t)/(1 - 2*t)"
    assert rat_zero(ZZ).render() == "(1)/(1)"
    assert rat_make(ZZ, (1,), (1, -1)).render() == "(1)/(1 - t)"
    assert f.render_json() == {"num": ["1", "-1"], "den": ["1", "-2"]}


def test_make_reduces_common_factors():
    # (1-t)(1-2t) / (1-t) reduces to (1-2t)/1
    f = rat_make(ZZ, (1, -3, 2), (1, -1))
    assert f.num == (1, -2)
    assert f.den == (1,)


def test_make_cancels_a_factor_with_constant_term_minus_one():
    zt = Poly1Ring(ZZ, "t")
    c = (-1, 3, 2)
    f = rat_make(ZZ, zt.mul(c, (-1, 1, 4)), zt.mul(c, (-1, 2)))
    assert (f.num, f.den) == ((1, -1, -4), (1, -2))
    assert all(type(x) is int for x in f.num + f.den)


def test_primitive_gcd_strips_content():
    zt = Poly1Ring(ZZ, "t")
    common = (3, -1, 2)
    a = zt.scale(6, zt.mul(common, (1, 4)))
    b = zt.scale(-10, zt.mul(common, (2, 0, 1)))
    g = _primitive_gcd(list(a), list(b))
    assert tuple(g) in (common, zt.neg(common))
    assert _primitive_gcd([4, 6], [8]) in ([1], [-1])


def test_make_over_rationals_with_non_primitive_clearing():
    # cleared by 4, the numerator 4 + 8t has content 4
    qt = Poly1Ring(QQ, "t")
    c = (Fraction(1), Fraction(1, 2))
    num = qt.mul(c, (Fraction(1), Fraction(2)))
    den = qt.mul(c, (Fraction(1), Fraction(-1, 4)))
    f = rat_make(QQ, num, den)
    assert (f.num, f.den) == ((1, 2), (1, Fraction(-1, 4)))
    assert all(type(x) is Fraction for x in f.num + f.den)


def test_make_over_rationals_matches_fraction_euclid():
    rng = random.Random(12)
    qt = Poly1Ring(QQ, "t")
    nontrivial = 0
    for _ in range(60):
        common = _random_poly(rng, rng.randint(0, 3), frac=True)
        num = qt.mul(common, _random_poly(rng, rng.randint(0, 4), frac=True))
        den = qt.mul(common, _random_poly(rng, rng.randint(0, 4), frac=True))
        f = rat_make(QQ, num, den)
        expected = _reduce_by_euclid(num, den)
        assert (f.num, f.den) == expected
        assert all(type(x) is Fraction for x in f.num + f.den)
        nontrivial += len(f.num) + len(f.den) < len(num) + len(den)
    assert nontrivial > 30


def test_expand_and_equal():
    f = rat_make(ZZ, (1,), (1, -1))
    assert rat_expand(f, 4).coeffs == (1, 1, 1, 1, 1)
    g = rat_make(ZZ, (1, 1), (1, 0, -1))  # (1+t)/((1+t)(1-t))
    assert rat_equal(f, g)
    assert not rat_equal(f, rat_zero(ZZ))


def test_expand_is_num_over_den_by_series_inversion():
    # the recurrence of den against num times the series inverse of den,
    # over ZZ, over QQ, and over QQ(u), with zero steps in den
    rng = random.Random(8)
    field = RatFuncRing("u")
    rings = {
        ZZ: lambda: rng.randint(-4, 4),
        QQ: lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        field: lambda: field.make(
            (Fraction(rng.randint(-2, 2)), Fraction(1)), (Fraction(1), Fraction(1))
        ),
    }
    for ring, draw in rings.items():
        for _ in range(20):
            num = (ring.one,) + tuple(draw() for _ in range(rng.randint(0, 4)))
            den = (ring.one,) + tuple(draw() for _ in range(rng.randint(0, 5)))
            f = RatWitt(ring, num, den)
            n = rng.randint(0, 9)
            want = TruncSeries.make(ring, num, n).mul(
                TruncSeries.make(ring, den, n).invert()
            )
            assert rat_expand(f, n) == want


def test_group_operations():
    f = rat_make(ZZ, (1, -2), (1,))
    g = rat_make(ZZ, (1,), (1, -3))
    s = rat_add(f, g)
    assert rat_expand(s, 6).coeffs == (
        rat_expand(f, 6).mul(rat_expand(g, 6)).coeffs
    )
    assert rat_equal(rat_add(f, rat_neg(f)), rat_zero(ZZ))
    assert rat_equal(rat_add(s, rat_neg(g)), f)


def test_star_on_linear_factors():
    # (1-2t) * (1-3t) in the sense of the Witt product of their classes
    assert rat_star(ZZ, (1, -2), (1, -3)) == (1, -6)
    assert rat_star(ZZ, (1, -2), (1,)) == (1,)
    assert rat_star(ZZ, (1,), (1, -3)) == (1,)


@pytest.mark.parametrize("dp", [1, 2, 3, 4, 5])
def test_star_matches_resultant_over_integers(dp):
    rng = random.Random(100 + dp)
    for dq in range(1, 6):
        p, q = _random_poly(rng, dp), _random_poly(rng, dq)
        r = rat_star(ZZ, p, q)
        assert r == _star_by_resultant(ZZ, p, q)
        assert len(r) == dp * dq + 1


def test_star_matches_resultant_over_polynomial_coefficients():
    R = poly_ring(("u",))
    u = R.variable("u")
    p = (R.one, R.neg(u), R.from_int(2))
    q = (R.one, R.add(u, R.from_int(3)), R.mul(u, u), R.from_int(-1))
    r = rat_star(R, p, q)
    assert r == _star_by_resultant(R, p, q)
    assert len(r) == 7


def test_star_matches_ghost_product():
    # a polynomial with constant term 1 is the Witt negation of a sum of
    # Teichmuller classes, so star(p, q) as a series is the Witt negation
    # (series inverse) of witt_mul of the polynomials
    rng = random.Random(6)
    for _ in range(20):
        p = (1,) + tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
        q = (1,) + tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
        star = rat_star(ZZ, p, q)
        n = 12
        sp = TruncSeries.make(ZZ, p, n)
        sq = TruncSeries.make(ZZ, q, n)
        direct = witt_mul(sp, sq)
        assert TruncSeries.make(ZZ, star, n).invert().coeffs == direct.coeffs


def test_rat_mul_teichmuller_example():
    a = rat_make(ZZ, (1,), (1, -2))
    b = rat_make(ZZ, (1,), (1, -3))
    assert rat_mul(a, b).render() == "(1)/(1 - 6*t)"
    # negatives multiply back into the plus part
    c = rat_make(ZZ, (1, -2), (1,))
    d = rat_make(ZZ, (1, -3), (1,))
    assert rat_mul(c, d).render() == "(1)/(1 - 6*t)"


def test_rat_mul_unit_law():
    # the multiplicative unit (1 - t)^(-1) as a rational Witt vector
    unit = rat_make(ZZ, (1,), (1, -1))
    assert rat_expand(unit, 6) == witt_unit(ZZ, 6)
    rng = random.Random(7)
    for _ in range(10):
        f = rat_make(
            ZZ,
            (1,) + tuple(rng.randint(-3, 3) for _ in range(2)),
            (1,) + tuple(rng.randint(-3, 3) for _ in range(2)),
        )
        assert rat_equal(rat_mul(f, unit), f)
        assert rat_equal(rat_mul(f, rat_zero(ZZ)), rat_zero(ZZ))


def test_rat_mul_matches_witt_mul():
    rng = random.Random(8)
    n = 20
    for _ in range(25):
        f = rat_make(
            ZZ,
            (1,) + tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 3))),
            (1,) + tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 3))),
        )
        g = rat_make(
            ZZ,
            (1,) + tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 3))),
            (1,) + tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 3))),
        )
        lhs = rat_expand(rat_mul(f, g), n)
        rhs = witt_mul(rat_expand(f, n), rat_expand(g, n))
        assert lhs.coeffs == rhs.coeffs


def test_rat_mul_matches_resultant_pipeline():
    rng = random.Random(13)
    for _ in range(20):
        f, g = (
            rat_make(
                ZZ,
                _random_poly(rng, rng.randint(0, 5)),
                _random_poly(rng, rng.randint(0, 5)),
            )
            for _ in range(2)
        )
        prod = rat_mul(f, g)
        assert (prod.num, prod.den) == _rat_mul_by_resultants(f, g)
        assert all(type(x) is int for x in prod.num + prod.den)


def test_rationalize_geometric():
    series = TruncSeries.geometric(ZZ, 1, 8)
    rat = rationalize(series, 2)
    assert rat.num == (1,) and rat.den == (1, -1)


def test_rationalize_fibonacci():
    rat = rationalize(TruncSeries.make(ZZ, (1, 1, 2, 3, 5, 8, 13, 21), 7), 2)
    assert rat.num == (1,) and rat.den == (1, -1, -1)


def test_rationalize_polynomial_numerator():
    rat = rationalize(TruncSeries.make(ZZ, (1, 2, 0, 0, 0, 0, 0), 6), 2)
    assert rat.num == (1, 2) and rat.den == (1,)


def test_rationalize_weil_target():
    series = weil_zeta(projective_space(1), 3, 8).series
    rat = rationalize(series, 2)
    assert rat.num == (1,)
    assert rat.den == (1, -4, 3)
    assert rat.render() == "(1)/(1 - 4*t + 3*t^2)"


def test_rationalize_returns_none_when_nothing_fits():
    rng = random.Random(9)
    coeffs = (1,) + tuple(rng.randint(2, 9) for _ in range(10))
    assert rationalize(TruncSeries.make(ZZ, coeffs, 10), 1) is None


def test_rationalize_requires_headroom():
    with pytest.raises(PrecisionTooLow):
        rationalize(TruncSeries.geometric(ZZ, 1, 8), 4)


def test_rationalize_refuses_an_elimination_past_its_budget():
    # (N - dmax) (dmax + 1)^2 entry updates at most: 997228 at N = 328 and
    # dmax = 60, and one more coefficient is past the budget of 10^6
    ones = TruncSeries.make(ZZ, (1,) * 330, 329)
    assert rationalize(ones.truncate(328), 60) == rat_make(ZZ, (1,), (1, -1))
    with pytest.raises(BudgetExceeded, match="^rationalizing 330 coeff"):
        rationalize(ones, 60)


def test_rationalize_roundtrips_random_fractions():
    rng = random.Random(10)
    n = 16
    for _ in range(15):
        f = rat_make(
            ZZ,
            (1,) + tuple(rng.randint(-2, 2) for _ in range(rng.randint(0, 3))),
            (1,) + tuple(rng.randint(-2, 2) for _ in range(rng.randint(0, 3))),
        )
        back = rationalize(rat_expand(f, n), 3)
        assert back is not None
        assert rat_equal(back, f)


def test_rationalize_over_polynomial_coefficients():
    R = poly_ring(("u",))
    u = R.variable("u")
    series = teichmuller(R, u, 9)
    rat = rationalize(series, 2)
    assert rat is not None
    assert rat.ring is R
    assert rat.num == (R.one,)
    assert rat.den == (R.one, R.neg(u))


def test_rationalize_over_integers_answers_over_rationals():
    rat = rationalize(TruncSeries.make(ZZ, (1, 4, 2, 1), 3), 1)
    assert rat.ring is QQ
    assert rat.num == (1, Fraction(7, 2)) and rat.den == (1, Fraction(-1, 2))
    assert rat.render() == "(1 + 7/2*t)/(1 - 1/2*t)"


def test_rationalize_over_polynomials_answers_over_rational_functions():
    # 1 + u^2*t + u*t^2 + t^3 = (1 + (u^2 - 1/u)*t)/(1 - t/u) to t^3
    R = poly_ring(("u",))
    u = R.variable("u")
    g = TruncSeries.make(R, (R.one, R.mul(u, u), u, R.one), 3)
    rat = rationalize(g, 1)
    K = rat.ring
    assert isinstance(K, RatFuncRing) and K.name == "QQ(u)"
    inv_u = K.try_inverse(K.from_poly((0, 1)))
    assert rat.den == (K.one, K.neg(inv_u))
    assert rat.num == (K.one, K.sub(K.from_poly((0, 0, 1)), inv_u))


def _solve_by_gauss_jordan(field, rows, unknowns):
    """One solution of the system, free unknowns set to 0; None if none."""
    m = [list(r) for r in rows]  # each row: unknowns coefficients + rhs
    pivots = []
    row = 0
    for col in range(unknowns):
        pivot = next(
            (r for r in range(row, len(m)) if not field.is_zero(m[r][col])),
            None,
        )
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = field.try_inverse(m[row][col])
        m[row] = [field.mul(inv, v) for v in m[row]]
        for r in range(len(m)):
            if r != row and not field.is_zero(m[r][col]):
                factor = m[r][col]
                m[r] = [
                    field.sub(v, field.mul(factor, w))
                    for v, w in zip(m[r], m[row])
                ]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    for r in range(row, len(m)):
        if not field.is_zero(m[r][unknowns]):
            return None
    solution = [field.zero] * unknowns
    for r, col in enumerate(pivots):
        solution[col] = m[r][unknowns]
    return solution


def _rationalize_by_degree_search(g, dmax):
    """Oracle: a fresh Gauss-Jordan solve per (dq, dp), smallest dq first."""
    n_max = g.precision
    if 2 * dmax >= n_max:
        raise PrecisionTooLow(
            f"need 2*dmax < precision, got dmax={dmax}, precision={n_max}"
        )
    field, embed, retract = fraction_field(g.ring)
    c = [embed(x) for x in g.coeffs]
    for dq in range(dmax + 1):
        for dp in range(dmax + 1):
            rows = []
            for n in range(dp + 1, n_max + 1):
                row = [
                    c[n - j] if n - j >= 0 else field.zero
                    for j in range(1, dq + 1)
                ]
                row.append(field.neg(c[n]))
                rows.append(row)
            sol = _solve_by_gauss_jordan(field, rows, dq)
            if sol is None:
                continue
            q = [field.one] + sol
            p = []
            for i in range(dp + 1):
                acc = field.zero
                for j in range(0, min(i, dq) + 1):
                    acc = field.add(acc, field.mul(q[j], c[i - j]))
                p.append(acc)
            return _assemble(g.ring, field, retract, p, q)
    return None


def _outcome(rationalizer, g, dmax):
    """(ring, num, den), None, or the (type, message) of the error raised."""
    try:
        rat = rationalizer(g, dmax)
    except (ValueError, PrecisionTooLow) as exc:
        return type(exc), str(exc)
    return None if rat is None else (rat.ring, rat.num, rat.den)


def _ratio_corpus(rng, ring, draw, degrees):
    """Series p/q with deg p, deg q <= D for each D in `degrees`.

    The precision N runs over 2D+1..2D+3.  In about a third of them the last
    coefficient is bumped by one, which leaves most of those with no pair
    within the bound.
    """
    for dmax in degrees:
        num = [ring.one] + [draw() for _ in range(rng.randint(0, dmax))]
        den = [ring.one] + [draw() for _ in range(rng.randint(0, dmax))]
        n = 2 * dmax + rng.randint(1, 3)
        coeffs = list(rat_expand(rat_make(ring, num, den), n).coeffs)
        if rng.random() < 0.35:
            coeffs[-1] = ring.add(coeffs[-1], ring.one)
        yield TruncSeries.make(ring, coeffs, n), dmax


def _assert_matches_degree_search(corpus):
    outcomes = []
    for g, dmax in corpus:
        want = _outcome(_rationalize_by_degree_search, g, dmax)
        assert _outcome(rationalize, g, dmax) == want, (g.coeffs, dmax)
        outcomes.append(want)
    return outcomes


def test_rationalize_matches_degree_search_over_integers():
    rng = random.Random(20)
    # every D in 1..8, weighted towards the cheap small bounds
    counts = {1: 125, 2: 125, 3: 115, 4: 70, 5: 45, 6: 20, 7: 6, 8: 5}
    degrees = [d for d, k in counts.items() for _ in range(k)]
    outcomes = _assert_matches_degree_search(
        _ratio_corpus(rng, ZZ, lambda: rng.randint(-2, 2), degrees)
    )
    assert len(outcomes) >= 500
    missing = outcomes.count(None)
    assert 0.25 * len(outcomes) < missing < 0.45 * len(outcomes)


def test_rationalize_matches_degree_search_over_rationals():
    rng = random.Random(21)

    def draw():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    degrees = [1 + i % 5 for i in range(100)]
    outcomes = _assert_matches_degree_search(_ratio_corpus(rng, QQ, draw, degrees))
    assert None in outcomes
    assert any(o and any(c.denominator > 1 for c in o[1] + o[2]) for o in outcomes)


def test_rationalize_matches_degree_search_over_polynomial_coefficients():
    rng = random.Random(22)
    R = poly_ring(("u",))

    def draw():
        return R.from_terms({(e,): rng.randint(-1, 1) for e in range(2)})

    degrees = [1 + i % 3 for i in range(54)]
    outcomes = _assert_matches_degree_search(_ratio_corpus(rng, R, draw, degrees))
    assert None in outcomes
    assert any(o and o[0] is R for o in outcomes)


@pytest.mark.parametrize(
    "coeffs, dmax",
    [
        ((2, 4, 8, 16), 1),  # constant term 2
        ((0, 0, 0, 0, 0), 2),  # the zero series
        ((1, 2, 3, 4), 2),  # 2*dmax >= precision
        ((1, 1), 1),
    ],
)
def test_rationalize_errors_match_degree_search(coeffs, dmax):
    g = TruncSeries.make(ZZ, coeffs, len(coeffs) - 1)
    got = _outcome(rationalize, g, dmax)
    assert got == _outcome(_rationalize_by_degree_search, g, dmax)
    assert isinstance(got, tuple) and got[0] in (ValueError, PrecisionTooLow)


def test_ratfunc_ring_field_ops():
    K = RatFuncRing("u")
    u_over_1 = K.from_poly((Fraction(0), Fraction(1)))
    inv = K.try_inverse(u_over_1)
    assert inv is not None
    assert K.mul(u_over_1, inv) == K.one
    assert K.try_inverse(K.zero) is None
    s = K.add(u_over_1, K.one)
    assert K.render(s) == "1 + u"
    assert K.render(K.try_inverse(s)) == "(1)/(1 + u)"
    assert K.sub(s, u_over_1) == K.one


def test_fraction_field_dispatch():
    field, embed, retract = fraction_field(ZZ)
    assert field is QQ
    assert embed(5) == Fraction(5)
    assert retract(embed(5)) == 5
    assert retract(Fraction(10, 2)) == 5
    assert retract(Fraction(1, 2)) is None
    R = poly_ring(("u",))
    field, embed, retract = fraction_field(R)
    assert isinstance(field, RatFuncRing)
    u = R.variable("u")
    assert retract(embed(u)) == u
    img = embed(R.mul_int(u, 3))
    assert retract(field.exact_div(img, field.from_int(6))) is None  # u/2
    assert retract(field.exact_div(img, field.from_int(3))) == u
    assert retract(field.try_inverse(embed(u))) is None  # 1/u
    with pytest.raises(ValueError):
        fraction_field(make_field(3, 1))
