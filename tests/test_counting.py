"""Point counting: closed forms, brute-force cross-checks, censuses."""

import concurrent.futures
import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest
from reffield import RefField

from wittzeta import cli, counting
from wittzeta import (
    ZZ,
    BudgetExceeded,
    CensusInconsistent,
    GF,
    NotPrime,
    TruncSeries,
    affine_space,
    affine_variety,
    closed_point_census,
    count_points,
    elliptic_f5,
    field_params_from_q,
    make_field,
    moebius,
    multiplicative_group,
    point,
    point_counts,
    projective_space,
    projective_variety,
    resolve_field,
    sym_product_counts,
    variety_product,
)
from wittzeta.errors import DegreeZero
from wittzeta.finitefield import factorize, is_prime
from wittzeta.varieties import CATALOG

# brute-force reference: evaluate every equation at every point with the
# test-local arithmetic of reffield, which shares no code with GF


def brute_count(v, q):
    """Points of v over F_q, one representative per projective point."""
    p, k = field_params_from_q(q)
    ref = RefField(p, make_field(p, k).modulus)

    def value(eq, pt):
        total = 0
        for exps, coeff in eq:
            term = coeff % p
            for x, e in zip(pt, exps):
                term = ref.mul(term, ref.power(x, e))
            total = ref.add(total, term)
        return total

    count = 1
    for block in v.blocks:
        n = block.nvars
        if block.kind == "affine":
            points = itertools.product(range(q), repeat=n)
        else:  # first nonzero coordinate normalized to 1
            points = (
                (0,) * i + (1,) + rest
                for i in range(n)
                for rest in itertools.product(range(q), repeat=n - i - 1)
            )
        count *= sum(
            all(value(eq, pt) == 0 for eq in block.equations) for pt in points
        )
    return count


# closed forms


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_point_has_one_point(q):
    p, k = field_params_from_q(q)
    assert count_points(point(), 1, p, k) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_affine_space_counts(q, n):
    p, k = field_params_from_q(q)
    assert count_points(affine_space(n), 1, p, k) == q**n


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_projective_space_counts(q, n):
    p, k = field_params_from_q(q)
    expected = sum(q**i for i in range(n + 1))
    assert count_points(projective_space(n), 1, p, k) == expected


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8])
def test_multiplicative_group_counts(q):
    p, k = field_params_from_q(q)
    assert count_points(multiplicative_group(), 1, p, k) == q - 1


# brute-force cross-checks on each counting strategy


def test_circle_odd_characteristic_solve_path():
    v = affine_variety(2, ("x^2 + y^2 - 1",))
    assert count_points(v, 1, 3) == 4
    assert count_points(v, 1, 7) == brute_count(v, 7)
    assert count_points(v, 1, 3, 2) == brute_count(v, 9)


def test_fermat_cubic_grid_path():
    v = affine_variety(2, ("x^3 + y^3 - 1",))
    for q in (4, 7):
        p, k = field_params_from_q(q)
        assert count_points(v, 1, p, k) == brute_count(v, q)


def test_char_two_quadratic_without_linear_term():
    # squaring is a bijection, so y^2 = x^3 + 1 has exactly q points
    v = affine_variety(2, ("y^2 + x^3 + 1",))
    assert count_points(v, 1, 2, 2) == 4
    assert count_points(v, 1, 2, 2) == brute_count(v, 4)


def test_char_two_quadratic_with_linear_term():
    v = affine_variety(2, ("y^2 + y + x^3",))
    for q in (2, 4, 8):
        p, k = field_params_from_q(q)
        assert count_points(v, 1, p, k) == brute_count(v, q)


def test_projective_conic_with_no_points():
    v = projective_variety(1, ("x^2 + y^2",))
    assert count_points(v, 1, 3) == 0
    assert count_points(v, 1, 5) == 2
    assert count_points(v, 1, 5) == brute_count(v, 5)


def test_elliptic_curve_counts_match_brute_force():
    v = elliptic_f5()
    assert count_points(v, 1) == brute_count(v, 5)
    assert point_counts(v, 4) == (9, 27, 108, 675)


def test_extension_field_equals_higher_degree_count():
    v = elliptic_f5()
    assert count_points(v, 1, 5, 2) == count_points(v, 2) == 27


# degenerate equations


def test_zero_equation_is_no_constraint():
    assert count_points(affine_variety(1, ("0",)), 1, 3) == 3
    # a coefficient divisible by p vanishes in the field
    assert count_points(affine_variety(1, ("5",)), 1, 5) == 5


def test_unit_equation_empties_the_chart():
    assert count_points(affine_variety(2, ("1",)), 1, 3) == 0
    assert count_points(affine_variety(2, ("x*y - x*y + 2",)), 1, 3) == 0


# structural identities


@pytest.mark.parametrize("q", [2, 3, 5])
def test_line_splits_as_point_plus_torus(q):
    p, k = field_params_from_q(q)
    for m in (1, 2, 3):
        lhs = count_points(affine_space(1), m, p, k)
        rhs = count_points(point(), m, p, k) + count_points(
            multiplicative_group(), m, p, k
        )
        assert lhs == rhs


def test_product_counts_multiply():
    v = variety_product(projective_space(1), projective_space(1))
    assert point_counts(v, 3, 2) == (9, 25, 81)
    w = variety_product(multiplicative_group(), projective_space(2))
    assert count_points(w, 1, 2, 2) == 3 * 21


def test_point_counts_tuple_matches_scalar_calls():
    v = multiplicative_group()
    assert point_counts(v, 4, 3) == tuple(
        count_points(v, m, 3) for m in (1, 2, 3, 4)
    )


# field resolution


def test_resolve_field_prefers_explicit_parameters():
    v = elliptic_f5()
    assert resolve_field(v) == (5, 1)
    assert resolve_field(v, 5, 2) == (5, 2)
    assert resolve_field(v, 7) == (7, 1)


def test_resolve_field_requires_some_field():
    message = "^no finite field given; pass --q or a variety that declares p, k$"
    with pytest.raises(ValueError, match=message):
        resolve_field(point())


def test_field_params_from_q():
    assert field_params_from_q(2) == (2, 1)
    assert field_params_from_q(4) == (2, 2)
    assert field_params_from_q(27) == (3, 3)
    assert field_params_from_q(49) == (7, 2)
    assert field_params_from_q(7) == (7, 1)


@pytest.mark.parametrize("q", [0, 1, 6, 12, 100])
def test_field_params_rejects_non_prime_powers(q):
    with pytest.raises(NotPrime):
        field_params_from_q(q)


def test_field_params_of_a_large_prime_are_found_quickly():
    # trial division stops at sqrt(q); scanning up to q took about a minute
    start = time.perf_counter()
    assert field_params_from_q(1000000007) == (1000000007, 1)
    assert field_params_from_q(10000019) == (10000019, 1)
    assert time.perf_counter() - start < 1.0
    assert field_params_from_q(101**3) == (101, 3)
    for q in (2 * 1000000007, 101 * 1000000007):
        with pytest.raises(NotPrime, match=f"^{q} is not a prime power$"):
            field_params_from_q(q)


def test_field_params_of_large_prime_powers():
    p = 2**61 - 1
    assert field_params_from_q(p) == (p, 1)
    assert field_params_from_q(p**2) == (p, 2)
    assert field_params_from_q(10**18 + 3) == (10**18 + 3, 1)
    assert field_params_from_q(2**100) == (2, 100)
    assert field_params_from_q(3**(2 * 3 * 5 * 7)) == (3, 210)
    assert field_params_from_q(101**97) == (101, 97)
    semiprime = (10**9 + 7) * (10**9 + 9)
    for q in (2 * (10**18 + 3), 6**40, semiprime, semiprime**3):
        with pytest.raises(NotPrime, match=f"^{q} is not a prime power$"):
            field_params_from_q(q)
    rng = random.Random(1412)
    for _ in range(500):
        base, k = rng.randrange(2, 10**4), rng.randrange(1, 60)
        factors = factorize(base)  # trial division
        if len(factors) == 1:
            ((r, e),) = factors.items()
            assert field_params_from_q(base**k) == (r, e * k)
        else:
            with pytest.raises(NotPrime):
                field_params_from_q(base**k)


def test_field_params_past_the_prime_test_bound_are_refused_quickly():
    # a root that would need a primality test at or past psi_13 is refused
    # by BudgetExceeded, also for q of thousands of digits, unless one of
    # the 13 base primes divides it and so proves it composite
    bound = 3317044064679887385961981
    start = time.perf_counter()
    for q in (bound, 10**2000 + 1, (2**61 - 1) * (2**31 - 1)):
        with pytest.raises(BudgetExceeded, match=f"not below {bound}"):
            field_params_from_q(q)
    for q in (3**4000 * 5, 3**50 * 5, 41 * bound):
        with pytest.raises(NotPrime, match=f"^{q} is not a prime power$"):
            field_params_from_q(q)
    assert time.perf_counter() - start < 1.0


def test_field_params_agree_with_prime_powers_up_to_5000():
    powers = {
        p**k: (p, k)
        for p in range(2, 5000)
        if is_prime(p)
        for k in range(1, 13)
        if p**k < 5000
    }
    for q in range(-3, 5000):
        if q in powers:
            assert field_params_from_q(q) == powers[q]
        else:
            with pytest.raises(NotPrime, match=f"^{q} is not a prime power$"):
                field_params_from_q(q)


# moebius and the censuses


def test_moebius_values():
    expected = (1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0)
    assert tuple(moebius(n) for n in range(1, 13)) == expected


def test_moebius_sums_over_the_divisors_to_one_at_n_equal_1():
    # sum_(d|n) mu(d) = [n = 1]
    for n in range(1, 2001):
        total = sum(moebius(d) for d in range(1, n + 1) if n % d == 0)
        assert total == (n == 1), n


def test_census_of_the_line():
    # degree-d monic irreducibles over F_2: 2, 1, 2
    assert closed_point_census(affine_space(1), 3, 2) == (2, 1, 2)


def test_census_of_the_projective_line():
    assert closed_point_census(projective_space(1), 2, 2) == (3, 1)


def test_census_inverts_back_to_point_counts():
    v = elliptic_f5()
    ns = point_counts(v, 6)
    bs = closed_point_census(v, 6)
    for m in range(1, 7):
        total = sum(d * bs[d - 1] for d in range(1, m + 1) if m % d == 0)
        assert total == ns[m - 1]
    assert bs[0] == ns[0]
    assert all(b >= 0 for b in bs)


# symmetric product counts


def test_sym_counts_of_the_line_are_field_powers():
    assert sym_product_counts(affine_space(1), 5, 2) == (1, 2, 4, 8, 16, 32)


def test_sym_counts_of_the_projective_line():
    # Sym^n(P^1) = P^n, so these are projective space counts over F_3
    got = sym_product_counts(projective_space(1), 6, 3)
    assert got == (1, 4, 13, 40, 121, 364, 1093)


def product_loop_sym_counts(v, degree, p, k=0):
    """prod_d (1 - t^d)^(-B_d): a degree-n effective zero-cycle is a
    multiset of closed points whose degrees sum to n."""
    bs = closed_point_census(v, degree, p, k)
    series = TruncSeries.one(ZZ, degree)
    for d in range(1, degree + 1):
        factor = TruncSeries.make(ZZ, [1] + [0] * (d - 1) + [-1], degree)
        series = series.mul(factor.pow_int(-bs[d - 1]))
    return series.coeffs


@pytest.mark.parametrize("name", sorted(CATALOG))
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_sym_counts_match_the_closed_point_product(name, q):
    v = CATALOG[name]()
    p, k = field_params_from_q(q)
    assert sym_product_counts(v, 8, p, k) == product_loop_sym_counts(
        v, 8, p, k
    )


def test_sym_counts_of_seeded_plane_cubics_match_the_product():
    rng = random.Random(2024)
    # general cubics take the full grid; Weierstrass cubics solve for y
    # (in odd characteristic, or without the x*y*z and y*z^2 terms)
    general = [
        f"x^{a}*y^{b}*z^{3 - a - b}" for a in range(4) for b in range(4 - a)
    ]
    weierstrass = ["x*y*z", "y*z^2", "x^3", "x^2*z", "x*z^2", "z^3"]
    cases = [(general, 2, 6), (general, 3, 4)]
    cases += [(weierstrass, p, degree) for p, degree in [(2, 8), (5, 6), (7, 5)]]
    for monomials, p, degree in cases:
        for _ in range(3):
            terms = [f"{rng.randrange(p)}*{m}" for m in monomials]
            if monomials is weierstrass:
                terms.append("y^2*z")
            v = projective_variety(2, (" + ".join(terms),))
            assert sym_product_counts(v, degree, p) == (
                product_loop_sym_counts(v, degree, p)
            )


def test_sym_counts_of_the_projective_line_to_degree_40():
    v = projective_space(1)
    got = sym_product_counts(v, 40, 3)
    assert got == product_loop_sym_counts(v, 40, 3)
    assert got == tuple((3 ** (n + 1) - 1) // 2 for n in range(41))


@pytest.mark.parametrize(
    "counts, message",
    [
        ((1, 2), "degree-2 count sum 1 is not divisible by 2"),
        ((3, 1), "negative closed-point count B_2=-1"),
    ],
)
def test_counts_no_variety_has_are_refused(monkeypatch, counts, message):
    monkeypatch.setattr(counting, "point_counts", lambda *args: counts)
    for census in (closed_point_census, sym_product_counts):
        with pytest.raises(CensusInconsistent, match=f"^{message}$"):
            census(point(), 2, 5)


def test_closed_forms_build_no_field(monkeypatch):
    def refuse(p, k):
        raise AssertionError(f"F_({p}^{k}) built for a closed form")

    monkeypatch.setattr(counting, "make_field", refuse)
    product = variety_product(
        variety_product(projective_space(2), affine_space(2)), point()
    )
    for v, size in [
        (point(), lambda q: 1),
        (affine_space(1), lambda q: q),
        (affine_space(2), lambda q: q**2),
        (projective_space(1), lambda q: q + 1),
        (projective_space(2), lambda q: q**2 + q + 1),
        (product, lambda q: (q**2 + q + 1) * q**2),
    ]:
        want = tuple(size(25**m) for m in range(1, 81))
        assert point_counts(v, 80, 5, 2) == want
        assert sym_product_counts(v, 80, 5, 2)[1] == want[0]


@pytest.mark.parametrize("q", [2, 4, 8, 9, 25, 343])
def test_equationless_blocks_count_as_closed_forms(monkeypatch, q):
    # the chart planner counts q^n for a chart with no equations, so an
    # equationless block needs no field, also beside a block that does
    built = []
    real = counting.make_field
    monkeypatch.setattr(
        counting, "make_field", lambda p, k: built.append((p, k)) or real(p, k)
    )
    p, k = field_params_from_q(q)
    curve = affine_variety(2, ("x^3*y+y^3+x+1",))  # a full-grid chart
    curve_count = count_points(curve, 1, p, k)
    assert built == [(p, k)]
    for dim in range(7):
        for space, closed in (
            (affine_space, q**dim),
            (projective_space, sum(q**i for i in range(dim + 1))),
        ):
            built.clear()
            assert count_points(space(dim), 1, p, k) == closed
            assert built == []
            product = variety_product(space(dim), curve)
            assert count_points(product, 1, p, k) == closed * curve_count
            assert built == [(p, k)]


def test_field_checks_hold_for_closed_forms():
    with pytest.raises(NotPrime, match="^4 is not prime$"):
        count_points(affine_space(1), 1, 4)
    with pytest.raises(NotPrime, match="^1 is not prime$"):
        count_points(point(), 2, 1, 3)
    for v in (affine_space(1), projective_space(1), point()):
        with pytest.raises(
            DegreeZero, match="^extension degree must be positive, got 0$"
        ):
            count_points(v, 0, 5)
        with pytest.raises(
            DegreeZero, match="^extension degree must be positive, got -2$"
        ):
            count_points(v, -1, 5, 2)


def test_count_points_keeps_nothing_between_calls(monkeypatch):
    # no memo: an identical call counts again, and perfbench still reads
    # the name of the old cache, which stays empty
    charts = []
    real = counting._count_chart
    monkeypatch.setattr(
        counting, "_count_chart", lambda *args: charts.append(args) or real(*args)
    )
    first = count_points(elliptic_f5(), 2)
    once = len(charts)
    assert once > 0
    assert count_points(elliptic_f5(), 2) == first
    assert len(charts) == 2 * once
    assert counting._count_cache == {}


def test_sym_counts_of_a_point_and_the_torus():
    assert sym_product_counts(point(), 5, 7) == (1,) * 6
    assert sym_product_counts(multiplicative_group(), 4, 5) == (
        1,
        4,
        20,
        100,
        500,
    )


# budget and threading


def test_budget_rejects_large_grids_before_enumerating():
    eq = "+".join(f"{v}^3" for v in ("x", "y", "z", "w", "x4", "x5")) + "+1"
    v = affine_variety(6, (eq,))
    with pytest.raises(BudgetExceeded):
        count_points(v, 1, 23)  # 23^6 > 10^7


def test_budget_applies_to_the_solved_variable_path():
    eq = "x^2+" + "+".join(f"{v}^3" for v in ("y", "z", "w", "x4", "x5"))
    v = affine_variety(6, (eq,))
    with pytest.raises(BudgetExceeded):
        count_points(v, 1, 37)  # 37^5 > 10^7 remaining variables


def test_budget_refuses_a_quadric_before_its_square_root_table(monkeypatch):
    calls = []
    monkeypatch.setattr(
        GF, "sqrt", lambda self, values: calls.append(self.q)
    )
    eq = "+".join(f"{v}^2" for v in affine_space(10).blocks[0].variables)
    v = affine_variety(10, (eq + "-1",))
    message = "^40353607 tuples to enumerate, budget is 10000000$"
    with pytest.raises(BudgetExceeded, match=message):
        count_points(v, 1, 7)  # solving for x leaves 7^9 tuples
    assert calls == []


def test_budget_applies_per_chart(monkeypatch):
    # the charts of e5 over F_(5^3): solve for y at x = 1, 125 tuples, then
    # z - z^3 at (0, 1, z) by its gcd, of degree 3: 3^3 * bits(5) = 81 < 125.
    # The constant chart (0, 0, 1) enumerates nothing
    planned = []
    real = counting._check_budget
    monkeypatch.setattr(
        counting, "_check_budget", lambda n: planned.append(n) or real(n)
    )
    assert count_points(elliptic_f5(), 3) == 108
    assert planned == [125, 81]


def test_closed_forms_bypass_the_budget():
    assert count_points(affine_space(12), 1, 7) == 7**12


def test_census_checks_its_largest_field_before_enumerating(monkeypatch):
    # F_(5^10) is within the budget and F_(5^12) is not: nothing may be
    # enumerated before the largest field's grid is refused
    chunks = []
    real = counting._run_chunks

    def spy(total, threads, worker):
        chunks.append(total)
        return real(total, threads, worker)

    monkeypatch.setattr(counting, "_run_chunks", spy)
    message = "^244140625 tuples to enumerate, budget is 10000000$"
    for census in (point_counts, sym_product_counts):
        with pytest.raises(BudgetExceeded, match=message):
            census(elliptic_f5(), 12)
    assert chunks == []


def over_budget_affine_block():
    """An affine cubic in 15 variables: 3^15 > 10^7 tuples over F_3."""
    names = affine_space(15).blocks[0].variables
    return affine_variety(15, ("+".join(f"{v}^3" for v in names) + "+1",))


def test_product_plans_every_block_before_counting(monkeypatch):
    # the circle enumerates F_3, but only after every block passed the
    # budget; the later block is refused before any field is built
    built, chunks = [], []
    monkeypatch.setattr(
        counting, "make_field", lambda p, k: built.append((p, k))
    )
    monkeypatch.setattr(
        counting, "_run_chunks", lambda *args: chunks.append(args)
    )
    v = variety_product(
        affine_variety(2, ("x^2 + y^2 - 1",)), over_budget_affine_block()
    )
    message = f"^{3**15} tuples to enumerate, budget is 10000000$"
    with pytest.raises(BudgetExceeded, match=message):
        count_points(v, 1, 3)
    assert built == [] and chunks == []


def test_product_with_an_empty_block_still_checks_the_budget():
    # x^2 + 1 has no root in F_3; this product used to count 0 points
    # without looking at the over-budget block after it
    empty = affine_variety(1, ("x^2 + 1",))
    assert count_points(empty, 1, 3) == 0
    v = variety_product(empty, over_budget_affine_block())
    with pytest.raises(BudgetExceeded):
        count_points(v, 1, 3)


def test_thread_count_does_not_change_results():
    v = affine_variety(3, ("x^3 + y^3 + z^3 - 1",), p=37)
    e = elliptic_f5()
    results = []
    for threads in (4, 1):
        results.append(
            (count_points(v, 1, threads=threads),
             sym_product_counts(e, 6, threads=threads))
        )
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "p,degree,cubic",
    [
        (5, 7, "y^2*z - x^3 - 2*x*z^2 - 3*z^3"),
        (2, 15, "y^2*z + x^3 + x*z^2 + z^3"),
    ],
)
def test_plane_cubic_census_on_log_tables_ignores_threads(p, degree, cubic):
    # the quadratic-solve path enumerates one coordinate, so the top field
    # is large enough both for the log tables and for a two-way split
    assert p**degree >= counting._CHUNK_MIN
    v = projective_variety(2, (cubic,))
    census = []
    for threads in (1, 2):
        census.append(closed_point_census(v, degree, p, threads=threads))
    assert census[0] == census[1]
    assert make_field(p, degree)._logs is not None


def test_plane_cubic_on_log_tables_matches_scalar_count():
    v = projective_variety(2, ("y^2*z - x^3 - 2*x*z^2 - z^3",))
    expected = brute_count(v, 81)
    for threads in (1, 2):
        assert count_points(v, 1, 3, 4, threads) == expected
    assert make_field(3, 4)._logs is not None


# a quadric and a cubic in P^3, as the census-prime benchmark draws them
P3_CURVE = projective_variety(
    3,
    (
        "x^2 + y^2 + y*z + z^2 + w^2 + x*w",
        "x^3 - y^3 - z^3 + 2*w^3 + 2*x*y*z - y*z*w + x*z^2",
    ),
)
THREE_EQUATIONS = affine_variety(
    3, ("x^2 + y*z - 1", "x*y + z^2 - 2", "x^3 + y^3 + z^3 - 3")
)
# solved for y: a = x, b = 2z, c = z^3.  Over F_7 the points include
# linear roots (x = 0 != z), double roots (b^2 - 4ac = 0 != a) and the
# point x = z = 0, where the first equation vanishes for every y
DEGENERATE_PAIR = affine_variety(
    3, ("x*y^2 + 2*y*z + z^3", "x^3 + y^3 + z^3 + x*y")
)

# every counting strategy against the brute-force counter; (variety, q)
STRATEGY_CASES = {
    "closed form, affine": (affine_space(2), 4),
    "closed form, product": (
        variety_product(projective_space(1), affine_space(1)), 9
    ),
    "linear": (affine_variety(3, ("x^3*y + x^3*z^3 - x^3",)), 9),
    "odd quadratic, 1-point grid": (affine_variety(1, ("x^2 - 2",)), 27),
    "odd quadratic, 1-point grid, linear term": (
        affine_variety(1, ("2*x^2 + x + 3",)), 625
    ),
    "odd quadratic, 1-point grid past _LOG_TRIGGER": (
        affine_variety(1, ("x^2 + x - 1",)), 3**8
    ),
    "odd quadratic, q-point grid": (
        affine_variety(2, ("y*x^2 + x + y^3 - 1",)), 81
    ),
    "odd quadratic, q^2-point grid": (
        affine_variety(3, ("x^2 - y*z - 2",)), 25
    ),
    "char 2, no linear term": (affine_variety(2, ("x*y^2 + x^3 + 1",)), 8),
    "char 2, linear term": (affine_variety(2, ("y^2 + x*y + x^3 + 1",)), 16),
    "full grid, two equations": (
        affine_variety(2, ("x^3 + y^3 - 1", "x^3*y - y^3 - 1")), 49
    ),
    # one variable: the gcd beats the full grid at 3^8, 3^3 * 2 < 3^8
    "full grid past _LOG_TRIGGER": (affine_variety(1, ("x^3 + x + 1",)), 3**8),
    "projective conic": (projective_variety(2, ("x^2 + y^2 + z^2",)), 9),
    "projective cubic, char 2": (
        projective_variety(2, ("y^2*z + x*y*z + x^3 + z^3",)), 8
    ),
    "projective quadratic chart": (
        projective_variety(1, ("x^2 - 2*y^2",)), 3**7
    ),
    "odd quadratic, q^2-point grid, log tables": (
        affine_variety(3, ("x^2*y + z^3*x - y*z^2 + 2",)), 25
    ),
    "char 2, no linear term, log tables": (
        affine_variety(3, ("x*y^2 + z*x^3 + z^2 + 1",)), 16
    ),
    "full grid, two equations, log tables": (
        affine_variety(2, ("x^3 + y^3 - 1", "x^3*y^3 - 2")), 81
    ),
    # one-variable charts: the gcd of the equations in F_p[x] and its
    # distinct-degree factorisation, at d^3 bits(p) for its degree d; where
    # that is at least q, as for a cubic over F_27, the full grid (see
    # test_one_variable_cases_match_by_gcd_and_by_grid for both)
    "one variable, discriminant 0": (affine_variety(1, ("x^2 + 4*x + 4",)), 125),
    "one variable, non-square discriminant, odd k": (
        affine_variety(1, ("x^2 + x + 1",)), 125
    ),
    "one variable, non-square discriminant, even k": (
        affine_variety(1, ("x^2 + x + 1",)), 25
    ),
    "one variable, linear": (affine_variety(1, ("3*x + 2",)), 49),
    "one variable, char 2, no linear term": (affine_variety(1, ("x^2 + 1",)), 32),
    "one variable, cubic with three roots in F_p": (
        affine_variety(1, ("x^3 - 6*x^2 + 11*x - 6",)), 125
    ),
    "one variable, irreducible cubic over F_27": (
        affine_variety(1, ("x^3 - x + 1",)), 27
    ),
    "one variable, irreducible cubic over F_9": (
        affine_variety(1, ("x^3 - x + 1",)), 9
    ),
    "one variable, irreducible cubic over F_81": (
        affine_variety(1, ("x^3 - x + 1",)), 81
    ),
    "one variable, repeated root": (
        affine_variety(1, ("x^3 - x^2 - x + 1",)), 125
    ),
    "one variable, two equations with a linear gcd": (
        affine_variety(1, ("x^3 - 2*x + 1", "x^2 - 1")), 49
    ),
    "one variable, two coprime equations": (
        affine_variety(1, ("x^2 - 2", "x^2 - 3")), 49
    ),
    "one variable, char 2, linear term, over F_2": (
        affine_variety(1, ("x^2 + x + 1",)), 2
    ),
    "one variable, char 2, linear term, over F_4": (
        affine_variety(1, ("x^2 + x + 1",)), 4
    ),
    "one variable, char 2, linear term, over F_64": (
        affine_variety(1, ("x^2 + x + 1",)), 64
    ),
    # 2^3 * bits(2) = 16 = q: the full grid wins the tie
    "one variable, char 2, linear term, over F_16": (
        affine_variety(1, ("x^2 + x + 1",)), 16
    ),
    # several equations: one is solved, the others are tested at its roots
    "substituted, linear top coefficient": (
        affine_variety(2, ("x^3 + y^3 - 1", "x*y - 1")), 49
    ),
    "substituted, quadratic top coefficient, log tables": (
        affine_variety(2, ("x^3 + y^3 - 1", "x*y^2 - 2")), 81
    ),
    "substituted, quadric and cubic in P^3": (P3_CURVE, 7),
    "substituted, quadric and cubic in P^3, log tables": (P3_CURVE, 9),
    "substituted, three equations": (THREE_EQUATIONS, 11),
    "substituted, three equations, log tables": (THREE_EQUATIONS, 9),
    "substituted, linear, double and every root": (DEGENERATE_PAIR, 7),
    "substituted, linear, double and every root, log tables": (
        DEGENERATE_PAIR, 9
    ),
    "substituted, char 2, no linear term": (
        affine_variety(3, ("y^2 + x*z + 1", "x^3 + y^3 + z^3 + x*y + 1")), 2
    ),
    "substituted, char 2, no linear term, every root, log tables": (
        affine_variety(3, ("x*y^2 + z^3 + x + 1", "x^3 + y^3 + z^3 + y*z + 1")),
        8,
    ),
    "full grid, two equations, char 2, linear term": (
        affine_variety(2, ("y^2 + x*y + x^3 + 1", "x^3 + y^3 + x + 1")), 8
    ),
}


@pytest.mark.parametrize("case", sorted(STRATEGY_CASES))
def test_strategies_match_brute_force(monkeypatch, case):
    v, q = STRATEGY_CASES[case]
    p, k = field_params_from_q(q)
    expected = brute_count(v, q)
    # split every grid, even one point, across two workers
    monkeypatch.setattr(counting, "_CHUNK_MIN", 1)
    monkeypatch.setattr(counting.os, "cpu_count", lambda: 2)
    for threads in (1, 2):
        assert count_points(v, 1, p, k, threads) == expected, threads


def test_strategy_cases_cover_every_plan_kind(monkeypatch):
    # a strategy the planner can return needs a brute-force case above
    kinds = set()
    real = counting._plan_chart

    def spy(*args):
        plan = real(*args)
        kinds.add(plan.kind)
        return plan

    monkeypatch.setattr(counting, "_plan_chart", spy)
    for v, q in STRATEGY_CASES.values():
        count_points(v, 1, *field_params_from_q(q))
    assert kinds == set(counting.PLAN_KINDS)


ONE_VARIABLE_COUNTS = {
    "one variable, cubic with three roots in F_p": (3, "one variable"),
    "one variable, irreducible cubic over F_27": (3, "full grid"),
    "one variable, irreducible cubic over F_9": (0, "full grid"),
    "one variable, irreducible cubic over F_81": (0, "one variable"),
    "one variable, repeated root": (2, "one variable"),
    "one variable, two equations with a linear gcd": (1, "one variable"),
    "one variable, two coprime equations": (0, "one variable"),
    "one variable, char 2, linear term, over F_2": (0, "full grid"),
    "one variable, char 2, linear term, over F_4": (2, "full grid"),
    "one variable, char 2, linear term, over F_64": (2, "one variable"),
    "one variable, char 2, linear term, over F_16": (2, "full grid"),
}


@pytest.mark.parametrize("case", sorted(ONE_VARIABLE_COUNTS))
def test_one_variable_cases_match_by_gcd_and_by_grid(monkeypatch, case):
    # the count and the plan the costs pick, then each of the two ways of
    # counting one variable forced: the gcd at every q, and the full grid
    v, q = STRATEGY_CASES[case]
    p, k = field_params_from_q(q)
    want, kind = ONE_VARIABLE_COUNTS[case]
    assert brute_count(v, q) == want
    kinds = []
    real = counting._plan_chart

    def spy(*args):
        plan = real(*args)
        kinds.append(plan.kind)
        return plan

    monkeypatch.setattr(counting, "_plan_chart", spy)
    assert count_points(v, 1, p, k) == want
    assert kinds == [kind]
    monkeypatch.setattr(counting, "_factor_cost", lambda f, p: 0)
    assert count_points(v, 1, p, k) == want
    monkeypatch.setattr(counting, "_common_factor", lambda eqs, p: None)
    assert count_points(v, 1, p, k) == want
    assert kinds == [kind, "one variable", "full grid"]


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _poly_text(coeffs):
    return " + ".join(f"{c}*x^{e}" for e, c in enumerate(coeffs) if c) or "0"


def test_one_variable_systems_match_scalar_arithmetic(monkeypatch):
    # 100 seeded systems of one to three equations of degree <= 6 over
    # fields of at most 125 elements; the equations share a random factor
    # of degree <= 3, so that their gcd is often not 1.  Each is counted
    # as planned, by its gcd and on its full grid, against reffield
    rng = random.Random(23)
    fields = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64, 81, 121, 125]
    real_cost, real_factor = counting._factor_cost, counting._common_factor
    for _ in range(100):
        q = rng.choice(fields)
        p, k = field_params_from_q(q)

        def poly(degree):
            return [rng.randrange(p) for _ in range(degree)] + [
                rng.randrange(1, p)
            ]

        common = poly(rng.randrange(4))
        eqs = [
            _poly_text(_poly_mul(common, poly(rng.randrange(7 - len(common))), p))
            for _ in range(rng.randint(1, 3))
        ]
        v = affine_variety(1, tuple(eqs))
        want = brute_count(v, q)
        got = []
        for cost, factor in (
            (real_cost, real_factor),
            (lambda f, p: 0, real_factor),
            (real_cost, lambda eqs, p: None),
        ):
            monkeypatch.setattr(counting, "_factor_cost", cost)
            monkeypatch.setattr(counting, "_common_factor", factor)
            got.append(count_points(v, 1, p, k))
        assert got == [want] * 3, (q, eqs)


def test_a_high_degree_chart_of_one_variable_costs_its_grid(capsys):
    # x^100000 - 1 costs 100000^3 * bits(5) by its gcd, so it is counted
    # on its grid of 5 values, and refused over F_(5^20), 5^20 > 10^7
    variety = '{"ambient": {"affine": 1}, "equations": ["x^100000 - 1"]}'
    start = time.perf_counter()
    code = cli.main(["count", "points", "--variety", variety, "--q", "5"])
    assert time.perf_counter() - start < 1.0
    assert (code, capsys.readouterr().out) == (0, "4\n")
    code = cli.main(["count", "points", "--variety", variety, "--q", str(5**20)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {5**20} tuples to enumerate, budget is 10000000\n"
    )


def test_budget_of_a_substitution_covers_where_it_enumerates_s(monkeypatch):
    # solving the first equation of DEGENERATE_PAIR for y enumerates s
    # where its top coefficient x vanishes, at most 1 * q of q^2 points: it
    # is budgeted (1 + 1) q^2.  The P^3 curve's charts solve for a variable
    # whose top coefficient is constant, q^(n-1) tuples, and its chart of
    # one variable, (0, 0, 1, w), has the coprime equations 1 + w^2 and
    # 2 w^3 - 1: their gcd is 1, of degree 0, which costs 0
    planned = []
    real = counting._check_budget
    monkeypatch.setattr(
        counting, "_check_budget", lambda n: planned.append(n) or real(n)
    )
    count_points(DEGENERATE_PAIR, 1, 7)
    count_points(P3_CURVE, 1, 7)
    assert planned == [2 * 7**2, 7**2, 7, 0]


def test_curve_in_p3_past_the_full_grid_budget_is_counted(monkeypatch):
    # the chart x = 1 over F_223 has 223^3 > 10^7 tuples on the full grid,
    # which used to be refused; solved for y it enumerates 223^2
    got = count_points(P3_CURVE, 1, 223)
    monkeypatch.setattr(counting, "_solvable_variables", lambda *args: iter(()))
    with pytest.raises(BudgetExceeded, match=f"^{223**3} tuples to enumerate"):
        count_points(P3_CURVE, 1, 223)
    monkeypatch.setattr(counting, "BUDGET", 223**3)
    assert count_points(P3_CURVE, 1, 223) == got


def test_budget_refuses_a_huge_field_before_computing_its_size():
    start = time.perf_counter()
    message = "^at least 5\\^99999999 tuples to enumerate, budget is 10000000$"
    with pytest.raises(BudgetExceeded, match=message):
        count_points(elliptic_f5(), 99999999)
    assert time.perf_counter() - start < 1.0


# the broadcast grid evaluator against point-by-point reference arithmetic


def seeded_polys(rng, n, p, q):
    """Reduced polynomials in n variables: no terms, a constant, and random
    ones with exponents up to q and coefficients 1 and other than 1."""
    yield {}
    yield {(0,) * n: rng.randrange(1, p)}
    for _ in range(4):
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            exps = tuple(rng.choice((0, 1, 2, 3, q - 1, q)) for _ in range(n))
            terms[exps] = rng.choice((1, rng.randrange(1, p)))
        yield terms


def reference_values(terms, n, ref, element):
    """Values at every flat index of the n-variable grid, the first slowest;
    position r of every axis holds the field element element[r]."""
    q = ref.q
    powers = [[ref.power(x, e) for e in range(q + 1)] for x in element]
    out = []
    for idx in range(q**n):
        point = [(idx // q ** (n - 1 - j)) % q for j in range(n)]
        total = 0
        for exps, c in terms.items():
            term = c
            for r, e in zip(point, exps):
                term = ref.mul(term, powers[r][e])
            total = ref.add(total, term)
        out.append(total)
    return out


@pytest.mark.parametrize(
    "q,logs",
    [pytest.param(7, False, id="7")]
    + [pytest.param(q, True, id=f"{q}-logs") for q in (9, 25, 32)],
)
def test_grid_values_match_reference_on_every_chunk(monkeypatch, q, logs):
    # every slab-aligned split _run_chunks makes for one to three threads
    monkeypatch.setattr(counting, "_CHUNK_MIN", 1)
    monkeypatch.setattr(counting.os, "cpu_count", lambda: 3)
    p, k = field_params_from_q(q)
    field = GF(p, k, make_field(p, k).modulus)  # a fresh copy: no tables yet
    ref = RefField(p, field.modulus)
    domain = field.grid_domain()
    assert (domain is not field) == logs
    if logs:
        # on logs an axis enumerates 0, g^0, ..., g^(q-2), and values are
        # logs: -1 at 0, and e at g^e, read off reference powers of g
        g = int(field._logs.exp[1])
        element = [0] + [ref.power(g, e) for e in range(q - 1)]
        assert sorted(element) == list(range(q))  # g generates F_q^*
        encode = {x: r - 1 for r, x in enumerate(element)}.__getitem__
    else:
        element = list(range(q))
        encode = int
    rng = random.Random(q)
    for n in range(5):
        if q**n > 2401:
            break
        slab = q ** max(n - 1, 0)
        for terms in seeded_polys(rng, n, p, q):
            want = [
                encode(x) for x in reference_values(terms, n, ref, element)
            ]
            for threads in (1, 2, 3):
                ranges = []

                def worker(lo, hi):
                    values = counting._grid_values(terms, domain, n, lo, hi)
                    shape = ((hi - lo) // slab,) + (q,) * (n - 1) if n else ()
                    got = np.broadcast_to(values, shape).ravel().tolist()
                    assert got == want[lo:hi], (terms, n, lo, hi)
                    ranges.append((lo, hi))
                    return hi - lo

                total = counting._run_chunks(q**n, threads, worker, slab)
                assert total == q**n
                ranges.sort()
                assert ranges[0][0] == 0 and ranges[-1][1] == q**n
                assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
                assert all(lo % slab == 0 for lo, _ in ranges)
                assert len(ranges) == min(threads, q**n // slab), threads


def spy_vec_ops(monkeypatch, size):
    """Names of the GF.vec_* calls whose operands broadcast to `size`."""
    calls = []
    for name in ("vec_add", "vec_mul", "vec_pow"):
        real = getattr(GF, name)

        def spy(self, *args, _real=real, _name=name):
            arrays = [a for a in args if isinstance(a, np.ndarray)]
            if arrays and np.broadcast(*arrays).size == size:
                calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(GF, name, spy)
    return calls


def test_grid_evaluation_touches_the_full_grid_per_leading_exponent(
    monkeypatch,
):
    # a census-prime surface: every full-size op is paid per distinct
    # exponent of x, not per monomial
    p = 89
    eq = (
        "2*x^3 - 3*y^3 + z^3 + 5*x*y*z - x^2*y + 4*y^2*z - 7*x*z^2"
        " + 2*x - y + 3*z + 6"
    )
    leading = {0, 1, 2, 3}
    full = spy_vec_ops(monkeypatch, p**3)
    count_points(affine_variety(3, (eq,)), 1, p)
    assert full and len(full) <= 2 * len(leading) + 2, full


def test_extension_grids_with_tables_never_leave_the_logs(monkeypatch):
    # a census-ext curve over F_(5^7): once the field has its tables, no
    # grid-sized value is ever a code, so no GF.vec_* call is grid-sized
    q = 5**7
    grid_sized = spy_vec_ops(monkeypatch, q)  # both charts enumerate q points
    v = projective_variety(2, ("y^2*z - x^3 - 3*x*z^2 - 2*z^3",))
    got = count_points(v, 7, 5)
    assert make_field(5, 7)._logs is not None
    assert grid_sized == []
    # N_m = 5^m + 1 - s_m, with s_m = a s_(m-1) - 5 s_(m-2) for the trace
    # a = 5 + 1 - N_1 of Frobenius (Hasse-Weil)
    a = 6 - brute_count(v, 5)
    s = [2, a]
    while len(s) <= 7:
        s.append(a * s[-1] - 5 * s[-2])
    assert got == q + 1 - s[7]


def test_prime_grid_peaks_near_two_full_grids():
    # a cubic surface over F_89: the Horner accumulator and one term are
    # the full-size arrays alive at once; modular reduction in place adds
    # no third
    p = 89
    eq = (
        "2*x^3 - 3*y^3 + z^3 + 5*x*y*z - x^2*y + 4*y^2*z - 7*x*z^2"
        " + 2*x - y + 3*z + 6"
    )
    v = affine_variety(3, (eq,))
    tracemalloc.start()
    try:
        count_points(v, 1, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid_bytes = p**3 * np.dtype(np.int64).itemsize
    assert peak <= 2.25 * grid_bytes, peak / grid_bytes


def test_one_variable_quadratic_builds_no_field_table(monkeypatch):
    # x^2 = 2 y^2 on P^1 over F_(3^m): 2 is a square exactly for even m.
    # A chart solved for its only variable is a closed form in p and q, so
    # no field, let alone a q-sized table, may be built
    built = []
    monkeypatch.setattr(
        counting, "make_field", lambda p, k: built.append((p, k))
    )
    v = projective_variety(1, ("x^2 - 2*y^2",))
    start = time.perf_counter()
    assert count_points(v, 15, 3) == 0
    assert count_points(v, 16, 3) == 2
    assert time.perf_counter() - start < 1.0
    assert count_points(affine_variety(1, ("2*x + 1",)), 7, 5) == 1
    assert count_points(affine_variety(1, ("x^2 + 1",)), 30, 2) == 1
    assert built == []


def test_one_variable_chart_past_256_bits_builds_no_field(monkeypatch):
    # F_(p^k) of more than 256 bits is past every grid, but the gcd of a
    # quadratic costs 8 bits(p); x^2 - 2 has roots in F_(p^5) exactly when
    # 2 is a square mod p (Euler's criterion), and x^2 + x + 1 has roots
    # in F_(2^k) exactly when k is even
    built = []
    monkeypatch.setattr(
        counting, "make_field", lambda p, k: built.append((p, k))
    )
    p = 2**61 - 1
    assert 5 * p.bit_length() > 256
    square = pow(2, (p - 1) // 2, p) == 1
    assert count_points(affine_variety(1, ("x^2 - 2",)), 5, p) == 2 * square
    v = affine_variety(1, ("x^2 + x + 1",))
    assert count_points(v, 300, 2) == 2
    assert count_points(v, 301, 2) == 0
    assert built == []


def test_thread_pool_is_capped_at_the_cpu_count(monkeypatch):
    workers = []

    class Recorder:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(counting.os, "cpu_count", lambda: 3)
    total = 10 * counting._CHUNK_MIN
    for threads in (2, 3, 10**6):
        parts = counting._run_chunks(total, threads, lambda lo, hi: hi - lo)
        assert parts == total
    assert workers == [2, 3, 3]
