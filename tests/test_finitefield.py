import hashlib
import random
import threading
import time
import tracemalloc

import numpy as np
import pytest
from reffield import RefField, remainder_mod

from wittzeta.budgets import BUDGETS
from wittzeta.errors import BudgetExceeded, DegreeZero, NonIntegral, NotPrime
from wittzeta.finitefield import (
    GF,
    _is_irreducible,
    is_prime,
    make_field,
)

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (2, 4), (7, 1)]
# extension fields from 81 to 8192 elements, each on its log tables
LOG_FIELDS = [(2, 13), (3, 4), (3, 8), (5, 4), (7, 4), (13, 4)]


def monic_polys(p, degree):
    """Every monic polynomial of one degree over F_p, constant term first."""
    for m in range(p**degree):
        yield tuple((m // p**i) % p for i in range(degree)) + (1,)


def ref_values(op, *arrays):
    """op of reffield applied element by element, as an array."""
    return np.array([op(*map(int, xs)) for xs in zip(*arrays)], dtype=np.int64)


def ref_power(ref, x, d):
    """x^d by square-and-multiply on reference products."""
    result = 1
    while d:
        if d & 1:
            result = ref.mul(result, x)
        x = ref.mul(x, x)
        d >>= 1
    return result


def _sieve(n):
    """flags[m] is 1 exactly when m <= n is prime: the sieve of
    Eratosthenes, which shares no code with is_prime."""
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for d in range(2, int(n**0.5) + 1):
        if flags[d]:
            flags[d * d :: d] = bytearray(len(flags[d * d :: d]))
    return flags


def test_is_prime():
    flags = _sieve(10**5)
    assert [n for n in range(-2, 10**5 + 1) if is_prime(n)] == [
        n for n in range(10**5 + 1) if flags[n]
    ]
    assert not is_prime(91)  # 7 * 13
    assert is_prime(2**31 - 1)


def test_is_prime_refuses_carmichael_numbers_and_semiprimes():
    flags = _sieve(10**6)
    primes = [n for n in range(10**6) if flags[n]]
    rng = random.Random(1412)
    # Chernick's (6k+1)(12k+1)(18k+1) is a Carmichael number when all
    # three factors are prime: a Fermat test to every coprime base passes it
    carmichael = [
        (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
        for k in range(1, 10**6 // 18)
        if all(flags[f * k + 1] for f in (6, 12, 18))
    ]
    assert carmichael[:3] == [1729, 294409, 56052361]
    for n in carmichael:
        assert not is_prime(n), n
    for _ in range(2000):
        a, b = rng.choice(primes), rng.choice(primes)
        assert not is_prime(a * b), (a, b)
        assert is_prime(a) and is_prime(b)
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    for n in (2**61 - 1, 10**18 + 3, 2**31 - 1):
        assert is_prime(n), n


def test_is_prime_refuses_a_number_past_its_bound():
    bound = 3317044064679887385961981
    assert not is_prime(bound - 1)
    for n in (bound, 2**89 - 1, 10**2000 + 1):
        with pytest.raises(BudgetExceeded, match=f"not below {bound}"):
            is_prime(n)
    # a base prime that divides it proves any n composite
    for n in (bound + 2, 10**40, 41 * bound, 3**4000 * 5):
        assert not is_prime(n)


def test_make_field_validation():
    with pytest.raises(NotPrime):
        make_field(4, 1)
    with pytest.raises(NotPrime):
        make_field(6, 1)
    with pytest.raises(DegreeZero):
        make_field(5, 0)


def test_make_field_is_cached():
    assert make_field(3, 2) is make_field(3, 2)


# make_field(p, k).modulus for k = 1, 2, ... on every field the benchmark
# builds: the scan picks the first irreducible monic polynomial in the
# base-p enumeration of lower coefficients, constant term first
MODULUS_GOLDENS = {
    2: [
        (0, 1),
        (1, 1, 1),
        (1, 1, 0, 1),
        (1, 1, 0, 0, 1),
        (1, 0, 1, 0, 0, 1),
        (1, 1, 0, 0, 0, 0, 1),
        (1, 1, 0, 0, 0, 0, 0, 1),
        (1, 1, 0, 1, 1, 0, 0, 0, 1),
        (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
        (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
        (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
        (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
        (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
        (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
        (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    ],
    3: [
        (0, 1),
        (1, 0, 1),
        (1, 2, 0, 1),
        (2, 1, 0, 0, 1),
        (1, 2, 0, 0, 0, 1),
        (2, 1, 0, 0, 0, 0, 1),
        (2, 0, 1, 0, 0, 0, 0, 1),
        (2, 0, 1, 0, 0, 0, 0, 0, 1),
    ],
    5: [
        (0, 1),
        (2, 0, 1),
        (1, 1, 0, 1),
        (2, 0, 0, 0, 1),
        (1, 4, 0, 0, 0, 1),
        (2, 1, 0, 0, 0, 0, 1),
        (1, 1, 0, 0, 0, 0, 0, 1),
        (2, 0, 0, 0, 0, 0, 0, 0, 1),
    ],
    7: [
        (0, 1),
        (1, 0, 1),
        (2, 0, 0, 1),
        (1, 1, 0, 0, 1),
        (3, 1, 0, 0, 0, 1),
        (2, 0, 0, 0, 0, 0, 1),
    ],
    11: [
        (0, 1),
        (1, 0, 1),
        (4, 1, 0, 1),
        (2, 1, 0, 0, 1),
        (2, 0, 0, 0, 0, 1),
    ],
    13: [
        (0, 1),
        (2, 0, 1),
        (2, 0, 0, 1),
        (2, 0, 0, 0, 1),
        (2, 4, 0, 0, 0, 1),
    ],
}


def test_modulus_scan_goldens():
    # x, x^2 + x + 1, x^2 + 1 and x^2 + 2
    assert make_field(2, 1).modulus == (0, 1)
    assert make_field(2, 2).modulus == (1, 1, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(5, 2).modulus == (2, 0, 1)
    for p, moduli in MODULUS_GOLDENS.items():
        for k, modulus in enumerate(moduli, start=1):
            assert make_field(p, k).modulus == modulus, (p, k)
    for p in (53, 89, 109, 113, 149):  # census-prime
        assert make_field(p, 1).modulus == (0, 1)


# make_field(p, k).name for k = 1..6, as the modulus scan picked them when
# Ben-Or's test spread the coefficients of x^(p^i) mod f: the test reads
# `frobenius_gcds` now, and irreducibility does not depend on how it is
# decided
FIELD_NAMES = {
    2: ["GF(2)", "GF(4, 1 + x + x^2)", "GF(8, 1 + x + x^3)",
        "GF(16, 1 + x + x^4)", "GF(32, 1 + x^2 + x^5)", "GF(64, 1 + x + x^6)"],
    3: ["GF(3)", "GF(9, 1 + x^2)", "GF(27, 1 + 2*x + x^3)",
        "GF(81, 2 + x + x^4)", "GF(243, 1 + 2*x + x^5)",
        "GF(729, 2 + x + x^6)"],
    5: ["GF(5)", "GF(25, 2 + x^2)", "GF(125, 1 + x + x^3)",
        "GF(625, 2 + x^4)", "GF(3125, 1 + 4*x + x^5)",
        "GF(15625, 2 + x + x^6)"],
    7: ["GF(7)", "GF(49, 1 + x^2)", "GF(343, 2 + x^3)",
        "GF(2401, 1 + x + x^4)", "GF(16807, 3 + x + x^5)",
        "GF(117649, 2 + x^6)"],
}


def test_field_names_are_pinned():
    for p, names in FIELD_NAMES.items():
        assert [make_field(p, k).name for k in range(1, 7)] == names


def test_is_irreducible_against_trial_division():
    for p, top in [(2, 8), (3, 5), (5, 4)]:
        for d in range(1, top + 1):
            divisors = [g for e in range(1, d // 2 + 1) for g in monic_polys(p, e)]
            for f in monic_polys(p, d):
                reducible = any(not any(remainder_mod(f, g, p)) for g in divisors)
                assert _is_irreducible(f, p) is not reducible, (p, f)


def test_reduction_rows_are_remainders():
    # the scalar product x^i * x^j is x^(i+j) modulo the modulus, as k digits
    for p, moduli in MODULUS_GOLDENS.items():
        for k, modulus in enumerate(moduli, start=1):
            F = make_field(p, k)
            for i in range(k):
                for j in range(k):
                    rem = remainder_mod((0,) * (i + j) + (1,), modulus, p)
                    want = sum(c * p**e for e, c in enumerate(rem))
                    assert F.mul(p**i, p**j) == want, (p, k, i, j)


def test_prime_field_is_mod_p():
    F = make_field(7, 1)
    assert F.q == 7
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.neg(3) == 4
    assert F.from_int(-1) == 6
    assert F.try_inverse(3) == 5
    assert F.try_inverse(0) is None


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, k):
    F = make_field(p, k)
    q = F.q
    els = np.arange(q, dtype=np.int64)
    a = np.repeat(els, q * q)
    b = np.tile(np.repeat(els, q), q)
    c = np.tile(els, q * q)
    # commutativity
    assert np.array_equal(F.vec_add(a, b), F.vec_add(b, a))
    assert np.array_equal(F.vec_mul(a, b), F.vec_mul(b, a))
    # associativity
    assert np.array_equal(
        F.vec_add(F.vec_add(a, b), c), F.vec_add(a, F.vec_add(b, c))
    )
    assert np.array_equal(
        F.vec_mul(F.vec_mul(a, b), c), F.vec_mul(a, F.vec_mul(b, c))
    )
    # distributivity
    assert np.array_equal(
        F.vec_mul(a, F.vec_add(b, c)),
        F.vec_add(F.vec_mul(a, b), F.vec_mul(a, c)),
    )
    # neutral elements and negation
    assert np.array_equal(F.vec_add(els, np.zeros(q, dtype=np.int64)), els)
    one = np.full(q, F.one, dtype=np.int64)
    assert np.array_equal(F.vec_mul(els, one), els)
    assert np.array_equal(
        F.vec_add(els, F.vec_mul(els, F.from_int(-1))),
        np.zeros(q, dtype=np.int64),
    )


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_inverses_and_frobenius(p, k):
    F = make_field(p, k)
    for a in range(1, F.q):
        inv = F.try_inverse(a)
        assert inv is not None and F.mul(a, inv) == F.one
        assert F.exact_div(F.one, a) == inv
    # Frobenius x -> x^p is additive
    for a in range(F.q):
        for b in range(F.q):
            lhs = F.power(F.add(a, b), p)
            rhs = F.add(F.power(a, p), F.power(b, p))
            assert lhs == rhs
    with pytest.raises(NonIntegral):
        F.exact_div(F.one, 0)


def test_vector_ops_match_scalar_ops():
    rng = np.random.default_rng(3)
    for p, k in [(3, 2), (2, 4), (5, 2)]:
        F = make_field(p, k)
        a = rng.integers(0, F.q, size=200).astype(np.int64)
        b = rng.integers(0, F.q, size=200).astype(np.int64)
        add = F.vec_add(a, b)
        mul = F.vec_mul(a, b)
        cube = F.vec_pow(a, 3)
        for i in range(200):
            assert add[i] == F.add(int(a[i]), int(b[i]))
            assert mul[i] == F.mul(int(a[i]), int(b[i]))
            assert cube[i] == F.power(int(a[i]), 3)


def test_discrete_log_path_matches_direct_products():
    # vector products and powers on the log tables, short or long, against
    # reference products
    F = GF(5, 4, make_field(5, 4).modulus)  # a fresh copy: no tables yet
    ref = RefField(5, F.modulus)
    rng = np.random.default_rng(9)
    size = 5000
    a = rng.integers(0, F.q, size=size).astype(np.int64)
    b = rng.integers(0, F.q, size=size).astype(np.int64)
    short = ref_values(ref.mul, a[:50], b[:50])
    assert np.array_equal(F.vec_mul(a[:50], b[:50]), short)
    assert F._logs is not None  # the first vector op builds the tables
    assert np.array_equal(F.vec_mul(a, b), ref_values(ref.mul, a, b))
    pow7 = F.vec_pow(a, 7)
    assert np.array_equal(pow7, ref_values(lambda x: ref_power(ref, x, 7), a))


def test_vec_pow_zero_exponent():
    F = make_field(3, 2)
    a = np.arange(F.q, dtype=np.int64)
    assert np.array_equal(F.vec_pow(a, 0), np.ones(F.q, dtype=np.int64))


def test_vec_pow_first_power_is_its_argument():
    # past q values a prime field powers through a q-sized table; the first
    # power must not gather a copy from it
    F = make_field(89, 1)
    a = np.arange(10**4, dtype=np.int64) % 89
    assert F.vec_pow(a, 1) is a
    # a quotient x / y of `counting._roots` is x y^(2q-3): y itself over F_2
    bits = a % 2
    assert make_field(2, 1).vec_pow(bits, 2 * 2 - 3) is bits


@pytest.mark.parametrize("p,k", [(7, 1), (3, 4), (2, 13)])
def test_vec_pow_matches_repeated_multiplication(p, k):
    # a fresh copy of the field: mod-p arithmetic for k = 1, and log tables,
    # built by the first power, for the extension fields
    F = GF(p, k, make_field(p, k).modulus)
    ref = RefField(p, F.modulus)
    rng = np.random.default_rng(10 * p + k)
    a = rng.integers(0, F.q, size=256).astype(np.int64)
    a[:2] = 0, 1
    want = np.ones_like(a)
    for n in range(21):
        assert np.array_equal(F.vec_pow(a, n), want), n
        want = ref_values(ref.mul, want, a)
    assert (F._logs is not None) == (k > 1)


def test_vec_pow_negative_exponent_raises():
    with_logs = GF(3, 4, make_field(3, 4).modulus)
    with_logs._log_tables()
    without_logs = GF(3, 2, make_field(3, 2).modulus)
    for F in (make_field(7, 1), without_logs, with_logs):
        with pytest.raises(ValueError):
            F.vec_pow(np.arange(F.q, dtype=np.int64), -1)
    assert without_logs._logs is None  # refused before building any table


def test_square_counts():
    for p, k in [(3, 1), (5, 1), (7, 1), (3, 2), (3, 8)]:
        F = make_field(p, k)
        counts = F.square_counts()
        assert counts.sum() == F.q
        assert counts[0] == 1
        nonzero = counts[1:]
        assert set(nonzero.tolist()) <= {0, 2}
    # squaring is a bijection in characteristic 2
    for k in (2, 13):
        assert set(make_field(2, k).square_counts().tolist()) == {1}


GRID_OPERATIONS = (
    "from_int", "axis_values", "vec_add", "vec_mul", "vec_pow", "sqrt",
)


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 2)])
def test_grid_domains_answer_six_operations(p, k):
    # a prime field on codes and an extension field on logs; a quotient is
    # a power and a root count reads `sqrt`, so neither has its own
    for domain in (make_field(p, 1), make_field(p, k).grid_domain()):
        for name in GRID_OPERATIONS:
            assert callable(getattr(domain, name, None)), name
        for name in ("square_roots", "vec_div"):
            assert not hasattr(type(domain), name), name


@pytest.mark.parametrize(
    "p,k",
    [(2, 1), (3, 1), (5, 1), (13, 1), (101, 1), (2, 3), (3, 2), (5, 2), (5, 3)],
)
def test_sqrt_root_counts_read_the_square_counts(p, k):
    # the nonzero-square mask on every element against reference squares,
    # and 2 * mask + (d == 0), the root count of the counting kernel for
    # odd p, against square_counts; in characteristic 2 every nonzero
    # element is a square
    F = make_field(p, k)
    ref = RefField(p, F.modulus)
    domain = F.grid_domain()
    values = domain.axis_values(0, F.q)
    codes = values if k == 1 else domain.exp[values]
    nonzero_squares = {ref.mul(y, y) for y in range(1, F.q)}
    mask = domain.sqrt(values)[1]
    assert mask.tolist() == [x in nonzero_squares for x in codes.tolist()]
    assert not mask[codes == 0].any()
    if p != 2:
        counts = 2 * mask + (values == domain.zero)
        assert np.array_equal(counts, F.square_counts()[codes])


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (13, 1), (2, 3), (3, 2), (5, 2)])
def test_grid_domain_roots_and_quotients_match_digit_arithmetic(p, k):
    # every value of the grid domain against every other: a root wherever
    # sqrt finds one or the value is 0, and the quotient a * b^(2q-3) with
    # a divisor array past q, which takes the table of powers on codes
    F = make_field(p, k)
    ref = RefField(p, F.modulus)
    domain = F.grid_domain()
    values = domain.axis_values(0, F.q)  # 0 first, then every nonzero
    codes = values if k == 1 else domain.exp[values]
    roots, is_square = domain.sqrt(values)
    root_codes = roots if k == 1 else domain.exp[roots]
    for x, r, square in zip(codes.tolist(), root_codes.tolist(), is_square):
        if square or x == 0:
            assert ref.mul(r, r) == x, x
    n = 2 * F.q - 3
    a, b = np.meshgrid(values, values, indexing="ij")
    quotients = domain.vec_mul(a, domain.vec_pow(b, n))
    got = quotients if k == 1 else domain.exp[quotients]
    for x, row in zip(codes.tolist(), got.tolist()):
        for y, quotient in zip(codes.tolist(), row):
            assert ref.mul(quotient, y) == (x if y else 0), (x, y)
            assert y or quotient == 0
    # a divisor of at most q values is powered directly
    small = domain.vec_mul(values[:, None], domain.vec_pow(values[-1:], n))
    assert np.array_equal(small, quotients[:, -1:])


@pytest.mark.parametrize("p,k", [(3, 8), (2, 13), (5, 4)])
def test_square_counts_match_digit_squares(p, k):
    F = make_field(p, k)
    counts = F.square_counts()
    ref = RefField(p, F.modulus)
    squares = [ref.mul(x, x) for x in range(F.q)]
    assert np.array_equal(counts, np.bincount(squares, minlength=F.q))


@pytest.mark.parametrize("p,k", LOG_FIELDS)
def test_zech_addition_matches_digit_arithmetic(p, k):
    F = make_field(p, k)
    ref = RefField(p, F.modulus)
    rng = np.random.default_rng(100 * p + k)
    size = 5096
    a = rng.integers(0, F.q, size=size).astype(np.int64)
    b = rng.integers(0, F.q, size=size).astype(np.int64)
    a[:100] = 0  # zero on the left
    b[100:200] = 0  # zero on the right
    a[200:300] = b[200:300] = 0
    b[300:400] = ref_values(ref.neg, a[300:400])  # a = -b
    total = F.vec_add(a, b)
    neg = F.vec_mul(a, F.from_int(-1))
    assert F._logs is not None
    assert not total[200:400].any()
    assert np.array_equal(total, ref_values(ref.add, a, b))
    assert np.array_equal(neg, ref_values(ref.neg, a))
    for i in range(0, size, 7):
        x, y = int(a[i]), int(b[i])
        assert total[i] == F.add(x, y)
        assert neg[i] == F.neg(x)
    # an np.int64 scalar broadcast against an array, on either side
    for x in (0, int(a[400]), F.neg(int(b[401]))):
        left = F.vec_add(np.int64(x), b)
        right = F.vec_add(b, np.int64(x))
        assert np.array_equal(left, right)
        for i in range(0, size, 13):
            assert left[i] == F.add(x, int(b[i]))


# fields from 16 to 28561 elements, and one past the tuple budget, which
# never gets log tables
REFERENCE_FIELDS = [
    (2, 4), (3, 4), (7, 3), (2, 11), (3, 8), (2, 13), (13, 4), (3, 15)
]


@pytest.mark.parametrize("p,k", REFERENCE_FIELDS)
def test_ops_match_reference_arithmetic(p, k):
    F = GF(p, k, make_field(p, k).modulus)  # a fresh copy: no tables yet
    ref = RefField(p, F.modulus)
    rng = random.Random(100 * p + k)
    pairs = [(0, 1), (1, 0), (F.q - 1, F.q - 1), (p - 1, 1)]
    pairs += [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(20)]

    def check_scalar_ops():
        for a, b in pairs:
            assert F.add(a, b) == ref.add(a, b), (a, b)
            assert F.mul(a, b) == ref.mul(a, b), (a, b)
            assert F.neg(a) == ref.neg(a), a
            inv = F.try_inverse(a)
            assert inv is None if a == 0 else ref.mul(a, inv) == 1, a

    check_scalar_ops()
    assert F._logs is None  # scalar ops never build the tables
    nprng = np.random.default_rng(100 * p + k)
    a = nprng.integers(0, F.q, size=4096).astype(np.int64)
    b = nprng.integers(0, F.q, size=4096).astype(np.int64)
    a[:3] = 0, 1, p - 1
    b[1:4] = 0, F.q - 1, 0
    if F.q > BUDGETS["tuples"].limit:
        for op in (F.vec_add, F.vec_mul):
            message = f"^discrete-log tables of GF\\({F.q}\\): {F.q} tuples"
            with pytest.raises(BudgetExceeded, match=message):
                op(a, b)
        with pytest.raises(BudgetExceeded):
            F.vec_pow(a, 3)
        assert F._logs is None
        return
    total, product = F.vec_add(a, b), F.vec_mul(a, b)
    neg, cube = F.vec_mul(a, F.from_int(-1)), F.vec_pow(a, 3)
    assert F._logs is not None
    for i in list(range(8)) + list(range(8, a.size, 61)):
        x, y = int(a[i]), int(b[i])
        assert total[i] == ref.add(x, y), (x, y)
        assert product[i] == ref.mul(x, y), (x, y)
        assert neg[i] == ref.neg(x), x
        assert cube[i] == ref.power(x, 3), x
    check_scalar_ops()  # unchanged once the field has its tables


def test_vector_ops_past_the_log_limit_raise_before_allocating(monkeypatch):
    # F_(3^15) has 14348907 elements: its tables would be 115 MB apiece
    builds = []
    monkeypatch.setattr(GF, "_build_log_tables", lambda self: builds.append(self))
    F = GF(3, 15, make_field(3, 15).modulus)
    a = np.arange(1000, dtype=np.int64)
    tracemalloc.start()
    try:
        for call in (
            lambda: F.vec_add(a, a),
            lambda: F.vec_mul(a[:, None], a[None, :]),
            lambda: F.vec_pow(a, 2),
            lambda: F.grid_domain(),
        ):
            with pytest.raises(BudgetExceeded):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert builds == [] and F._logs is None
    assert peak < 100_000, peak


@pytest.mark.parametrize("p,k", [(2, 7), (5, 3)])
def test_broadcast_operands_build_the_tables(p, k):
    # a (q, 1) by (1, q) op builds the log tables and broadcasts through
    # them to the q x q table of sums or products
    ref = RefField(p, make_field(p, k).modulus)
    col = np.arange(p**k, dtype=np.int64)
    for op, scalar in (("vec_mul", ref.mul), ("vec_add", ref.add)):
        F = GF(p, k, ref.modulus)  # a fresh copy: no tables yet
        got = getattr(F, op)(col[:, None], col[None, :])
        assert F._log_built, op
        assert got.shape == (F.q, F.q)
        for a in range(F.q):
            for b in range(F.q):
                assert got[a, b] == scalar(a, b), (op, a, b)


def test_concurrent_long_vectors_build_the_tables_once(monkeypatch):
    # census threads share one field; the first vectors of two workers
    # must not both build its tables
    F = GF(3, 8, make_field(3, 8).modulus)
    builds = []
    build = GF._build_log_tables

    def slow_build(self):
        builds.append(self.q)
        time.sleep(0.05)  # hold the window open for the other workers
        build(self)

    monkeypatch.setattr(GF, "_build_log_tables", slow_build)
    a = np.arange(F.q, dtype=np.int64)
    results = []
    workers = [
        threading.Thread(target=lambda: results.append(F.vec_mul(a, a)))
        for _ in range(4)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30)
    assert not any(worker.is_alive() for worker in workers)
    assert builds == [F.q]
    assert len(results) == 4
    assert all(np.array_equal(r, results[0]) for r in results)


@pytest.mark.parametrize("p,k", [(3, 2), (2, 5), (3, 8), (5, 6)])
def test_log_kernels_match_reference_arithmetic(p, k):
    F = GF(p, k, make_field(p, k).modulus)
    logs = F._log_tables()
    ref = RefField(p, F.modulus)
    n = F.q - 1
    rng = random.Random(10 * p + k)
    codes = [0, 1, p - 1, F.q - 1] + [rng.randrange(F.q) for _ in range(60)]
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    pairs += [(x, ref.neg(x)) for x in codes]  # a = -b
    pairs += [(x, y) for x in codes[:12] for y in codes[:12]]
    pairs += [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(100)]
    a = np.array([x for x, _ in pairs], dtype=np.int64)
    b = np.array([y for _, y in pairs], dtype=np.int64)
    la, lb = logs.log[a], logs.log[b]

    def read_back(values):
        # every value is a canonical log: -1 for 0, else in [0, q - 1)
        assert values.min() >= logs.zero and values.max() < n
        return logs.exp[values].tolist()

    assert read_back(logs.vec_add(la, lb)) == [ref.add(x, y) for x, y in pairs]
    assert read_back(logs.vec_mul(la, lb)) == [ref.mul(x, y) for x, y in pairs]
    # the same kernels on broadcast operands, as a grid evaluates them
    col, row = la[:40, None], lb[None, :40]
    for op, scalar in ((logs.vec_add, ref.add), (logs.vec_mul, ref.mul)):
        got = read_back(op(col, row).ravel())
        assert got == [scalar(x, y) for x in a[:40] for y in b[:40]]
    for d in (1, 2, 3, F.q - 2, F.q - 1, F.q + 3, 3 * F.q + 1):
        want = [ref_power(ref, int(x), d) for x in a]
        assert read_back(logs.vec_pow(la, d)) == want, d
    if p != 2:
        # Euler's criterion: d^((q-1)/2) is 1 exactly on the nonzero squares
        euler = [ref_power(ref, int(x), n // 2) for x in a]
        want = [1 if x == 0 else 2 if e == 1 else 0 for x, e in zip(a, euler)]
        got = 2 * logs.sqrt(la)[1] + (la == logs.zero)
        assert got.tolist() == want


# sha256 of each field's exp table as little-endian int64, q entries with
# exp[-1] = 0: the generator, the block fill and every entry are pinned
EXP_GOLDENS = {
    (5, 8): "daffda5916342c78ebd391c9376584c7c44c5c208737eca69ab20d786addb160",
    (13, 5): "35706d743fde48bb1f2205839bf4553c5d421adae659e8855b448b2e34c3bbb4",
    (7, 6): "e6696467bfb0098bbb5dbc7025b8bde98ca2bcdc93d0dee69e673a41a3e4c1a0",
    (3, 8): "6b79091cbcceccb5cbca135f06e348ed37c3fcca7bfee34a5a3f5c3cd1031ce4",
    (2, 13): "03a7390e061ffcd932f6328b0f5f004802b12b5799baefa2201ff5308f0b4da3",
}
# the same for each field's Zech table, q - 1 entries
ZECH_GOLDENS = {
    (5, 8): "44340ecc23f72f3df9341a82dcbf4adb745c02ee4f28a23a4f5177fd0bf7f4ba",
    (13, 5): "b8f6b9c2955d2fde9e022a81f691859e979875e01fb7b3c85e942ede4418ac68",
    (7, 6): "49abfb29fca819b111f348aafcb5eb21c00287e3585c273514c551bd4c4988e6",
    (3, 8): "b4320c10ed445f30fc903217866e8d1f4b9b929eb8988fad380ffc961c913c44",
    (2, 13): "0ec76ca6f16012a5f39f5874ae75875bf4c63a5148bdc1145b1bc04b73b9b4f0",
}


def _sha256(table) -> str:
    return hashlib.sha256(table.astype("<i8").tobytes()).hexdigest()


@pytest.mark.parametrize("p,k", sorted(EXP_GOLDENS))
def test_log_tables_are_pinned(p, k):
    F = GF(p, k, make_field(p, k).modulus)  # a fresh copy: no tables yet
    logs = F._log_tables()
    assert _sha256(logs.exp) == EXP_GOLDENS[p, k]
    assert _sha256(logs.zech) == ZECH_GOLDENS[p, k]
    ref = RefField(p, F.modulus)
    n = F.q - 1
    primes = [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]

    def has_full_order(c):
        return all(ref_power(ref, c, n // r) != 1 for r in primes)

    # g is the least element of order q - 1
    g = int(logs.exp[1])
    assert has_full_order(g)
    assert not any(has_full_order(c) for c in range(1, g))
    rng = random.Random(p * k)
    for e in [0, 1, 2, n - 1] + [rng.randrange(n) for _ in range(40)]:
        assert logs.exp[e] == ref_power(ref, g, e), e
    assert logs.exp[-1] == 0 and logs.exp.size == F.q


def test_log_table_build_peaks_near_the_tables_it_keeps():
    # the Zech index is built a block at a time, with no q-sized temporary
    F = GF(5, 8, make_field(5, 8).modulus)  # a fresh copy: no tables yet
    tracemalloc.start()
    try:
        logs = F._log_tables()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = logs.exp.nbytes + logs.log.nbytes + logs.zech.nbytes
    assert peak < 1.45 * kept


def test_field_identity_and_render():
    F = make_field(3, 2)
    assert not F.torsion_free
    assert F.render(5) == "5"
    assert F == make_field(3, 2)
    assert F != make_field(2, 2)
