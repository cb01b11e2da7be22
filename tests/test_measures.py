"""Measures: atom valuation, linear extension, affine-line values."""

import pytest

from wittzeta import (
    SymbolicAtom,
    UnvaluedAtom,
    ZU,
    affine_space,
    as_k0,
    atom_value,
    counting_measure,
    elliptic_f5,
    euler_atom,
    euler_measure,
    k0_add,
    k0_atom,
    k0_mul,
    k0_neg,
    k0_scale,
    lefschetz_power,
    measure_value,
    multiplicative_group,
    point,
    poincare_atom,
    poincare_measure,
)


def test_counting_measure_parameters():
    mu = counting_measure(5)
    assert (mu.p, mu.k) == (5, 1)
    assert mu.policy == "census"
    assert mu.lefschetz == 5
    assert counting_measure(2, 3).lefschetz == 8


def test_counting_measure_values_varieties():
    mu = counting_measure(5)
    assert atom_value(mu, point()) == 1
    assert atom_value(mu, multiplicative_group()) == 4
    assert atom_value(mu, elliptic_f5()) == 9


def test_counting_measure_respects_its_own_field():
    # the measure's field wins over the variety's embedded one
    mu = counting_measure(5, 2)
    assert atom_value(mu, elliptic_f5()) == 27


def test_euler_measure_values():
    mu = euler_measure()
    assert mu.lefschetz == 1
    assert atom_value(mu, euler_atom("X", 2)) == 2
    assert atom_value(mu, euler_atom("C", -2)) == -2


def test_poincare_measure_values():
    mu = poincare_measure()
    assert mu.lefschetz == ZU.from_terms({(2,): 1})
    p1 = poincare_atom("P1", [1, 0, 1])
    assert ZU.render(atom_value(mu, p1)) == "1 + u^2"


def test_poincare_integer_values_are_coerced():
    mu = poincare_measure()
    atom = SymbolicAtom.make("pt", {"poincare": 1})
    assert atom_value(mu, atom) == ZU.one


def test_sigma_measures_reject_raw_varieties():
    with pytest.raises(UnvaluedAtom):
        atom_value(euler_measure(), affine_space(1))
    with pytest.raises(UnvaluedAtom):
        atom_value(poincare_measure(), point())


def test_missing_value_table_entry():
    atom = euler_atom("X", 3)
    assert atom_value(euler_measure(), atom) == 3
    with pytest.raises(UnvaluedAtom):
        atom_value(poincare_measure(), atom)


def test_measure_value_extends_linearly():
    mu = counting_measure(3)
    cls = k0_add(k0_atom(affine_space(1)), k0_scale(2, k0_atom(point())))
    assert measure_value(mu, cls) == 3 + 2
    assert measure_value(mu, k0_neg(cls)) == -5


def test_measure_value_accepts_bare_atoms():
    mu = counting_measure(2)
    assert measure_value(mu, affine_space(2)) == 4
    assert as_k0(affine_space(2)).terms == k0_atom(affine_space(2)).terms


def test_measure_value_is_multiplicative_on_products():
    mu = counting_measure(3)
    a = k0_atom(multiplicative_group())
    b = k0_atom(affine_space(1))
    assert measure_value(mu, k0_mul(a, b)) == 2 * 3


def test_euler_linear_combinations():
    mu = euler_measure()
    cls = k0_add(k0_atom(euler_atom("X", 2)), k0_atom(euler_atom("Y", -1)))
    assert measure_value(mu, cls) == 1


def test_poincare_linear_combinations():
    mu = poincare_measure()
    cls = k0_add(
        k0_atom(poincare_atom("P1", [1, 0, 1])),
        k0_neg(k0_atom(poincare_atom("pt", [1]))),
    )
    assert ZU.render(measure_value(mu, cls)) == "u^2"


def test_poincare_product_of_an_integer_and_a_polynomial_value():
    mu = poincare_measure()
    a = k0_atom(SymbolicAtom.make("A", {"poincare": 2}))
    b = k0_atom(poincare_atom("B", [1, 0, 1]))
    assert ZU.render(measure_value(mu, k0_add(a, b))) == "3 + u^2"
    for product in (k0_mul(a, b), k0_mul(b, a)):
        assert measure_value(mu, product) == ZU.from_terms({(0,): 2, (2,): 2})


def test_lefschetz_powers():
    assert lefschetz_power(counting_measure(2), 5) == 32
    assert lefschetz_power(euler_measure(), 7) == 1
    got = lefschetz_power(poincare_measure(), 3)
    assert ZU.render(got) == "u^6"
    assert lefschetz_power(counting_measure(7), 0) == 1
