
import pytest

from wittzeta.errors import ParseError
from wittzeta.parsing import parse_poly
from wittzeta.rings import poly_ring


R1 = poly_ring(("t",))
R2 = poly_ring(("x", "y"))


def coeffs(text):
    """Map of exponent tuple -> coefficient for a 1-variable parse."""
    return dict(parse_poly(text, ("t",)))


def test_constants_and_signs():
    assert coeffs("7") == {(0,): 7}
    assert coeffs("-7") == {(0,): -7}
    assert coeffs("--7") == {(0,): 7}
    assert parse_poly("0", ("t",)) == R1.zero


def test_linear_and_powers():
    assert coeffs("1-2*t") == {(0,): 1, (1,): -2}
    assert coeffs("t^3") == {(3,): 1}
    assert coeffs("2*t^2 - t + 5") == {(2,): 2, (1,): -1, (0,): 5}


def test_parentheses_and_products():
    assert coeffs("(1-t)*(1+t)") == {(0,): 1, (2,): -1}
    assert coeffs("(1+t)^3") == {(0,): 1, (1,): 3, (2,): 3, (3,): 1}
    assert coeffs("-(1+t)") == {(0,): -1, (1,): -1}


def test_power_binds_tighter_than_product():
    # 2*t^2 is 2*(t^2), not (2*t)^2
    assert coeffs("2*t^2") == {(2,): 2}


def test_multivariate():
    p = parse_poly("x^2*y - 3*y + 1", ("x", "y"))
    assert dict(p) == {(2, 1): 1, (0, 1): -3, (0, 0): 1}


def test_unknown_variable_rejected():
    with pytest.raises(ParseError):
        parse_poly("1+z", ("t",))


def test_malformed_inputs_rejected():
    for bad in ("", "1+", "(1", "t^", "t^t", "1 2", "*t", "t^-2"):
        with pytest.raises(ParseError):
            parse_poly(bad, ("t",))


def test_errors_at_end_of_input_say_so():
    with pytest.raises(ParseError) as exc:
        parse_poly("t^", ("t",))
    assert str(exc.value) == "exponent must be an integer literal at end of input"
    with pytest.raises(ParseError) as exc:
        parse_poly("(1-t", ("t",))
    assert str(exc.value) == "expected ')' at end of input"


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_poly("2t", ("t",))
    with pytest.raises(ParseError):
        parse_poly("(1+t)(1-t)", ("t",))
