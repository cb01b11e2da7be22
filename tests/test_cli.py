"""End-to-end command-line checks driven through cli.main."""

import json
import os
import subprocess
import sys
import time

import pytest

from wittzeta import cli
from wittzeta.verdict import Verdict


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# witt group


def test_witt_mul_teichmuller_product(capsys):
    code, out, _ = run(
        capsys, "witt", "mul", "--a", "1-2*t", "--inv-a",
        "--b", "1-3*t", "--inv-b", "--prec", "4",
    )
    assert code == 0
    assert out == "1 + 6*t + 36*t^2 + 216*t^3 + 1296*t^4 + O(t^5)\n"


def test_witt_add_is_series_multiplication(capsys):
    code, out, _ = run(
        capsys, "witt", "add", "--a", "1-2*t", "--inv-a",
        "--b", "1-3*t", "--inv-b", "--prec", "3",
    )
    assert code == 0
    assert out == "1 + 5*t + 19*t^2 + 65*t^3 + O(t^4)\n"


def test_witt_neg_inverts_the_series(capsys):
    code, out, _ = run(capsys, "witt", "neg", "--a", "1+t", "--prec", "3")
    assert code == 0
    assert out == "1 - t + t^2 - t^3 + O(t^4)\n"


def test_witt_teichmuller(capsys):
    code, out, _ = run(capsys, "witt", "teichmuller", "--a", "2", "--prec", "4")
    assert code == 0
    assert out == "1 + 2*t + 4*t^2 + 8*t^3 + 16*t^4 + O(t^5)\n"


def test_witt_ghost_text_and_json(capsys):
    code, out, _ = run(
        capsys, "witt", "ghost", "--a", "1-2*t", "--inv-a", "--prec", "5"
    )
    assert code == 0
    assert out == "(2, 4, 8, 16, 32)\n"
    code, out, _ = run(
        capsys, "witt", "ghost", "--a", "1-2*t", "--inv-a", "--prec", "3",
        "--json",
    )
    assert code == 0
    assert json.loads(out) == {"ghost": ["2", "4", "8"]}


def test_witt_iota(capsys):
    code, out, _ = run(
        capsys, "witt", "iota", "--a", "1-t", "--inv-a", "--prec", "3"
    )
    assert code == 0
    assert out == "1 + t + O(t^4)\n"


# rat group


def test_rat_mul_inverse_and_polynomial_forms_agree(capsys):
    code, out, _ = run(
        capsys, "rat", "mul", "--a-num", "1", "--a-den", "1-2*t",
        "--b-num", "1", "--b-den", "1-3*t",
    )
    assert code == 0
    assert out == "(1)/(1 - 6*t)\n"
    code, out2, _ = run(
        capsys, "rat", "mul", "--a-num", "1-2*t", "--b-num", "1-3*t"
    )
    assert code == 0
    assert out2 == out


def test_rat_rationalize_recovers_weil_form(capsys):
    coeffs = "1,4,13,40,121,364,1093"
    code, out, _ = run(
        capsys, "rat", "rationalize", "--coeffs", coeffs, "--dmax", "2"
    )
    assert code == 0
    assert out == "(1)/(1 - 4*t + 3*t^2)\n"


def test_rat_rationalize_not_found(capsys):
    code, out, _ = run(
        capsys, "rat", "rationalize",
        "--coeffs", "1,4,13,40,121,364,1093", "--dmax", "1",
    )
    assert code == 1
    assert out == "NOT FOUND (dmax 1)\n"
    code, out, _ = run(
        capsys, "rat", "rationalize",
        "--coeffs", "1,4,13,40,121,364,1093", "--dmax", "1", "--json",
    )
    assert code == 1
    assert json.loads(out) == {"found": False, "dmax": 1}


# zeta group


def test_zeta_weil_rational_form(capsys):
    code, out, _ = run(
        capsys, "zeta", "weil", "--variety", "p1", "--q", "3", "--rationalize"
    )
    assert code == 0
    assert out == "(1)/(1 - 4*t + 3*t^2)\n"


def test_zeta_weil_json_series(capsys):
    code, out, _ = run(
        capsys, "zeta", "weil", "--variety", "gm", "--q", "5",
        "--prec", "4", "--json",
    )
    assert code == 0
    assert json.loads(out) == {
        "precision": 4,
        "coeffs": ["1", "4", "20", "100", "500"],
        "measure": "counting",
        "class": "affine(2){-1 + x*y}",
    }


def test_zeta_kapranov_uses_the_varietys_field(capsys):
    code, out, _ = run(
        capsys, "zeta", "kapranov", "--variety", "e5", "--prec", "2"
    )
    assert code == 0
    assert out == "1 + 9*t + 54*t^2 + O(t^3)\n"


def test_zeta_kapranov_euler(capsys):
    code, out, _ = run(
        capsys, "zeta", "kapranov", "--measure", "euler",
        "--variety-value", "2", "--prec", "4",
    )
    assert code == 0
    assert out == "1 + 2*t + 3*t^2 + 4*t^3 + 5*t^4 + O(t^5)\n"


def test_zeta_kapranov_poincare(capsys):
    code, out, _ = run(
        capsys, "zeta", "kapranov", "--measure", "poincare",
        "--variety-value", "1+u^2", "--prec", "2",
    )
    assert code == 0
    assert out == "1 + (1 + u^2)*t + (1 + u^2 + u^4)*t^2 + O(t^3)\n"


# check group


def test_check_totaro_golden(capsys):
    code, out, _ = run(
        capsys, "check", "totaro", "--variety", "p1", "--q", "2",
        "--n", "1", "--prec", "6",
    )
    assert code == 0
    assert out == "HOLDS (precision 6)\n"


def test_check_totaro_trace(capsys):
    code, out, _ = run(
        capsys, "check", "totaro", "--variety", "p1", "--q", "2",
        "--n", "2", "--prec", "6", "--trace",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[-1] == "TRACE HOLDS (precision 6)"
    assert all(line.startswith(f"link {i}:") for i, line in enumerate(lines[:5], 1))


def test_check_totaro_trace_json(capsys):
    code, out, _ = run(
        capsys, "check", "totaro", "--measure", "euler",
        "--variety-value", "2", "--n", "1", "--prec", "5",
        "--trace", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is True
    assert len(data["links"]) == 5


def test_check_expo(capsys):
    code, out, _ = run(
        capsys, "check", "expo", "--x", "a1", "--y", "p1", "--q", "3",
        "--prec", "5",
    )
    assert code == 0
    assert out == "HOLDS (precision 5)\n"
    code, out, _ = run(
        capsys, "check", "expo", "--measure", "euler",
        "--x-value", "2", "--y-value", "3", "--prec", "6",
    )
    assert code == 0
    assert out == "HOLDS (precision 6)\n"


def test_check_bundle_projective(capsys):
    code, out, _ = run(
        capsys, "check", "bundle", "--variety", "p1", "--q", "2",
        "--n", "2", "--kind", "projective", "--prec", "5",
    )
    assert code == 0
    assert out == "HOLDS (precision 5)\n"


def test_check_gident(capsys):
    code, out, _ = run(
        capsys, "check", "gident", "--g", "1 + a*t + b*t^2", "--s", "s",
        "--poly", "1 + a*t", "--prec", "6",
    )
    assert code == 0
    assert out == "HOLDS (precision 6)\n"


def test_check_lambda_axioms(capsys):
    code, out, _ = run(
        capsys, "check", "lambda-axioms", "--trials", "20", "--prec", "6"
    )
    assert code == 0
    assert out == "HOLDS (precision 6)\n"
    code, out, _ = run(
        capsys, "check", "lambda-axioms", "--structure", "plethystic",
        "--trials", "5", "--prec", "5", "--json",
    )
    assert code == 0
    assert json.loads(out) == {"holds": True, "precision": 5, "trials": 5}


def test_check_lambda_axioms_reports_its_first_failing_trial(capsys, monkeypatch):
    real = cli.check_lambda_additivity
    calls = []

    def fails_on_trial_2(structure, a, b, n):
        calls.append((a, b))
        verdict = real(structure, a, b, n)
        if len(calls) == 3:
            return Verdict(False, n, "lambda", 3, "7", "8")
        return verdict

    monkeypatch.setattr(cli, "check_lambda_additivity", fails_on_trial_2)
    code, out, err = run(
        capsys, "check", "lambda-axioms", "--trials", "5", "--prec", "4"
    )
    assert (code, out, err) == (1, "trial 2: FAILS at t^3: lhs=7, rhs=8\n", "")
    assert len(calls) == 3
    calls.clear()
    code, out, err = run(
        capsys, "check", "lambda-axioms", "--trials", "5", "--prec", "4",
        "--json",
    )
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "trial": 2, "holds": False, "precision": 4, "label": "lambda",
        "fail_index": 3, "lhs": "7", "rhs": "8",
    }


# count group


def test_count_points(capsys):
    code, out, _ = run(capsys, "count", "points", "--variety", "e5")
    assert code == 0
    assert out == "9\n"
    code, out, _ = run(
        capsys, "count", "points", "--variety", "e5", "--m", "2", "--json"
    )
    assert code == 0
    assert json.loads(out) == {"value": "27"}


def test_count_points_refuses_a_huge_field_at_once(capsys):
    # q = 5^99999999 is past the budget by its bit length alone, so the
    # call is refused before q is computed
    start = time.perf_counter()
    code, out, err = run(
        capsys, "count", "points", "--variety", "e5", "--m", "99999999"
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        "error: at least 5^99999999 tuples to enumerate, budget is 10000000\n"
    )


def test_count_points_inline_json_variety(capsys):
    code, out, _ = run(
        capsys, "count", "points",
        "--variety", '{"ambient": {"affine": 1}}', "--q", "7",
    )
    assert code == 0
    assert out == "7\n"


def test_count_points_variety_file(capsys):
    path = os.path.join(os.path.dirname(__file__), "..", "varieties", "e5.json")
    code, out, _ = run(capsys, "count", "points", "--variety", path)
    assert code == 0
    assert out == "9\n"


def test_count_census(capsys):
    code, out, _ = run(
        capsys, "count", "census", "--variety", "p1", "--q", "2",
        "--degree", "4",
    )
    assert code == 0
    assert out == "3, 1, 2, 3\n"


def test_count_sym_json(capsys):
    code, out, _ = run(
        capsys, "count", "sym", "--variety", "a1", "--q", "2",
        "--degree", "5", "--json",
    )
    assert code == 0
    assert json.loads(out) == {"counts": ["1", "2", "4", "8", "16", "32"]}


def test_count_threads_do_not_change_output(capsys):
    argv = ["count", "census", "--variety", "e5", "--degree", "6"]
    code, base, _ = run(capsys, *argv, "--threads", "1")
    assert code == 0
    code, threaded, _ = run(capsys, *argv, "--threads", "4")
    assert code == 0
    assert threaded == base


# error handling


def test_bad_field_size_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "count", "points", "--variety", "a1", "--q", "6"
    )
    assert code == 2
    assert out == ""
    assert err == "error: 6 is not a prime power\n"


def test_zero_precision_is_rejected(capsys):
    code, _, err = run(
        capsys, "witt", "teichmuller", "--a", "2", "--prec", "0"
    )
    assert code == 2
    assert err.startswith("error:")


def test_missing_counterpart_variety(capsys):
    code, _, err = run(
        capsys, "check", "expo", "--x", "a1", "--q", "2", "--prec", "4"
    )
    assert code == 2
    assert err == "error: --y is required for the counting measure\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("zeta", "kapranov", "--q", "2"),
         "--variety is required for the counting measure"),
        (("zeta", "kapranov", "--variety", "", "--q", "2"),
         "--variety is required for the counting measure"),
        (("check", "totaro", "--q", "2"),
         "--variety is required for the counting measure"),
        (("check", "bundle", "--q", "2"),
         "--variety is required for the counting measure"),
        (("check", "expo", "--y", "a1", "--q", "2"),
         "--x is required for the counting measure"),
        (("zeta", "kapranov", "--measure", "euler"),
         "--variety-value is required for the euler measure"),
        (("check", "totaro", "--measure", "euler"),
         "--variety-value is required for the euler measure"),
        (("check", "bundle", "--measure", "poincare"),
         "--variety-value is required for the poincare measure"),
        (("check", "expo", "--measure", "euler", "--y-value", "3"),
         "--x-value is required for the euler measure"),
        (("check", "expo", "--measure", "poincare", "--x-value", "1+u"),
         "--y-value is required for the poincare measure"),
        # the field is resolved from the first variety, before --y is read
        (("check", "expo", "--x", "a1"),
         "no finite field given; pass --q or a variety that declares p, k"),
        (("check", "expo", "--x", "a1", "--q", "6"),
         "6 is not a prime power"),
        # each measure reads only its own kind of class flag
        (("check", "totaro", "--measure", "poincare", "--variety", "nosuch",
          "--variety-value", "-1", "--q", "2", "--n", "2"),
         "--variety is not read by the poincare measure"),
        (("zeta", "kapranov", "--measure", "euler", "--variety", "a1",
          "--variety-value", "2"),
         "--variety is not read by the euler measure"),
        (("check", "bundle", "--measure", "euler", "--variety", "a1"),
         "--variety is not read by the euler measure"),
        (("check", "expo", "--measure", "poincare", "--x-value", "1+u",
          "--y", "a1", "--y-value", "u"),
         "--y is not read by the poincare measure"),
        (("zeta", "kapranov", "--variety", "a1", "--variety-value", "2",
          "--q", "5"),
         "--variety-value is not read by the counting measure"),
        (("check", "totaro", "--variety-value", "2", "--q", "5"),
         "--variety-value is not read by the counting measure"),
        (("check", "expo", "--x", "a1", "--x-value", "3", "--y", "a1",
          "--q", "5"),
         "--x-value is not read by the counting measure"),
        (("check", "expo", "--x", "a1", "--y", "a1", "--y-value", "3",
          "--q", "5"),
         "--y-value is not read by the counting measure"),
        # euler values are integers, and a bad one names its flag
        (("zeta", "kapranov", "--measure", "euler", "--variety-value", "x"),
         "--variety-value must be an integer for the euler measure, got 'x'"),
        (("check", "totaro", "--measure", "euler", "--variety-value", ""),
         "--variety-value must be an integer for the euler measure, got ''"),
        (("check", "expo", "--measure", "euler", "--x-value", "2",
          "--y-value", "1+u"),
         "--y-value must be an integer for the euler measure, got '1+u'"),
        # so does a poincare value that is no polynomial in u
        (("check", "expo", "--measure", "poincare", "--x-value", "1+u",
          "--y-value", "2*"),
         "--y-value must be a polynomial in u for the poincare measure, "
         "got '2*': unexpected end of input"),
        (("zeta", "kapranov", "--measure", "poincare", "--variety-value", "1+v"),
         "--variety-value must be a polynomial in u for the poincare measure, "
         "got '1+v': unknown variable 'v' at position 2"),
        # nor --q, which only the counting measure reads
        (("zeta", "kapranov", "--measure", "euler", "--variety-value", "2",
          "--q", "6"),
         "--q is not read by the euler measure"),
        (("check", "expo", "--measure", "poincare", "--x-value", "1+u",
          "--y-value", "u", "--q", "5"),
         "--q is not read by the poincare measure"),
    ],
)
def test_measure_and_class_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--prec", "4")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("zeta", "weil", "--prec", "3"),
        ("zeta", "kapranov", "--prec", "3"),
        ("count", "points", "--q", "3"),
        ("count", "census", "--q", "3"),
        ("count", "sym", "--q", "3"),
        ("check", "totaro", "--q", "3"),
        ("check", "bundle", "--q", "3"),
    ],
)
def test_empty_variety_names_its_flag(capsys, argv):
    code, out, err = run(capsys, *argv[:2], "--variety", "", *argv[2:])
    assert (code, out) == (2, "")
    assert err == "error: --variety is required for the counting measure\n"


def test_unknown_variety_name(capsys):
    why = ("'nosuch' is not a catalog name (pt a1 a2 gm p1 p2 e5), "
           "inline JSON or an existing file")
    code, out, err = run(capsys, "count", "points", "--variety", "nosuch", "--q", "2")
    assert (code, out, err) == (2, "", f"error: --variety {why}\n")
    code, out, err = run(capsys, "check", "expo", "--x", "nosuch", "--y", "a1",
                         "--q", "2")
    assert (code, out, err) == (2, "", f"error: --x {why}\n")


def test_a_malformed_variety_names_its_flag(capsys):
    bad = '{"p": 5.0, "ambient": {"affine": 1}}'
    why = '"p" must be an integer, got 5.0'
    for argv, flag in (
        (("--x", bad, "--y", "a1"), "x"),
        (("--x", "a1", "--y", bad), "y"),
    ):
        code, out, err = run(capsys, "check", "expo", *argv, "--q", "5")
        assert (code, out, err) == (2, "", f"error: --{flag}: {why}\n")
    code, out, err = run(capsys, "zeta", "weil", "--variety", "{", "--q", "5")
    assert (code, out) == (2, "")
    assert err.startswith("error: --variety: Expecting property name")


def test_a_field_size_past_trial_division_is_read_at_once(capsys):
    q = 1000000000000000003  # prime; trial division took minutes
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "points", "--variety", "a1", "--q", str(q))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (0, f"{q}\n", "")
    code, out, err = run(capsys, "count", "points", "--variety", "a1",
                         "--q", str(2 * q))
    assert (code, out, err) == (2, "", f"error: {2 * q} is not a prime power\n")
    q = 3**50 * 5  # past psi_13, and 5 proves it no prime power
    code, out, err = run(capsys, "count", "points", "--variety", "a1",
                         "--q", str(q))
    assert (code, out, err) == (2, "", f"error: {q} is not a prime power\n")


def _digits_of(n):
    """str(n) whatever the interpreter's int/str digit limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(n)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(before)


def test_integers_of_any_size_are_printed(capsys):
    get = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = get()
    want = _digits_of(5**7000)
    assert len(want) == 4893  # past Python's default limit of 4300 digits
    argv = ["count", "points", "--variety", "a1", "--q", "5", "--m", "7000"]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, f"{want}\n", "")
    code, out, err = run(capsys, *argv, "--json")
    assert (code, out, err) == (0, json.dumps({"value": want}) + "\n", "")
    assert get() == before


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="Python before 3.10.7 has no digit limit",
)
def test_the_callers_digit_limit_is_given_back(capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        argv = ["count", "points", "--variety", "a1", "--q", "5", "--m", "9000"]
        assert run(capsys, *argv)[0] == 0
        assert sys.get_int_max_str_digits() == 5000
        with pytest.raises(SystemExit):
            cli.main(["witt", "mul", "--bogus"])
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


def test_missing_field(capsys):
    code, _, err = run(capsys, "count", "points", "--variety", "a1")
    assert code == 2
    assert err.startswith("error: no finite field given")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("rat", "rationalize", "--coeffs", "1,2,x"),
         "--coeffs must be comma-separated integers, got '1,2,x'"),
        (("rat", "rationalize", "--coeffs", ""),
         "--coeffs must be comma-separated integers, got ''"),
        (("rat", "rationalize", "--coeffs", "1,4,13,40", "--dmax", "-1"),
         "--dmax must be at least 0, got -1"),
        (("zeta", "weil", "--variety", "p1", "--q", "3", "--rationalize",
          "--dmax", "-1"),
         "--dmax must be at least 0, got -1"),
        (("zeta", "kapranov", "--measure", "euler", "--variety-value", "2",
          "--rationalize", "--dmax", "-2", "--json"),
         "--dmax must be at least 0, got -2"),
        # a bad --prec is still reported first
        (("zeta", "weil", "--variety", "p1", "--q", "3", "--prec", "0",
          "--rationalize", "--dmax", "-1"),
         "--prec must be at least 1, got 0"),
        # errors of the series itself are unchanged
        (("rat", "rationalize", "--coeffs", "2,4,8,16", "--dmax", "1"),
         "numerator and denominator need constant term 1"),
        (("rat", "rationalize", "--coeffs", "0,0,0,0,0", "--dmax", "1"),
         "numerator and denominator need constant term 1"),
        (("rat", "rationalize", "--coeffs", "1,2,3", "--dmax", "1"),
         "need 2*dmax < precision, got dmax=1, precision=2"),
    ],
)
def test_rationalize_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("count", "points", "--variety", "a1", "--q", "3", "--threads", "0"),
         "--threads must be at least 1, got 0"),
        (("zeta", "weil", "--variety", "e5", "--prec", "3", "--threads", "-2"),
         "--threads must be at least 1, got -2"),
        (("check", "totaro", "--variety", "p1", "--q", "3", "--threads", "0",
          "--json"),
         "--threads must be at least 1, got 0"),
        (("count", "census", "--variety", "p1", "--q", "3", "--degree", "-1"),
         "--degree must be at least 0, got -1"),
        (("count", "sym", "--variety", "e5", "--degree", "-3", "--threads",
          "2"),
         "--degree must be at least 0, got -3"),
    ],
)
def test_threads_and_degree_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("check", "lambda-axioms", "--trials", "0"),
         "--trials must be at least 1, got 0"),
        (("check", "lambda-axioms", "--trials", "-5", "--json"),
         "--trials must be at least 1, got -5"),
        (("check", "bundle", "--measure", "euler", "--variety-value", "2",
          "--kind", "projective", "--n", "-1"),
         "--n must be at least 0, got -1"),
        (("check", "totaro", "--measure", "euler", "--variety-value", "2",
          "--n", "-1"),
         "--n must be at least 0, got -1"),
        (("check", "totaro", "--measure", "poincare", "--variety-value", "u",
          "--n", "-1"),
         "--n must be at least 0, got -1"),
        (("check", "bundle", "--variety", "a1", "--q", "3", "--n", "-1"),
         "--n must be at least 0, got -1"),
        # checked before any class is resolved
        (("check", "totaro", "--variety", "nosuch", "--n", "-1"),
         "--n must be at least 0, got -1"),
        (("witt", "mul", "--a", "1-t", "--b", "1+t", "--prec", "-2"),
         "--prec must be at least 1, got -2"),
        # --m, --degree and --dmax too, before a bad variety or --coeffs
        (("count", "points", "--variety", "nosuch", "--m", "0"),
         "--m must be at least 1, got 0"),
        (("count", "sym", "--variety", "{", "--degree", "-1"),
         "--degree must be at least 0, got -1"),
        (("zeta", "weil", "--variety", "nosuch", "--rationalize",
          "--dmax", "-1"),
         "--dmax must be at least 0, got -1"),
        (("rat", "rationalize", "--coeffs", "1,2,x", "--dmax", "-1"),
         "--dmax must be at least 0, got -1"),
    ],
)
def test_bounded_integer_flags_name_themselves(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_dmax_is_not_read_without_rationalize(capsys):
    code, out, _ = run(
        capsys, "zeta", "weil", "--variety", "p1", "--q", "3", "--prec", "3",
        "--dmax", "-1",
    )
    assert code == 0
    assert out == run(
        capsys, "zeta", "weil", "--variety", "p1", "--q", "3", "--prec", "3"
    )[1]


def _run_to_exit(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the argv
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PARSER_REUSE_ARGV = (
    ("rat", "rationalize", "--coeffs", "1,4,13,40,121,364,1093", "--dmax", "2"),
    ("witt", "mul", "--a", "1-2*t"),  # argparse: --b is required
    ("rat", "rationalize", "--coeffs", "1,4,13,40,121,364,1093", "--dmax", "1",
     "--json"),
    ("zeta", "kapranov", "--measure", "euler", "--variety-value", "2",
     "--prec", "4"),
    ("check", "expo", "--measure", "bogus"),  # argparse: invalid choice
    ("witt", "ghost", "--a", "1-2*t", "--inv-a", "--prec", "5", "--json"),
    ("rat", "rationalize", "--coeffs", "1,2,x"),
    ("count", "points", "--variety", "a1"),
    ("rat", "--help"),
)


def test_reused_parser_matches_a_fresh_parser_per_call(capsys):
    fresh = {}
    for argv in PARSER_REUSE_ARGV:
        cli._parser.cache_clear()
        fresh[argv] = _run_to_exit(capsys, argv)
    assert {code for code, _, _ in fresh.values()} == {0, 1, 2}
    cli._parser.cache_clear()
    for order in (PARSER_REUSE_ARGV, PARSER_REUSE_ARGV[::-1]) * 2:
        for argv in order:
            assert _run_to_exit(capsys, argv) == fresh[argv], argv
    assert cli._parser.cache_info().misses == 1


def test_argparse_usage_error_exits_two():
    with pytest.raises(SystemExit) as info:
        cli.main(["witt", "mul", "--a", "1-2*t"])
    assert info.value.code == 2


def test_a_value_with_a_leading_minus_is_given_with_an_equals_sign(capsys):
    # argparse reads "-t+1" after a space as a flag, and the top-level help
    # names the "=" form, which passes it as the value
    with pytest.raises(SystemExit) as info:
        cli.main(["witt", "add", "--a", "1-t", "--b", "-t+1", "--prec", "3"])
    assert info.value.code == 2
    assert "argument --b: expected one argument" in capsys.readouterr().err
    code, out, _ = run(
        capsys, "witt", "add", "--a", "1-t", "--b=-t+1", "--prec", "3"
    )
    assert code == 0
    assert out == "1 - 2*t + t^2 + O(t^4)\n"
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "give it with an equals sign: --b=-t+1." in help_text


def test_module_entry_point_subprocess():
    # the child imports the package this test imported, however pytest found it
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [
            sys.executable, "-m", "wittzeta.cli",
            "witt", "ghost", "--a", "1-2*t", "--inv-a", "--prec", "5",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "(2, 4, 8, 16, 32)\n"
