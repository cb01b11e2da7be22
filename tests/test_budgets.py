"""The budgets table: its rows, its one message shape, the README's
statement of it, and calls over fields too large to write down."""

import re
import time
from pathlib import Path

import numpy as np
import pytest

from wittzeta import cli, zeta
from wittzeta.budgets import BUDGETS, EXACT_BITS, check
from wittzeta.counting import count_points
from wittzeta.errors import BudgetExceeded
from wittzeta.finitefield import GF, make_field
from wittzeta.measures import counting_measure
from wittzeta.varieties import CATALOG, projective_space

README = (Path(__file__).parent.parent / "README.md").read_text()


def test_every_row_refuses_past_its_limit_in_one_shape():
    for row, (limit, unit) in BUDGETS.items():
        check(row, limit, "at the limit: ")
        message = f"^past it: {limit + 1} {unit}, budget is {limit}$"
        with pytest.raises(BudgetExceeded, match=message):
            check(row, limit + 1, "past it: ")
        # a cost too large to compute is named, and past every limit
        with pytest.raises(BudgetExceeded, match=f"^at least 5\\^99 {unit},"):
            check(row, "5^99", "at least ")


def test_readme_states_every_row_of_the_table():
    # a limit changed in the table and not in the README fails here
    conventions = README.split("\n## Conventions\n", 1)[1].split("\n## ", 1)[0]
    text = " ".join(conventions.split())  # a bullet wraps anywhere
    assert "`budgets`" in text
    for row, (limit, unit) in BUDGETS.items():
        stated = re.findall(rf"10\^(\d+) {unit}", text)
        assert stated, f"the README states no 10^e {unit}"
        assert {10 ** int(e) for e in stated} == {limit}, row


def test_one_row_moves_the_chart_budget_and_the_log_table_bound(monkeypatch):
    # the chart x = 1 of e5 over F_(5^3) enumerates 125 tuples, and the
    # field's log tables have 125 entries
    small = BUDGETS["tuples"]._replace(limit=100)
    monkeypatch.setitem(BUDGETS, "tuples", small)
    message = "^125 tuples to enumerate, budget is 100$"
    with pytest.raises(BudgetExceeded, match=message):
        count_points(CATALOG["e5"](), 3)
    F = GF(5, 3, make_field(5, 3).modulus)  # a fresh copy: no tables yet
    message = "^discrete-log tables of GF\\(125\\): 125 tuples to enumerate"
    with pytest.raises(BudgetExceeded, match=message):
        F.vec_add(np.arange(3), np.arange(3))
    assert F._logs is None


def test_the_lower_bound_of_a_huge_field_never_passes_the_exact_cost():
    # past EXACT_BITS the series cost is bounded from bits(q - 1) >=
    # k (bits(p) - 1), so it refuses only what the exact cost refuses
    for p in (2, 3, 5, 7, 251, 257, 65521):
        for k in range(1, EXACT_BITS // p.bit_length() + 2, 7):
            bits = k * (p.bit_length() - 1)
            assert bits <= (p**k - 1).bit_length()
            for n, w in ((0, 1), (2, 2), (40, 1), (300, 3)):
                lower = zeta._expansion_cost(n, w, bits)
                exact = zeta._expansion_cost(n, w, (p**k - 1).bit_length())
                assert lower <= exact


HUGE = '{"ambient": {"%s": %d}, "p": %d, "k": %d}'


@pytest.mark.parametrize("p,k", [(3, 10**6), (2, 10**8)])
def test_a_huge_field_is_refused_without_writing_q(capsys, p, k):
    argv = ["zeta", "weil", "--variety", HUGE % ("projective", 2, p, k)]
    start = time.perf_counter()
    code = cli.main(argv + ["--prec", "2"])
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert code == 2
    assert re.fullmatch(
        f"error: --prec 2 would expand a zeta over F_\\({p}\\^{k}\\) to at"
        " least \\d{10,14} bit units, budget is 100000000\n",
        err,
    )


@pytest.mark.parametrize("k", [10**6, 4 * 10**6])
def test_a_window_of_one_coefficient_prices_the_certified_form(k):
    # P^2's form 1/((1 - t)(1 - q t)(1 - q^2 t)) has a coefficient q^3
    # even where the window t^0 holds only 1
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="^--prec 0 would expand"):
        zeta.kapranov_zeta(counting_measure(3, k), projective_space(2), 0)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "argv,out",
    [
        (["zeta", "weil", "--prec", "2"], "1 + t + t^2 + O(t^3)\n"),
        (["count", "points"], "1\n"),
    ],
)
def test_a_point_over_a_huge_field_is_answered_at_once(capsys, argv, out):
    variety = HUGE % ("affine", 0, 3, 10**8)
    start = time.perf_counter()
    code = cli.main(argv[:2] + ["--variety", variety] + argv[2:])
    assert time.perf_counter() - start < 1.0
    assert (code, capsys.readouterr().out) == (0, out)
