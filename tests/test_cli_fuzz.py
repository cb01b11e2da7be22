"""The seeded CLI fuzzer (see tests/cli_fuzz.py): 2000 calls of seed 0.

A longer run, with a report of each failing call, is
``PYTHONPATH=src python3 tests/cli_fuzz.py --calls 20000 --seed 7``.
"""

import time

import cli_fuzz
import pytest
from cli_corpus import SUBCOMMANDS

from wittzeta import cli


def test_seeded_calls_end_cleanly_and_in_time():
    failures, codes, commands = cli_fuzz.fuzz(seed=0, calls=2000)
    assert failures == []
    assert sum(codes.values()) == 2000
    # at least a third of the calls get past the parser and the input checks
    assert 3 * (codes[0] + codes[1]) >= 2000
    assert set(commands) == set(SUBCOMMANDS)


def _sleep(argv):
    time.sleep(2)
    return 0


@pytest.mark.parametrize(
    "main,problem",
    [
        (lambda argv: 1 / 0, "ZeroDivisionError escaped main"),
        (lambda argv: 3, "exit code 3"),
        (lambda argv: 0, "exit 0 printed nothing"),
        (lambda argv: 2, "exit 2 without an error line"),
        (_sleep, "no exit within 0.1 s"),
    ],
)
def test_the_fuzzer_reports_each_kind_of_failure(monkeypatch, main, problem):
    monkeypatch.setattr(cli, "main", main)
    monkeypatch.setattr(cli_fuzz, "TIME_LIMIT", 0.1)
    assert cli_fuzz.check_call(("count", "points"))[1].startswith(problem)
