"""A fixed slice of the CLI byte-identity corpus (see tests/cli_corpus.py).

The whole corpus runs with ``PYTHONPATH=src python3 tests/cli_corpus.py``,
and again with ``--threads 2``.
"""

import cli_corpus

# every STRIDE-th call, and the error cases at the end in full
STRIDE = 4


def _slice() -> list[int]:
    calls = cli_corpus.corpus()
    errors = len(cli_corpus.error_calls())
    head = range(0, len(calls) - errors, STRIDE)
    return [*head, *range(len(calls) - errors, len(calls))]


def test_corpus_digests_are_one_per_call():
    lines = cli_corpus.pinned()
    assert len(lines) == len(cli_corpus.corpus())
    assert len(set(lines)) == len(lines)


def test_corpus_slice_matches_its_digests():
    assert cli_corpus.mismatches(_slice()) == []


def test_corpus_slice_matches_with_two_threads_on_every_grid():
    assert cli_corpus.mismatches(_slice()[1::3], threads=2) == []
