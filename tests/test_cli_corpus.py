"""The CLI byte-identity corpus (see tests/cli_corpus.py), every call.

The same runs, with a report of each mismatch, are
``PYTHONPATH=src python3 tests/cli_corpus.py`` and the same with
``--threads 2``.
"""

import cli_corpus


def test_corpus_digests_are_one_per_call():
    lines = cli_corpus.pinned()
    assert len(lines) == len(cli_corpus.corpus())
    assert len(set(lines)) == len(lines)


def test_corpus_slice_matches_its_digests():
    calls = cli_corpus.corpus()
    assert cli_corpus.mismatches(range(len(calls))) == []


def test_corpus_slice_matches_with_two_threads_on_every_grid():
    calls = cli_corpus.corpus()
    assert cli_corpus.mismatches(range(len(calls)), threads=2) == []
