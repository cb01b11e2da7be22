"""The CLI byte-identity corpus (see tests/cli_corpus.py), every call.

The same runs, with a report of each mismatch, are
``PYTHONPATH=src python3 tests/cli_corpus.py`` and the same with
``--threads 2``.
"""

import cli_corpus
from wittzeta import counting


def test_corpus_digests_are_one_per_call():
    lines = cli_corpus.pinned()
    assert len(lines) == len(cli_corpus.corpus())
    assert len(set(lines)) == len(lines)


def test_corpus_slice_matches_its_digests():
    calls = cli_corpus.corpus()
    assert cli_corpus.mismatches(range(len(calls))) == []


def test_corpus_slice_matches_with_two_threads_on_every_grid(monkeypatch):
    # two CPUs whatever the host, so that every grid counted reaches the
    # thread pool: it is given threads 2 and its worker runs on two ranges,
    # since corpus_env lowers counting._CHUNK_MIN to 1
    monkeypatch.setattr(counting.os, "cpu_count", lambda: 2)
    calls = cli_corpus.corpus()
    with cli_corpus.grid_splits() as grids:
        assert cli_corpus.mismatches(range(len(calls)), threads=2) == []
    assert grids, "the two-thread pass counted no grid"
    assert set(grids) == {(2, 2)}
