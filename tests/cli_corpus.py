"""Seeded corpus of command-line calls whose exact output is pinned.

Every call runs ``wittzeta.cli.main`` in-process.  Its digest is the
sha256 of its stdout, its stderr and its exit code; an argparse
``SystemExit`` counts as that exit code.  ``cli_corpus.sha256`` holds one
line per call: the digest, two spaces, and the argv as a shell quotes it.

The corpus covers ``count points|census|sym``, ``zeta weil|kapranov``
(with ``--rationalize``), ``check totaro|bundle|expo|gident|lambda-axioms``,
``witt *`` and ``rat *``, on catalog varieties, random inline varieties
and varieties with two equations over F_(p^k) for p = 2..13 and
k = 1, 2, 3, in text and in ``--json``, plus usage and input errors and
every subcommand's ``--help`` text.

Run from the repository root::

    PYTHONPATH=src python3 tests/cli_corpus.py               # every call
    PYTHONPATH=src python3 tests/cli_corpus.py --threads 2   # same digests
    PYTHONPATH=src python3 tests/cli_corpus.py --write       # regenerate

With ``--threads 2`` every call whose command reads ``--threads`` (and
does not set it already) gets ``--threads 2`` appended, and
``counting._CHUNK_MIN`` is patched to 1 so that every grid splits; the
digests must not change.  Each call that does not match is printed with
both digests and its new exit code, stdout and stderr, and the last line
says how many of the grids counted were split across threads (none on a
host with one CPU).
``tests/test_cli_corpus.py`` runs every call at both thread counts.
Argparse's usage errors are part of the pinned output, so the digests hold
for the Python version they were written with (3.11).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import shlex
import sys
from pathlib import Path

SEED = 20141
ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "cli_corpus.sha256"

FIELDS = [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in (1, 2, 3)]
CATALOG_NAMES = ("pt", "a1", "a2", "gm", "p1", "p2", "e5")
# grid variables each catalog variety enumerates per field element
CATALOG_VARS = {"pt": 0, "a1": 1, "a2": 2, "gm": 2, "p1": 1, "p2": 2, "e5": 2}
# commands that read --threads
THREADED = {
    ("zeta", "weil"), ("zeta", "kapranov"),
    ("check", "expo"), ("check", "totaro"), ("check", "bundle"),
    ("count", "points"), ("count", "census"), ("count", "sym"),
}
SUBCOMMANDS = (
    *(("witt", a) for a in ("add", "mul", "neg", "teichmuller", "ghost",
                            "iota")),
    ("rat", "mul"), ("rat", "rationalize"),
    ("zeta", "weil"), ("zeta", "kapranov"),
    *(("check", a) for a in ("expo", "totaro", "bundle", "gident",
                             "lambda-axioms")),
    ("count", "points"), ("count", "census"), ("count", "sym"),
)
GRID_CURVE = json.dumps(
    {"ambient": {"affine": 2}, "equations": ["x^3*y+y^3+x+1"]}
)
GRID_SURFACE = json.dumps(
    {"ambient": {"projective": 3}, "equations": ["x^3+y^3+z^3+w^3+x*y*z"]}
)
# largest grid, in tuples, one corpus call enumerates for one field
GRID_LIMIT = 300_000


def _depth(q: int, nvars: int, most: int, limit: int = GRID_LIMIT) -> int:
    """Largest d <= most with q^(d*nvars) within the grid limit, at least 1."""
    d = 1
    while d < most and q ** ((d + 1) * max(nvars, 1)) <= limit:
        d += 1
    return d


def _poly_text(rng: random.Random, terms) -> str:
    """Random integer combination of the given monomial texts."""
    parts = []
    for mono in terms:
        c = rng.choice((-3, -2, -1, 1, 1, 2, 3))
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append("-" + mono)
        else:
            parts.append(f"{c}*{mono}")
    text = parts[0]
    for part in parts[1:]:
        text += part if part.startswith("-") else "+" + part
    return text


def _monomial(names, exps) -> str:
    return "*".join(
        v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e
    )


def _random_equation(rng, names, degree: int, homogeneous: bool) -> str:
    exps = [
        e for e in itertools.product(range(degree + 1), repeat=len(names))
        if (sum(e) == degree if homogeneous else 0 < sum(e) <= degree)
    ]
    top = [e for e in exps if sum(e) == degree]
    chosen = {rng.choice(top)}
    for _ in range(rng.randint(1, 3)):
        chosen.add(rng.choice(exps))
    terms = [_monomial(names, e) for e in sorted(chosen)]
    if not homogeneous and rng.random() < 0.6:
        terms.append("")
    return _poly_text(rng, terms)


def _random_variety(rng, p: int, k: int, declare: bool):
    """(inline JSON text, grid variables) of a random one-equation variety."""
    kind = rng.choice(("affine", "projective"))
    dim = rng.randint(1, 2)
    nvars = dim if kind == "affine" else dim + 1
    names = "xyzw"[:nvars]
    data: dict = {}
    if declare:
        data["p"] = p
        if k > 1 or rng.random() < 0.5:
            data["k"] = k
    data["ambient"] = {kind: dim}
    if rng.random() < 0.9:
        degree = rng.randint(1, 3)
        data["equations"] = [
            _random_equation(rng, names, degree, kind == "projective")
        ]
    return json.dumps(data), dim


def _json(rng) -> tuple:
    return ("--json",) if rng.random() < 0.5 else ()


def _counting_calls(rng, variety: str, q_args: tuple, q: int, nvars: int):
    """Counting-measure calls on one variety over one field."""
    calls = []
    d = _depth(q, nvars, 4)
    calls.append(("count", "points", "--variety", variety, *q_args,
                  "--m", str(rng.randint(1, d)), *_json(rng)))
    calls.append(("count", "census", "--variety", variety, *q_args,
                  "--degree", str(rng.randint(0, d)), *_json(rng)))
    calls.append(("count", "sym", "--variety", variety, *q_args,
                  "--degree", str(rng.randint(0, d)), *_json(rng)))
    prec = _depth(q, nvars, 8)
    command = rng.choice(("weil", "kapranov"))
    calls.append(("zeta", command, "--variety", variety, *q_args,
                  "--prec", str(prec), *_json(rng)))
    if prec >= 3:
        calls.append(("zeta", command, "--variety", variety, *q_args,
                      "--prec", str(prec), "--rationalize",
                      "--dmax", str(rng.randint(0, (prec - 1) // 2)),
                      *_json(rng)))
    n = rng.randint(1, 2)
    calls.append(("check", "totaro", "--variety", variety, *q_args,
                  "--n", str(n), "--prec", str(_depth(q, nvars, 4)),
                  *(("--trace",) if rng.random() < 0.3 else ()),
                  *_json(rng)))
    calls.append(("check", "bundle", "--variety", variety, *q_args,
                  "--n", str(n), "--kind", rng.choice(("fiber", "projective")),
                  "--prec", str(_depth(q, nvars + n, 3)), *_json(rng)))
    return calls


def catalog_calls(rng):
    calls = []
    for name in CATALOG_NAMES:
        nvars = CATALOG_VARS[name]
        for p, k in FIELDS:
            if rng.random() < 0.4:
                continue
            q = p**k
            calls += _counting_calls(rng, name, ("--q", str(q)), q, nvars)
    # e5 declares F_5; a path to a variety file reads the same
    for source in ("e5", "varieties/e5.json", "varieties/p2.json"):
        q_args = () if source != "varieties/p2.json" else ("--q", "4")
        calls += _counting_calls(rng, source, q_args, 5, 2)
    for x, y in [("a1", "gm"), ("p1", "pt"), ("gm", "gm"), ("a1", "p1")]:
        for q in (2, 3, 4, 7, 9):
            calls.append(("check", "expo", "--x", x, "--y", y, "--q", str(q),
                          "--prec", str(_depth(q, 2, 4)), *_json(rng)))
    calls.append(("check", "expo", "--x", "e5", "--y", "p1",
                  "--prec", "3", *_json(rng)))
    # cubic in every variable, so no chart has a closed form: full grids
    for degree, variety in enumerate((GRID_CURVE, GRID_SURFACE), 2):
        for q in (64, 121, 169, 243, 343, 1331, 2197):
            m = _depth(q, degree, 3)
            if q**degree <= 10**7:
                calls.append(("count", "points", "--variety", variety,
                              "--q", str(q), "--m", str(m), *_json(rng)))
    return calls


def random_variety_calls(rng):
    calls = []
    for p, k in FIELDS:
        for _ in range(3):
            declare = rng.random() < 0.5
            variety, nvars = _random_variety(rng, p, k, declare)
            q = p**k
            q_args = () if declare else ("--q", str(q))
            family = _counting_calls(rng, variety, q_args, q, nvars)
            calls += rng.sample(family, 4)
        other, _ = _random_variety(rng, p, k, False)
        calls.append(("check", "expo", "--x", other, "--y", "a1",
                      "--q", str(p**k), "--prec", str(_depth(p**k, 3, 3)),
                      *_json(rng)))
    return calls


def _u_poly(rng) -> str:
    terms = ["", "u", "u^2", "u^3"][: rng.randint(1, 4)]
    return _poly_text(rng, terms)


def sigma_calls(rng):
    calls = []
    for measure in ("euler", "poincare"):
        for _ in range(12):
            value = (str(rng.randint(-4, 5)) if measure == "euler"
                     else _u_poly(rng))
            prec = str(rng.randint(1, 8))
            cls = ("--measure", measure, "--variety-value", value)
            calls.append(("zeta", "kapranov", *cls, "--prec", prec,
                          *_json(rng)))
            calls.append(("zeta", "kapranov", *cls, "--prec", "8",
                          "--rationalize", "--dmax", str(rng.randint(0, 3)),
                          *_json(rng)))
            calls.append(("check", "totaro", *cls, "--n",
                          str(rng.randint(0, 3)), "--prec", prec,
                          *(("--trace",) if rng.random() < 0.3 else ()),
                          *_json(rng)))
            calls.append(("check", "bundle", *cls, "--n",
                          str(rng.randint(0, 3)), "--kind",
                          rng.choice(("fiber", "projective")),
                          "--prec", prec, *_json(rng)))
            other = (str(rng.randint(-3, 3)) if measure == "euler"
                     else _u_poly(rng))
            calls.append(("check", "expo", "--measure", measure,
                          "--x-value", value, "--y-value", other,
                          "--prec", prec, *_json(rng)))
    return calls


def _t_poly(rng, unit: bool = True, most: int = 4) -> str:
    terms = ["t", "t^2", "t^3", "t^4", "t^5"][: rng.randint(0, most)]
    text = _poly_text(rng, terms) if terms else "0"
    head = "1" if unit or rng.random() < 0.8 else str(rng.choice((2, -1, 0)))
    if text == "0":
        return head
    return head + (text if text.startswith("-") else "+" + text)


def _series_flags(rng, name: str) -> tuple:
    inv = (f"--inv-{name}",) if rng.random() < 0.3 else ()
    return (f"--{name}", _t_poly(rng, unit=False), *inv)


def witt_calls(rng):
    calls = []
    for _ in range(25):
        prec = ("--prec", str(rng.randint(1, 10)))
        action = rng.choice(("add", "mul"))
        calls.append(("witt", action, *_series_flags(rng, "a"),
                      *_series_flags(rng, "b"), *prec, *_json(rng)))
        action = rng.choice(("neg", "ghost", "iota"))
        calls.append(("witt", action, *_series_flags(rng, "a"), *prec,
                      *_json(rng)))
        calls.append(("witt", "teichmuller", "--a", str(rng.randint(-5, 5)),
                      *prec, *_json(rng)))
    return calls


def _gident_poly(rng, with_t: bool) -> str:
    if with_t:
        monos = ["t", "a*t", "b*t", "s*t^2", "a*b*t^2", "t^3"]
    else:
        monos = ["a", "b", "s", "a*b", "s^2"]
    return _poly_text(rng, rng.sample(monos, rng.randint(1, 3)))


def check_series_calls(rng):
    calls = []
    for _ in range(10):
        calls.append(("check", "gident",
                      "--g", "1+" + _gident_poly(rng, True),
                      "--s", _gident_poly(rng, False),
                      "--poly", rng.choice(("1", "1-t", "1+2*t", "1-t+t^2")),
                      "--prec", str(rng.randint(1, 5)), *_json(rng)))
        calls.append(("check", "lambda-axioms",
                      "--structure", rng.choice(("binomial", "plethystic")),
                      "--trials", str(rng.randint(1, 4)),
                      "--seed", str(rng.randint(0, 99)),
                      "--prec", str(rng.randint(1, 6)), *_json(rng)))
    return calls


def _expand(num, den, n: int) -> list:
    """First n coefficients of num/den, den[0] == 1."""
    out = []
    for i in range(n):
        c = num[i] if i < len(num) else 0
        for j in range(1, min(i, len(den) - 1) + 1):
            c -= den[j] * out[i - j]
        out.append(c)
    return out


def rat_calls(rng):
    calls = []
    for _ in range(20):
        calls.append(("rat", "mul",
                      "--a-num", _t_poly(rng, most=3),
                      "--a-den", _t_poly(rng, unit=False, most=2),
                      "--b-num", _t_poly(rng, most=3),
                      "--b-den", _t_poly(rng, most=2), *_json(rng)))
        num = [1] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))]
        den = [1] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))]
        coeffs = _expand(num, den, rng.randint(4, 9))
        if rng.random() < 0.2:
            coeffs[-1] += 1
        calls.append(("rat", "rationalize",
                      "--coeffs", ",".join(map(str, coeffs)),
                      "--dmax", str(rng.randint(0, 4)), *_json(rng)))
    return calls


def error_calls():
    """Usage and input errors, one or more per documented failure."""
    variety_cmds = [
        ("zeta", "weil", "--prec", "3"),
        ("zeta", "kapranov", "--prec", "3"),
        ("count", "points", "--q", "3"),
        ("count", "census", "--q", "3"),
        ("count", "sym", "--q", "3"),
        ("check", "totaro", "--q", "3", "--prec", "3"),
        ("check", "bundle", "--q", "3", "--prec", "3"),
    ]
    calls = []
    for head in variety_cmds:
        calls.append((*head[:2], "--variety", "", *head[2:]))
        calls.append((*head[:2], "--variety", "nosuch", *head[2:]))
        calls.append((*head[:2], "--variety", '{"ambient": {}}', *head[2:]))
        calls.append((*head[:2], "--variety", "{", *head[2:]))
        calls.append((*head[:2], "--variety", "p1", *head[2:], "--threads", "0"))
    calls.append(("check", "expo", "--x", "", "--y", "a1", "--q", "3"))
    calls.append(("check", "expo", "--x", "a1", "--y", "", "--q", "3"))
    for head in (("zeta", "weil", "--variety", "p1", "--q", "3"),
                 ("zeta", "kapranov", "--measure", "euler",
                  "--variety-value", "2"),
                 ("check", "totaro", "--variety", "a1", "--q", "2"),
                 ("check", "gident", "--g", "1+a*t", "--s", "s"),
                 ("check", "lambda-axioms",),
                 ("witt", "mul", "--a", "1-t", "--b", "1+t"),
                 ("witt", "teichmuller", "--a", "3")):
        calls.append((*head, "--prec", "0"))
        calls.append((*head, "--prec", "-2", "--json"))
    for cmd in ("census", "sym"):
        calls.append(("count", cmd, "--variety", "p1", "--q", "3",
                      "--degree", "-1"))
    calls.append(("count", "points", "--variety", "a1", "--q", "3", "--m", "0"))
    calls.append(("count", "points", "--variety", "a1", "--q", "3", "--m", "-4"))
    for q in ("6", "1", "0", "-3", "12", "x"):
        calls.append(("count", "points", "--variety", "a1", "--q", q))
        calls.append(("zeta", "weil", "--variety", "p1", "--q", q, "--prec", "2"))
    calls.append(("count", "points", "--variety", "a1"))
    calls.append(("zeta", "weil", "--variety", "a2", "--prec", "2"))
    for bad in ("1-2*", "1+x", "t^", "(1-t", "1--t", "", "1/2*t"):
        calls.append(("witt", "add", "--a", bad, "--b", "1+t", "--prec", "3"))
        calls.append(("rat", "mul", "--a-num", bad, "--b-num", "1-t"))
        calls.append(("check", "gident", "--g", bad, "--s", "a", "--prec", "2"))
    calls.append(("count", "points", "--variety",
                  '{"ambient": {"affine": 1}, "equations": ["x^2-"]}',
                  "--q", "3"))
    calls.append(("count", "points", "--variety",
                  '{"p": 6, "ambient": {"affine": 1}}'))
    calls.append(("count", "points", "--variety",
                  '{"p": 5, "k": 0, "ambient": {"affine": 1}}'))
    calls.append(("count", "points", "--variety",
                  '{"ambient": {"projective": 1}, "equations": ["x^2-y"]}',
                  "--q", "3"))
    # variety JSON of the wrong shape or with keys of the wrong type
    for bad in ('{"ambient": 3}',
                *('{"ambient": {"affine": 1}, "equations": %s}' % eqs
                  for eqs in ('[1]', '[["x"]]', 'null', '"x^2-2"', '"x"',
                              '{"x": 1}')),
                '{"p": 5, "k": 2.7, "ambient": {"affine": 1}}',
                '{"p": 5.0, "ambient": {"affine": 1}}',
                '{"ambient": {"affine": "2"}}',
                '{"p": true, "ambient": {"affine": 1}}',
                '{"p": "5x", "ambient": {"affine": 1}}'):
        calls.append(("count", "points", "--variety", bad, "--q", "5"))
    # with two classes, the error names the flag of the malformed one
    calls.append(("check", "expo", "--x", '{"p": 5.0, "ambient": {"affine": 1}}',
                  "--y", "a1", "--q", "5"))
    # a flag the chosen measure does not read
    calls.append(("zeta", "kapranov", "--variety", "a1", "--variety-value",
                  "2", "--q", "5", "--prec", "3"))
    calls.append(("zeta", "kapranov", "--measure", "euler", "--variety", "a1",
                  "--variety-value", "2", "--prec", "3"))
    calls.append(("check", "expo", "--measure", "poincare", "--x-value", "u",
                  "--y", "a1", "--y-value", "u", "--prec", "3"))
    calls.append(("check", "totaro", "--variety-value", "2", "--q", "5"))
    calls.append(("zeta", "kapranov", "--measure", "euler", "--variety-value",
                  "2", "--q", "6", "--prec", "3"))
    calls.append(("check", "expo", "--measure", "poincare", "--x-value",
                  "1+u", "--y-value", "u", "--q", "5", "--prec", "3"))
    calls.append(("zeta", "kapranov", "--measure", "euler",
                  "--variety-value", "x", "--prec", "3"))
    calls.append(("zeta", "kapranov", "--measure", "poincare",
                  "--variety-value", "1+v", "--prec", "3"))
    # argparse errors: missing, unknown and mistyped flags
    calls.append(("witt", "mul", "--a", "1-2*t"))
    calls.append(("zeta", "weil", "--prec", "3"))
    calls.append(("zeta", "weil", "--variety", "p1", "--q", "3",
                  "--measure", "euler"))
    calls.append(("count", "points", "--variety", "a1", "--q", "3",
                  "--prec", "2"))
    calls.append(("check", "expo", "--measure", "bogus"))
    calls.append(("rat", "rationalize"))
    calls.append(("witt", "ghost", "--a", "1-t", "--prec", "two"))
    # rational reconstruction and budget errors
    calls.append(("rat", "rationalize", "--coeffs", "1,2,x"))
    calls.append(("rat", "rationalize", "--coeffs", "1,4,13,40", "--dmax", "-1"))
    calls.append(("rat", "rationalize", "--coeffs", "2,4,8,16", "--dmax", "1"))
    calls.append(("rat", "rationalize", "--coeffs", "1,2,3", "--dmax", "1"))
    calls.append(("rat", "mul", "--a-num", "2-t", "--b-num", "1-t"))
    calls.append(("zeta", "weil", "--variety", "p1", "--q", "3",
                  "--rationalize", "--dmax", "-1"))
    calls.append(("zeta", "weil", "--variety", "e5", "--prec", "12"))
    calls.append(("count", "points", "--variety", "p2", "--q", "13",
                  "--m", "4"))
    calls.append(("witt", "neg", "--a", "2-t", "--prec", "3"))
    calls.append(("witt", "iota", "--a", "2-t", "--prec", "3"))
    # the parser itself: every subcommand's help text and its usage error
    for command in SUBCOMMANDS:
        calls.append((*command, "--help"))
        calls.append((*command, "--bogus"))
    # a bounded integer flag out of its bounds, under each measure
    for trials in ("0", "-5"):
        calls.append(("check", "lambda-axioms", "--trials", trials))
    for cmd in ("totaro", "bundle"):
        for cls in (("--variety", "a1", "--q", "3"),
                    ("--measure", "euler", "--variety-value", "2"),
                    ("--measure", "poincare", "--variety-value", "1+u^2")):
            calls.append(("check", cmd, *cls, "--n", "-1"))
    calls.append(("check", "bundle", "--measure", "euler", "--variety-value",
                  "2", "--kind", "projective", "--n", "-1"))
    # a field size past psi_13 that a small prime proves composite
    calls.append(("count", "points", "--variety", "a1",
                  "--q", str(3**50 * 5)))
    return calls


# (ambient, dimension, monomials of each equation) of varieties with two
# equations: a conic and a cubic in A^2, a quadric and a cubic in P^3, a
# pair in A^3 whose first equation vanishes identically in y where
# x = z = 0, and a conic and a line in P^2
TWO_EQUATION_SHAPES = (
    ("affine", 2, (("x^2", "y^2", "x*y", "x", ""), ("x^3", "y^3", "x*y", ""))),
    ("projective", 3, (("x^2", "y^2", "y*z", "z^2", "w^2", "x*w"),
                       ("x^3", "y^3", "z^3", "w^3", "x*y*z", "y*z*w",
                        "x*z^2"))),
    ("affine", 3, (("x*y^2", "y*z", "x*z"), ("y^3", "x^2", "z", ""))),
    ("projective", 2, (("x^2", "y^2", "z^2", "x*y"), ("x", "y", "z"))),
)


def two_equation_calls(rng):
    """Counting calls on varieties with two equations over small fields,
    each field's grid within the grid limit."""
    calls = []
    for kind, dim, shapes in TWO_EQUATION_SHAPES:
        fields = [(p, k) for p, k in FIELDS if (p**k) ** dim <= GRID_LIMIT]
        for p, k in rng.sample(fields, 4):
            q = p**k
            data: dict = {"ambient": {kind: dim}}
            q_args = ("--q", str(q))
            if rng.random() < 0.5:
                data = {"p": p, "k": k, **data}
                q_args = ()
            data["equations"] = [_poly_text(rng, terms) for terms in shapes]
            variety = json.dumps(data)
            d = _depth(q, dim, 3)
            for command, flag in (("points", "--m"), ("census", "--degree"),
                                  ("sym", "--degree")):
                calls.append(("count", command, "--variety", variety,
                              *q_args, flag, str(rng.randint(1, d)),
                              *_json(rng)))
            calls.append(("zeta", "weil", "--variety", variety, *q_args,
                          "--prec", str(_depth(q, dim, 6)), *_json(rng)))
    return calls


def corpus() -> list[tuple]:
    """Every call of the corpus, in a fixed order."""
    rng = random.Random(SEED)
    calls = []
    for family in (catalog_calls, random_variety_calls, sigma_calls,
                   witt_calls, check_series_calls, rat_calls):
        calls += family(rng)
    calls += error_calls()
    calls += two_equation_calls(rng)
    # certified zetas at high precision, and one past the series budget
    calls += [
        ("zeta", "weil", "--variety", "e5", "--prec", "1000"),
        ("zeta", "weil", "--variety", "p2", "--q", "5", "--prec", "2000"),
        ("zeta", "weil", "--variety", "e5", "--prec", "100000000"),
    ]
    return list(dict.fromkeys(calls))


def with_threads(argv: tuple, threads: int) -> tuple:
    if tuple(argv[:2]) in THREADED and "--threads" not in argv:
        return (*argv, "--threads", str(threads))
    return tuple(argv)


def run_call(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    from wittzeta import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(result: tuple[int, str, str]) -> str:
    """sha256 of one call's exit code, stdout and stderr."""
    return hashlib.sha256(json.dumps(list(result)).encode()).hexdigest()


@contextlib.contextmanager
def corpus_env(threads: int = 1):
    """Repository root as working directory, 80-column usage messages, and
    with threads > 1 every grid split across them."""
    from wittzeta import counting

    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    chunk_min = counting._CHUNK_MIN
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    if threads > 1:
        counting._CHUNK_MIN = 1
    try:
        yield
    finally:
        counting._CHUNK_MIN = chunk_min
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


@contextlib.contextmanager
def grid_splits():
    """For every ``counting._run_chunks`` call made inside, its ``threads``
    argument and the number of ranges its worker ran on; a grid split
    across threads ran on more than one."""
    from wittzeta import counting

    real, calls = counting._run_chunks, []

    def spy(total, threads, worker, unit=1):
        ranges = []

        def counted(lo, hi):
            ranges.append(lo)
            return worker(lo, hi)

        result = real(total, threads, counted, unit)
        calls.append((threads, len(ranges)))
        return result

    counting._run_chunks = spy
    try:
        yield calls
    finally:
        counting._run_chunks = real


def line(argv, sha: str) -> str:
    return f"{sha}  {shlex.join(argv)}"


def pinned() -> list[str]:
    return DIGESTS.read_text().splitlines()


def mismatches(indices, threads: int = 1) -> list[str]:
    """Pinned lines the given calls no longer reproduce, with the new line
    and the new exit code, stdout and stderr (at most 200 characters each)."""
    calls, lines = corpus(), pinned()
    bad = []
    with corpus_env(threads):
        for i in indices:
            argv = calls[i]
            run = argv if threads == 1 else with_threads(argv, threads)
            code, out, err = run_call(run)
            got = line(argv, digest((code, out, err)))
            want = lines[i] if i < len(lines) else "nothing"
            if got != want:
                bad.append(
                    f"call {i}: pinned {want}\n    got {got}\n"
                    f"    exit {code}\n    stdout {out[:200]!r}\n"
                    f"    stderr {err[:200]!r}"
                )
    if len(lines) != len(calls):
        bad.append(f"{len(lines)} pinned lines for {len(calls)} calls")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--write", action="store_true",
                        help="rewrite the digest file from this checkout")
    args = parser.parse_args(argv)
    calls = corpus()
    if args.write:
        with corpus_env():
            text = "".join(line(c, digest(run_call(c))) + "\n" for c in calls)
        DIGESTS.write_text(text)
        print(f"wrote {len(calls)} digests to {DIGESTS.name}")
        return 0
    with grid_splits() as grids:
        bad = mismatches(range(len(calls)), args.threads)
    for entry in bad:
        print(entry)
    split = sum(ranges > 1 for _, ranges in grids)
    print(f"{len(calls)} calls, threads {args.threads}: "
          f"{len(bad)} mismatches, {split} of {len(grids)} grids split")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
