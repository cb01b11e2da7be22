"""Seeded fuzzer of the command line: every call ends cleanly and in time.

Each call is an argv for one of the 18 subcommands, drawn from a seeded
generator: catalog and random inline varieties, among them lines cut out
by up to three equations of degree up to 8 and pairs of equations in two
or three variables, one of them quadratic in some variable and the other
with a monomial of degree up to 10^7, malformed JSON, bad ``p``
and ``k`` and equations that do not parse; measure values in u; bad
``--q``; and every bounded integer flag at, just above or below its
least value.  Most draws are valid, so that most calls get past the
parser and the input checks.  Sizes stay small (no grid past
``GRID_LIMIT`` tuples per field, no precision past 10, but for ``zeta
weil`` on catalog varieties, which draws ``--prec`` up to 10^8 against
the series budget), and the fuzzer draws none of the unbounded sizes
that no cost bound covers yet: a huge ``--prec`` elsewhere, ``--n``,
``--degree`` or closed-form ``--m``.

Every call runs ``wittzeta.cli.main`` in-process, as the corpus does, and
must

* exit 0, 1 or 2, an argparse ``SystemExit`` counting as its exit code,
  with no other exception escaping ``main``;
* finish within ``TIME_LIMIT`` seconds;
* on exit 0 or 1, print to standard output;
* on exit 2, write an ``error:`` line or an argparse usage message to
  standard error.

Run from the repository root::

    PYTHONPATH=src python3 tests/cli_fuzz.py                   # 2000 calls
    PYTHONPATH=src python3 tests/cli_fuzz.py --calls 20000 --seed 7

Each failing call is printed with its argv and what went wrong, and the
run ends with its count of calls by exit code.  ``tests/test_cli_fuzz.py``
runs 2000 calls of seed 0.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import shlex
import signal
import sys
import threading
import time
import traceback
from collections import Counter

from cli_corpus import (
    CATALOG_VARS,
    SUBCOMMANDS,
    THREADED,
    _depth,
    _expand,
    _gident_poly,
    _json,
    _monomial,
    _poly_text,
    _random_equation,
    _random_variety,
    _t_poly,
    _u_poly,
    corpus_env,
    run_call,
)

TIME_LIMIT = 5.0  # seconds one call may take
GRID_LIMIT = 20_000  # largest grid, in tuples, one call enumerates per field
FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
          (2, 2), (2, 3), (3, 2), (5, 2), (2, 4), (3, 3)]
# the least value of each bounded integer flag, as `main` checks it
LEAST = {"threads": 1, "prec": 1, "n": 0, "trials": 1, "m": 1, "degree": 0,
         "dmax": 0}
# commands that take --measure
MEASURED = {("zeta", "kapranov"), ("check", "expo"), ("check", "totaro"),
            ("check", "bundle")}
BELOW = 0.06  # share of bounded flags drawn below their least value
BAD = 0.05  # share of each other input drawn invalid

MALFORMED = (
    '{"ambient": 3}', '{"ambient": {}}', '{"ambient": {"affine": "2"}}',
    '{"ambient": {"affine": 1, "projective": 1}}', "[]", "{", "null",
    *('{"ambient": {"affine": 1}, "equations": %s}' % eqs
      for eqs in ("[1]", '[["x"]]', "null", '"x^2-2"', '{"x": 1}')),
)
BAD_FIELDS = (
    '{"p": 6, "ambient": {"affine": 1}}',
    '{"p": 1, "ambient": {"affine": 1}}',
    '{"p": -5, "ambient": {"affine": 1}}',
    '{"p": 5, "k": 0, "ambient": {"affine": 1}}',
    '{"p": 5, "k": -2, "ambient": {"affine": 1}}',
    '{"p": 5, "k": 2.5, "ambient": {"affine": 1}}',
    '{"p": "5", "ambient": {"affine": 1}}',
    '{"p": true, "ambient": {"affine": 1}}',
    '{"k": 2, "ambient": {"affine": 1}}',
)
BAD_EQUATIONS = ("x^2-", "x+*y", "x^", "(x", "1/2*x", "x^-1", "", "w^2",
                 "2**x", "x y")
BAD_Q = ("6", "1", "0", "-3", "12", "x", "2.5", "100", str(3**50 * 5))
BAD_POLYS = ("1-2*", "1+x", "t^", "(1-t", "1--t", "", "1/2*t", "t^-1")
BAD_U = ("x", "1+v", "u^", "", "(u", "1/u")
VARIETY_FILES = ("varieties/e5.json", "varieties/p2.json",
                 "varieties/nosuch.json", "varieties")


class Timeout(BaseException):
    """Raised in a call that runs past the time limit; a BaseException, so
    that no handler of the CLI catches it."""


def _flag(rng, flag: str, most: int) -> tuple:
    """--flag with a value in its bounds up to `most` (at its least value
    and just above it included), or now and then just below them."""
    least = LEAST[flag]
    if rng.random() < BELOW:
        value = least - rng.choice((1, 1, 5))
    else:
        value = rng.randint(least, max(least, most))
    return (f"--{flag}", str(value))


def _threads(rng, command: tuple) -> tuple:
    if command in THREADED and rng.random() < 0.3:
        return _flag(rng, "threads", 2)
    return ()


def _variety(rng) -> tuple:
    """(text, grid variables, field size, --q flags) of a variety to count
    on: a catalog name, a file or random inline JSON, now and then one
    that cannot load."""
    p, k = rng.choice(FIELDS)
    q = p**k
    q_args = ("--q", str(q))
    draw = rng.random()
    if draw < BAD:
        text = rng.choice(MALFORMED + BAD_FIELDS)
        if rng.random() < 0.4:
            eq = rng.choice(BAD_EQUATIONS)
            text = json.dumps({"ambient": {"affine": 2}, "equations": [eq]})
        return text, 0, q, q_args
    if draw < 0.45:
        name = rng.choice(tuple(CATALOG_VARS))
        if name == "e5" and rng.random() < 0.5:
            return name, 2, 5, ()  # e5 declares F_5
        return name, CATALOG_VARS[name], q, q_args
    if draw < 0.5:
        path = rng.choice(VARIETY_FILES)
        return path, 2, q, () if path.endswith("e5.json") else q_args
    if draw < 0.6:
        # a chart of one variable, counted by its gcd or on its grid
        eqs = [
            _random_equation(rng, "x", rng.randint(1, 8), False)
            for _ in range(rng.randint(1, 3))
        ]
        text = json.dumps({"ambient": {"affine": 1}, "equations": eqs})
        return text, 1, q, q_args
    if draw < 0.7:
        text, nvars = _sparse_pair(rng)
        return text, nvars, q, q_args
    declare = rng.random() < 0.5
    text, nvars = _random_variety(rng, p, k, declare)
    return text, nvars, q, () if declare else q_args


def _sparse_pair(rng) -> tuple:
    """(inline JSON text, grid variables) of two affine equations in 2 or 3
    variables: one quadratic in some variable, which a chart may solve for,
    and one with a monomial of degree up to 10^7, evaluated at its roots."""
    nvars = rng.randint(2, 3)
    names = "xyz"[:nvars]
    quadratic = _poly_text(rng, [f"{rng.choice(names)}^2"])
    degree = rng.randint(1, 10**7)
    cuts = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
    exps = [b - a for a, b in zip([0, *cuts], [*cuts, degree])]
    sparse = _poly_text(rng, [_monomial(names, exps)])
    eqs = []
    for head in (quadratic, sparse):
        low = _random_equation(rng, names, rng.randint(1, 2), False)
        eqs.append(head + (low if low.startswith("-") else "+" + low))
    return json.dumps({"ambient": {"affine": nvars}, "equations": eqs}), nvars


def _field_flags(rng, q_args: tuple) -> tuple:
    """The --q flags, now and then a bad size or none at all."""
    draw = rng.random()
    if draw < BAD:
        return ("--q", rng.choice(BAD_Q))
    if draw < 1.5 * BAD:
        return ()
    return q_args


def _counting_call(rng, command: tuple) -> tuple:
    """A call of a command on one counted variety, sized to its field."""
    text, nvars, q, q_args = _variety(rng)
    head = (*command, "--variety", text, *_field_flags(rng, q_args))
    action = command[1]
    if action == "points":
        if rng.random() < 0.03:
            # q^m >= 2^25 is past the budget of any chart that enumerates,
            # so it is refused before any work; a closed form is cheap
            return (*head, "--m", str(rng.randint(25, 40)))
        return (*head, *_flag(rng, "m", _depth(q, nvars, 4, GRID_LIMIT)))
    if action in ("census", "sym"):
        return (*head, *_flag(rng, "degree", _depth(q, nvars, 4, GRID_LIMIT)))
    prec = _flag(rng, "prec", _depth(q, nvars, 6, GRID_LIMIT))
    if action == "weil" and text in CATALOG_VARS and rng.random() < 0.3:
        # up to 10^8: a certified zeta past the series budget, or one
        # counted past the tuple budget, is refused before any work
        prec = ("--prec", str(rng.randint(1, 10 ** rng.randint(1, 8))))
    if action in ("weil", "kapranov"):
        extra = ()
        if rng.random() < 0.3:
            extra = ("--rationalize",) * (rng.random() < 0.8)
            # without --rationalize --dmax is not read, so never refused
            extra += _flag(rng, "dmax", (int(prec[1]) - 1) // 2)
        return (*head, *prec, *extra)
    n = _flag(rng, "n", 2)
    if action == "totaro":
        trace = ("--trace",) * (rng.random() < 0.3)
        return (*head, *n, *prec, *trace)
    kind = ("--kind", rng.choice(("fiber", "projective")))
    return (*head, *n, *kind, *prec)


def _opt(flag: str, text: str) -> tuple:
    """--flag with a text value; one that starts with "-" is joined to the
    flag by "=", so that argparse does not read it as a flag."""
    if text.startswith("-"):
        return (f"--{flag}={text}",)
    return (f"--{flag}", text)


def _or_bad(rng, text: str, bad: tuple) -> str:
    return rng.choice(bad) if rng.random() < BAD else text


def _sigma_call(rng, command: tuple) -> tuple:
    """A call of a command under the euler or poincare measure."""
    measure = rng.choice(("euler", "poincare"))

    def value(flag: str) -> tuple:
        text = str(rng.randint(-4, 5)) if measure == "euler" else _u_poly(rng)
        return _opt(flag, _or_bad(rng, text, BAD_U))

    head = (*command, "--measure", measure)
    if command == ("check", "expo"):
        head += (*value("x-value"), *value("y-value"))
    else:
        head += value("variety-value")
    if rng.random() < BAD:  # a flag this measure does not read
        head += rng.choice((("--q", "5"), ("--variety", "a1"), ("--x", "a1")))
    prec = _flag(rng, "prec", 8)
    action = command[1]
    if action == "kapranov" and rng.random() < 0.3:
        return (*head, "--prec", "8", "--rationalize", *_flag(rng, "dmax", 3))
    if action in ("totaro", "bundle"):
        n = _flag(rng, "n", 3)
        if action == "bundle":
            n += ("--kind", rng.choice(("fiber", "projective")))
        return (*head, *n, *prec)
    return (*head, *prec)


def _expo_call(rng, command: tuple) -> tuple:
    """check expo on two varieties over one field."""
    x, nx, q, q_args = _variety(rng)
    y, ny, _, _ = _variety(rng)
    prec = _flag(rng, "prec", _depth(q, nx + ny, 4, GRID_LIMIT))
    return (*command, "--x", x, "--y", y, *_field_flags(rng, q_args), *prec)


def _class_call(rng, command: tuple) -> tuple:
    """A call on classes: varieties, or under a command that takes
    --measure now and then measure values."""
    if command in MEASURED and rng.random() < 0.4:
        return _sigma_call(rng, command)
    if command == ("check", "expo"):
        return _expo_call(rng, command)
    return _counting_call(rng, command)


def _t_text(rng, unit: bool = True, most: int = 4) -> str:
    """A polynomial in t, with constant term 1 where `unit`, now and then
    one that does not parse."""
    return _or_bad(rng, _t_poly(rng, unit=unit, most=most), BAD_POLYS)


def _witt_call(rng, command: tuple) -> tuple:
    action = command[1]
    if action == "teichmuller":
        return (*command, "--a", str(rng.randint(-5, 5)),
                *_flag(rng, "prec", 10))
    names = ("a", "b") if action in ("add", "mul") else ("a",)
    args = ()
    for name in names:
        args += _opt(name, _t_text(rng, unit=rng.random() > BAD))
        args += (f"--inv-{name}",) * (rng.random() < 0.3)
    return (*command, *args, *_flag(rng, "prec", 10))


def _rat_call(rng, command: tuple) -> tuple:
    if command[1] == "mul":
        return (*command,
                *_opt("a-num", _t_text(rng, most=3)),
                *_opt("a-den", _t_text(rng, most=2)),
                *_opt("b-num", _t_text(rng, most=3)),
                *_opt("b-den", _t_text(rng, most=2)))
    num = [1] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))]
    den = [1] + [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))]
    coeffs = _expand(num, den, rng.randint(1, 9))
    text = _or_bad(rng, ",".join(map(str, coeffs)),
                   ("1,2,x", "", "1,,2", "1;2", "1.5,2", "-1,2"))
    # rationalize needs 2 * dmax below the precision; one past it is refused
    dmax = _flag(rng, "dmax", (len(coeffs) - 1) // 2)
    return (*command, *_opt("coeffs", text), *dmax)


def _gident_call(rng, command: tuple) -> tuple:
    g = _or_bad(rng, "1+" + _gident_poly(rng, True), BAD_POLYS)
    return (*command, *_opt("g", g), *_opt("s", _gident_poly(rng, False)),
            "--poly", rng.choice(("1", "1-t", "1+2*t", "1-t+t^2", "2-t")),
            *_flag(rng, "prec", 5))


def _lambda_call(rng, command: tuple) -> tuple:
    return (*command,
            "--structure", rng.choice(("binomial", "plethystic")),
            *_flag(rng, "trials", 4), "--seed", str(rng.randint(0, 99)),
            *_flag(rng, "prec", 6))


DRAW = {
    ("check", "gident"): _gident_call,
    ("check", "lambda-axioms"): _lambda_call,
    **{command: _witt_call for command in SUBCOMMANDS if command[0] == "witt"},
    **{command: _rat_call for command in SUBCOMMANDS if command[0] == "rat"},
    **{command: _class_call for command in SUBCOMMANDS
       if command[0] in ("zeta", "count")
       or command[1] in ("expo", "totaro", "bundle")},
}


def _usage_error(rng, argv: tuple) -> tuple:
    """The call with an unknown flag, a mistyped integer, a help request
    or its last flag dropped."""
    draw = rng.random()
    if draw < 0.3:
        return (*argv, "--bogus")
    if draw < 0.5 and "--prec" in argv:
        i = argv.index("--prec")
        return (*argv[: i + 1], "two", *argv[i + 2 :])
    if draw < 0.6:
        return (*argv[:2], "--help")
    flags = [i for i, a in enumerate(argv) if a.startswith("--")]
    return argv[: flags[-1]] if flags else argv


def draw_call(rng) -> tuple:
    """One argv, of a subcommand drawn uniformly."""
    command = rng.choice(SUBCOMMANDS)
    argv = DRAW[command](rng, command) + _threads(rng, command) + _json(rng)
    if rng.random() < BAD:
        argv = _usage_error(rng, argv)
    return argv


@contextlib.contextmanager
def _time_limit(seconds: float):
    """Raise Timeout in the calling thread after `seconds`, where SIGALRM
    can be used (Unix, main thread); elsewhere the caller times the call."""
    usable = (hasattr(signal, "setitimer")
              and threading.current_thread() is threading.main_thread())
    if not usable:
        yield
        return

    def expire(signum, frame):
        raise Timeout

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def check_call(argv) -> tuple:
    """(exit code, problem) of one call; the problem is None for a clean
    call, and the exit code None where it did not exit."""
    start = time.perf_counter()
    try:
        with _time_limit(TIME_LIMIT):
            code, out, err = run_call(argv)
    except Timeout:
        return None, f"no exit within {TIME_LIMIT} s"
    except Exception as exc:  # any exception escaping main is a finding
        trace = traceback.format_exc()
        return None, f"{type(exc).__name__} escaped main: {exc}\n{trace}"
    seconds = time.perf_counter() - start
    if code not in (0, 1, 2):
        return code, f"exit code {code!r}"
    if seconds > TIME_LIMIT:
        return code, f"took {seconds:.1f} s"
    if code in (0, 1) and not out:
        return code, f"exit {code} printed nothing"
    if code == 2 and not (
        err.startswith("usage:")
        or any(line.startswith("error: ") for line in err.splitlines())
    ):
        return code, f"exit 2 without an error line: {err[:200]!r}"
    return code, None


def fuzz(seed: int, calls: int) -> tuple:
    """(failures, exit codes, subcommands) of `calls` drawn calls; each
    failure is the argv, shell-quoted, and its problem."""
    rng = random.Random(seed)
    failures, codes, commands = [], Counter(), Counter()
    with corpus_env():
        for _ in range(calls):
            argv = draw_call(rng)
            commands[argv[:2]] += 1
            code, problem = check_call(argv)
            codes[code] += 1
            if problem is not None:
                failures.append(f"{shlex.join(argv)}: {problem}")
    return failures, codes, commands


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--calls", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    failures, codes, _ = fuzz(args.seed, args.calls)
    for failure in failures:
        print(failure)
    by_code = ", ".join(f"exit {c}: {n}" for c, n in sorted(codes.items(),
                                                          key=str))
    print(f"{args.calls} calls, seed {args.seed}: {len(failures)} failures "
          f"({by_code})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
