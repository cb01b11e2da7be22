"""Command-line interface.

Subcommand groups mirror the library layers:

    witt  add|mul|neg|teichmuller|ghost|iota   Witt ring arithmetic
    rat   mul|rationalize                      rational Witt vectors
    zeta  weil|kapranov                        zeta series of measures
    check expo|totaro|bundle|gident|lambda-axioms   identity checkers
    count points|census|sym                    point counting

Exit codes: 0 success or identity holds, 1 identity fails or no rational
form found within the degree bound, 2 usage or input errors (reported on
standard error).  Output is deterministic; --threads never changes it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import random
import sys

from .counting import (
    closed_point_census,
    count_points,
    field_params_from_q,
    resolve_field,
    sym_product_counts,
)
from .errors import WittzetaError
from .measures import (
    Measure,
    counting_measure,
    euler_measure,
    poincare_measure,
)
from .parsing import parse_poly
from .rational import rat_make, rat_mul, rationalize
from .rings import ZZ, poly_ring
from .series import TruncSeries
from .sigma import BINOMIAL_Z, PLETHYSTIC_ZU, ZU, check_lambda_additivity
from .varieties import CATALOG, SymbolicAtom, load_variety
from .witt import ghost, lambda_involution, teichmuller, witt_add, witt_mul
from .zeta import (
    bundle_zeta_check,
    check_exponentiation,
    g_witt_identity_check,
    kapranov_zeta,
    totaro_check,
    totaro_proof_trace,
)

_GIDENT_VARS = ("a", "b", "s")


def _poly_coeffs(text: str) -> list:
    """Coefficients of an integer polynomial in t, constant first."""
    return poly_ring(("t",)).dense(parse_poly(text, ("t",)))


def _series_arg(text: str, precision: int, invert: bool) -> TruncSeries:
    coeffs = _poly_coeffs(text)[: precision + 1]
    series = TruncSeries.make(ZZ, coeffs, precision)
    if invert:
        series = series.invert()
    return series


def _t_series_arg(text: str, variables: tuple, precision: int) -> TruncSeries:
    """Series in t whose coefficients are polynomials in `variables`."""
    ring = poly_ring(variables)
    poly = parse_poly(text, variables + ("t",))
    buckets: list[dict] = [dict() for _ in range(precision + 1)]
    for exps, c in poly:
        degree = exps[-1]
        if degree <= precision:
            key = exps[:-1]
            buckets[degree][key] = buckets[degree].get(key, 0) + c
    coeffs = [ring.from_terms(b) for b in buckets]
    return TruncSeries.make(ring, coeffs, precision)


def _variety_arg(flag: str, text: str):
    builder = CATALOG.get(text)
    if builder is not None:
        return builder()
    try:
        return load_variety(text)
    except (FileNotFoundError, IsADirectoryError):
        raise ValueError(
            f"--{flag} {text!r} is not a catalog name ({' '.join(CATALOG)}), "
            "inline JSON or an existing file"
        ) from None
    except (WittzetaError, ValueError, OSError) as exc:
        raise ValueError(f"--{flag}: {exc}") from None


def _measure_arg(args, variety=None) -> Measure:
    """The chosen measure; counting is over --q, else over `variety`'s field."""
    if args.measure == "euler":
        return euler_measure()
    if args.measure == "poincare":
        return poincare_measure()
    p, k = (0, 0) if args.q is None else field_params_from_q(args.q)
    return counting_measure(*resolve_field(variety, p, k), args.threads)


def _value_atom(measure: Measure, flag: str, name: str, text: str) -> SymbolicAtom:
    """Symbolic atom carrying one explicit euler or poincare value."""
    euler = measure.name == "euler"
    try:
        value = int(text) if euler else parse_poly(text, ("u",))
    except ValueError as exc:
        want = "an integer" if euler else "a polynomial in u"
        why = "" if euler else f": {exc}"
        raise ValueError(
            f"--{flag}-value must be {want} for the {measure.name} measure, "
            f"got {text!r}{why}"
        ) from None
    return SymbolicAtom.make(name, {measure.name: value})


def _measure_and_classes(args):
    """The measure and one class per flag of `args.classes` (flag -> atom
    name), as `_add_classes` declared them.

    Under counting each --<flag> names a variety, and the field comes from
    --q or else the first variety, resolved before any later flag is read.
    Under a sigma measure each --<flag>-value gives the class's value.  A
    flag the chosen measure does not read, --q included, is a usage error;
    a command without --measure has no --<flag>-value twins.
    """
    counting = args.measure == "counting"
    unread = [f"{flag}-value" if counting else flag for flag in args.classes]
    if not counting:
        unread.append("q")
    for flag in unread:
        if getattr(args, flag.replace("-", "_"), None) is not None:
            raise ValueError(f"--{flag} is not read by the {args.measure} measure")
    measure = None if counting else _measure_arg(args)
    classes = []
    for flag, name in args.classes.items():
        if counting:
            text = getattr(args, flag)
            if not text:
                raise ValueError(f"--{flag} is required for the counting measure")
            classes.append(_variety_arg(flag, text))
            if measure is None:
                measure = _measure_arg(args, classes[0])
        else:
            text = getattr(args, f"{flag}_value")
            if text is None:
                raise ValueError(
                    f"--{flag}-value is required for the {measure.name} measure"
                )
            classes.append(_value_atom(measure, flag, name, text))
    return (measure, *classes)


def _emit(args, text: str, data: dict) -> None:
    if args.json:
        print(json.dumps(data))
    else:
        print(text)


def _emit_value(args, value) -> int:
    """Print a series, a rational form or a zeta series."""
    _emit(args, value.render(), value.render_json())
    return 0


def _emit_rationalized(args, series: TruncSeries) -> int:
    rat = rationalize(series, args.dmax)
    if rat is None:
        data = {"found": False, "dmax": args.dmax}
        _emit(args, f"NOT FOUND (dmax {args.dmax})", data)
        return 1
    return _emit_value(args, rat)


def _emit_verdict(args, verdict) -> int:
    _emit(args, verdict.render(), verdict.render_json())
    return 0 if verdict.holds else 1


# ---------------------------------------------------------------- witt


def _cmd_witt_binary(args) -> int:
    a = _series_arg(args.a, args.prec, args.inv_a)
    b = _series_arg(args.b, args.prec, args.inv_b)
    return _emit_value(
        args, witt_add(a, b) if args.action == "add" else witt_mul(a, b)
    )


def _cmd_witt_unary(args) -> int:
    a = _series_arg(args.a, args.prec, args.inv_a)
    # negation is the series inverse; witt_neg would also refuse a constant
    # term of -1, with another message
    return _emit_value(
        args, a.invert() if args.action == "neg" else lambda_involution(a)
    )


def _cmd_witt_teichmuller(args) -> int:
    return _emit_value(args, teichmuller(ZZ, args.a, args.prec))


def _cmd_witt_ghost(args) -> int:
    a = _series_arg(args.a, args.prec, args.inv_a)
    parts = [ZZ.render(p) for p in ghost(a)]
    _emit(args, "(" + ", ".join(parts) + ")", {"ghost": parts})
    return 0


# ----------------------------------------------------------------- rat


def _cmd_rat_mul(args) -> int:
    a = rat_make(ZZ, _poly_coeffs(args.a_num), _poly_coeffs(args.a_den))
    b = rat_make(ZZ, _poly_coeffs(args.b_num), _poly_coeffs(args.b_den))
    return _emit_value(args, rat_mul(a, b))


def _cmd_rat_rationalize(args) -> int:
    try:
        coeffs = tuple(int(part) for part in args.coeffs.split(","))
    except ValueError:
        raise ValueError(
            f"--coeffs must be comma-separated integers, got {args.coeffs!r}"
        ) from None
    return _emit_rationalized(args, TruncSeries.make(ZZ, coeffs, len(coeffs) - 1))


# ---------------------------------------------------------------- zeta


def _cmd_zeta(args, measure, x) -> int:
    zeta = kapranov_zeta(measure, x, args.prec)
    if args.rationalize:
        return _emit_rationalized(args, zeta.series)
    return _emit_value(args, zeta)


# --------------------------------------------------------------- check


def _cmd_check_expo(args, measure, x, y) -> int:
    return _emit_verdict(args, check_exponentiation(measure, x, y, args.prec))


def _cmd_check_totaro(args, measure, x) -> int:
    check = totaro_proof_trace if args.trace else totaro_check
    return _emit_verdict(args, check(measure, x, args.n, args.prec))


def _cmd_check_bundle(args, measure, x) -> int:
    verdict = bundle_zeta_check(measure, x, args.n, args.prec, args.kind)
    return _emit_verdict(args, verdict)


def _cmd_check_gident(args) -> int:
    n = args.prec
    g = _t_series_arg(args.g, _GIDENT_VARS, n)
    s = parse_poly(args.s, _GIDENT_VARS)
    p_series = _t_series_arg(args.poly, _GIDENT_VARS, n)
    return _emit_verdict(
        args, g_witt_identity_check(g, s, p_series.coeffs, n)
    )


def _cmd_check_lambda_axioms(args) -> int:
    n = args.prec
    rng = random.Random(args.seed)
    structure = BINOMIAL_Z if args.structure == "binomial" else PLETHYSTIC_ZU

    def draw():
        if structure is BINOMIAL_Z:
            return rng.randint(-6, 6)
        return ZU.from_terms(
            {(d,): rng.randint(-2, 2) for d in range(4)}
        )

    for trial in range(args.trials):
        verdict = check_lambda_additivity(structure, draw(), draw(), n)
        if not verdict.holds:
            _emit(
                args,
                f"trial {trial}: {verdict.render()}",
                {"trial": trial, **verdict.render_json()},
            )
            return 1
    _emit(
        args,
        f"HOLDS (precision {n})",
        {"holds": True, "precision": n, "trials": args.trials},
    )
    return 0


# --------------------------------------------------------------- count


def _cmd_count_points(args, measure, variety) -> int:
    value = count_points(
        variety, args.m, measure.p, measure.k, measure.threads
    )
    _emit(args, str(value), {"value": str(value)})
    return 0


def _cmd_count_series(args, measure, variety) -> int:
    """count census (degrees 1..D) and count sym (Sym^0..Sym^D)."""
    counter = (
        closed_point_census if args.action == "census" else sym_product_counts
    )
    values = counter(
        variety, args.degree, measure.p, measure.k, measure.threads
    )
    parts = [str(v) for v in values]
    _emit(args, ", ".join(parts), {"counts": parts})
    return 0


# ------------------------------------------------------------- parser


def _add_common(p, prec=True, dmax=False, threads=False):
    if prec:
        p.add_argument(
            "--prec", type=int, default=16,
            help="series precision N; coefficients up to t^N (default 16)",
        )
    if dmax:
        p.add_argument(
            "--dmax", type=int, default=6,
            help="degree bound for rational reconstruction (default 6)",
        )
    if threads:
        p.add_argument(
            "--threads", type=int, default=1,
            help="worker threads for censuses; never changes output",
        )
    p.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )


def _add_series_a(p, with_b=False):
    p.add_argument("--a", required=True, help="polynomial in t, e.g. '1-2*t'")
    p.add_argument(
        "--inv-a", action="store_true", help="use the series inverse of --a"
    )
    if with_b:
        p.add_argument("--b", required=True, help="polynomial in t")
        p.add_argument(
            "--inv-b", action="store_true",
            help="use the series inverse of --b",
        )


def _add_classes(p, measure: bool, **classes):
    """Class flags (flag -> atom name), with --measure and each flag's
    --<flag>-value twin when `measure`, and --q; `main` resolves them."""
    if measure:
        p.add_argument(
            "--measure", default="counting",
            choices=("counting", "euler", "poincare"),
            help="motivic measure (default counting)",
        )
    for flag in classes:
        p.add_argument(
            f"--{flag}", required=not measure,
            help="catalog name (pt a1 a2 gm p1 p2 e5), JSON file path, "
            "or inline JSON",
        )
    if measure:
        for flag, name in classes.items():
            p.add_argument(
                f"--{flag}-value",
                help=f"measure value of {name}, for euler/poincare "
                "(an integer, or a polynomial in u)",
            )
    p.add_argument(
        "--q", type=int,
        help="finite field size, a prime power; defaults to the "
        "variety's declared field",
    )
    p.set_defaults(classes=classes)
    if not measure:
        p.set_defaults(measure="counting")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittzeta",
        description="Big Witt ring arithmetic, zeta series of motivic "
        "measures, and exact identity checks.",
        epilog="A value that starts with a minus sign is read as a flag; "
        "give it with an equals sign: --b=-t+1.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    witt = groups.add_parser("witt", help="Witt ring arithmetic over Z")
    witt_sub = witt.add_subparsers(dest="action", required=True)
    p = witt_sub.add_parser("add", help="Witt sum (series product)")
    _add_series_a(p, with_b=True)
    _add_common(p)
    p.set_defaults(func=_cmd_witt_binary)
    p = witt_sub.add_parser("mul", help="Witt product (ghost coordinates)")
    _add_series_a(p, with_b=True)
    _add_common(p)
    p.set_defaults(func=_cmd_witt_binary)
    p = witt_sub.add_parser("neg", help="Witt negation (series inverse)")
    _add_series_a(p)
    _add_common(p)
    p.set_defaults(func=_cmd_witt_unary)
    p = witt_sub.add_parser(
        "teichmuller", help="the class [a] = (1 - a*t)^(-1)"
    )
    p.add_argument("--a", type=int, required=True, help="integer a")
    _add_common(p)
    p.set_defaults(func=_cmd_witt_teichmuller)
    p = witt_sub.add_parser("ghost", help="power-sum coordinates p_1..p_N")
    _add_series_a(p)
    _add_common(p)
    p.set_defaults(func=_cmd_witt_ghost)
    p = witt_sub.add_parser("iota", help="the involution g(t) -> g(-t)^(-1)")
    _add_series_a(p)
    _add_common(p)
    p.set_defaults(func=_cmd_witt_unary)

    rat = groups.add_parser("rat", help="rational Witt vectors")
    rat_sub = rat.add_subparsers(dest="action", required=True)
    p = rat_sub.add_parser(
        "mul", help="Witt product of rational forms, exact and in lowest terms"
    )
    p.add_argument("--a-num", required=True, help="numerator of a, in t")
    p.add_argument("--a-den", default="1", help="denominator of a (default 1)")
    p.add_argument("--b-num", required=True, help="numerator of b, in t")
    p.add_argument("--b-den", default="1", help="denominator of b (default 1)")
    _add_common(p, prec=False)
    p.set_defaults(func=_cmd_rat_mul)
    p = rat_sub.add_parser(
        "rationalize", help="recover p/q from series coefficients"
    )
    p.add_argument(
        "--coeffs", required=True,
        help="comma-separated integer coefficients c_0,c_1,... with c_0=1",
    )
    _add_common(p, prec=False, dmax=True)
    p.set_defaults(func=_cmd_rat_rationalize)

    zeta = groups.add_parser("zeta", help="zeta series of measures")
    zeta_sub = zeta.add_subparsers(dest="action", required=True)
    for action, summary, measure in (
        ("weil", "counting-measure zeta over F_q", False),
        ("kapranov", "zeta series of a chosen measure", True),
    ):
        p = zeta_sub.add_parser(action, help=summary)
        _add_classes(p, measure, variety="X")
        p.add_argument(
            "--rationalize", action="store_true",
            help="report the rational form instead of the series",
        )
        _add_common(p, dmax=True, threads=True)
        p.set_defaults(func=_cmd_zeta)

    check = groups.add_parser("check", help="identity checkers")
    check_sub = check.add_subparsers(dest="action", required=True)
    p = check_sub.add_parser(
        "expo", help="zeta(X x Y) = zeta(X) * zeta(Y) in the Witt ring"
    )
    _add_classes(p, True, x="X", y="Y")
    _add_common(p, threads=True)
    p.set_defaults(func=_cmd_check_expo)
    p = check_sub.add_parser(
        "totaro", help="zeta(X x A^n; t) = zeta(X; mu(L)^n t)"
    )
    _add_classes(p, True, variety="X")
    p.add_argument("--n", type=int, default=1, help="affine factor dimension")
    p.add_argument(
        "--trace", action="store_true",
        help="verify the five-link Witt-algebra proof chain",
    )
    _add_common(p, threads=True)
    p.set_defaults(func=_cmd_check_totaro)
    p = check_sub.add_parser(
        "bundle", help="trivial fiber/projective bundle zeta formulas"
    )
    _add_classes(p, True, variety="X")
    p.add_argument("--n", type=int, default=1, help="fiber dimension")
    p.add_argument(
        "--kind", default="fiber", choices=("fiber", "projective"),
        help="bundle type (default fiber)",
    )
    _add_common(p, threads=True)
    p.set_defaults(func=_cmd_check_bundle)
    p = check_sub.add_parser(
        "gident",
        help="g * (P(t)(1-st)^(-1)) = g(st) +_W (g * P(t)) "
        "over Z[a,b,s]",
    )
    p.add_argument(
        "--g", required=True,
        help="series in t with coefficients in a, b, s; constant term 1",
    )
    p.add_argument("--s", required=True, help="twist value, polynomial in a, b, s")
    p.add_argument(
        "--poly", default="1",
        help="polynomial P(t) with P(0)=1 (default 1)",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_check_gident)
    p = check_sub.add_parser(
        "lambda-axioms",
        help="lambda_t(a+b) = lambda_t(a) lambda_t(b) on random inputs",
    )
    p.add_argument(
        "--structure", default="binomial",
        choices=("binomial", "plethystic"),
        help="sigma structure on Z or Z[u] (default binomial)",
    )
    p.add_argument("--trials", type=int, default=100, help="random trials")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    _add_common(p)
    p.set_defaults(func=_cmd_check_lambda_axioms)

    count = groups.add_parser("count", help="point counting over F_q")
    count_sub = count.add_subparsers(dest="action", required=True)
    p = count_sub.add_parser("points", help="rational points over F_(q^m)")
    _add_classes(p, False, variety="X")
    p.add_argument("--m", type=int, default=1, help="extension degree")
    _add_common(p, prec=False, threads=True)
    p.set_defaults(func=_cmd_count_points)
    for action, summary, degree in (
        ("census", "closed points of degrees 1..D", "largest degree D"),
        ("sym", "points of symmetric powers Sym^0..Sym^D", "largest power D"),
    ):
        p = count_sub.add_parser(action, help=summary)
        _add_classes(p, False, variety="X")
        p.add_argument("--degree", type=int, default=8, help=degree)
        _add_common(p, prec=False, threads=True)
        p.set_defaults(func=_cmd_count_series)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call and reused after it."""
    return build_parser()


@contextlib.contextmanager
def _integers_of_any_size():
    """Lift Python's limit on int/str conversion (4300 digits by default)
    for one call and give the caller's setting back; Python 3.10.0-3.10.6
    has no limit to lift."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    with _integers_of_any_size():
        args = _parser().parse_args(argv)
        try:
            bounds = {
                "threads": 1, "prec": 1, "n": 0, "trials": 1, "m": 1,
                "degree": 0, "dmax": 0,
            }
            for flag, least in bounds.items():
                n = getattr(args, flag, least)
                # zeta reads --dmax only with --rationalize
                read = flag != "dmax" or getattr(args, "rationalize", True)
                if n < least and read:
                    raise ValueError(
                        f"--{flag} must be at least {least}, got {n}"
                    )
            if hasattr(args, "classes"):
                return args.func(args, *_measure_and_classes(args))
            return args.func(args)
        except (WittzetaError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
