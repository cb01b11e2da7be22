"""Span recording around wittzeta's public functions, installed from outside.

`Tracer.install` rebinds each traced function in every ``wittzeta`` module
that imported it by name (``zeta.witt_mul``, ``counting.make_field`` ...)
and patches the traced methods of ``GF``, ``TruncSeries`` and
``SigmaStructure``.  While `active`, each call appends one span
``[name, start, end, parent, op, flags]`` to an in-memory list; `uninstall`
puts the originals back.  Ring element arithmetic is deliberately not
wrapped: it runs millions of times and shows up as the self time of its
callers.

Only single-threaded calls may run while the tracer is active, because
the parent of a span is taken from one shared stack.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

from wittzeta import counting, finitefield, series, sigma

# (metric module, function): traced module-level functions
FUNCTIONS = (
    ("finitefield", "make_field"),
    ("counting", "count_points"),
    ("counting", "closed_point_census"),
    ("counting", "sym_product_counts"),
    ("witt", "witt_mul"),
    ("witt", "ghost"),
    ("witt", "from_ghost"),
    ("witt", "witt_pow"),
    ("witt", "twist"),
    ("polynomials", "resultant"),
    ("rational", "rat_star"),
    ("rational", "rat_make"),
    ("rational", "rat_mul"),
    ("rational", "rationalize"),
    ("rational", "rat_expand"),
    ("zeta", "kapranov_zeta"),
    ("verdict", "compare_series"),
    ("parsing", "parse_poly"),
    ("varieties", "load_variety"),
    ("cli", "main"),
)
# (metric module, class, method): traced methods
METHODS = (
    ("finitefield", finitefield.GF, "vec_add"),
    ("finitefield", finitefield.GF, "vec_mul"),
    ("finitefield", finitefield.GF, "vec_pow"),
    ("finitefield", finitefield.GF, "square_counts"),
    ("series", series.TruncSeries, "mul"),
    ("series", series.TruncSeries, "invert"),
    ("series", series.TruncSeries, "pow_int"),
    ("sigma", sigma.SigmaStructure, "sigma_series"),
)

# Flags a span can carry: "elems", the broadcast size of a vector op's
# operands; "table_build", set when the field's log tables got built during
# the call; "cache_hits", set when count_points answered from its cache.


def _broadcast_size(a, b) -> int:
    return int(np.prod(np.broadcast_shapes(np.shape(a), np.shape(b))))


def _vec_binary_probe(args):
    field, a, b = args[0], args[1], args[2]
    return {"elems": _broadcast_size(a, b)}, field._log_built


def _log_probe(args):
    return {}, args[0]._log_built


def _log_after(state, args, flags):
    if not state and args[0]._log_built:
        flags["table_build"] = 1


def _count_probe(args):
    return {}, len(counting._count_cache)


def _count_after(state, args, flags):
    if len(counting._count_cache) == state:
        flags["cache_hits"] = 1


# name -> (before(args) -> (flags, state), after(state, args, flags))
PROBES = {
    "finitefield.vec_add": (_vec_binary_probe, None),
    "finitefield.vec_mul": (_vec_binary_probe, _log_after),
    "finitefield.vec_pow": (_log_probe, _log_after),
    "finitefield.square_counts": (_log_probe, _log_after),
    "counting.count_points": (_count_probe, _count_after),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = -1
        self.active = False
        self._undo: list = []
        self.make_field = finitefield.make_field

    def _wrap(self, name: str, fn):
        before, after = PROBES.get(name, (None, None))
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            if before is not None:
                flags, state = before(args)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if before is not None:
                    if after is not None:
                        after(state, args, flags)
                    span[5] = flags

        return traced

    def install(self):
        modules = [
            m for key, m in sys.modules.items()
            if key == "wittzeta" or key.startswith("wittzeta.")
        ]
        for module_name, fn_name in FUNCTIONS:
            original = getattr(sys.modules[f"wittzeta.{module_name}"], fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapper)
                    self._undo.append((module, fn_name, original))
        for module_name, cls, method in METHODS:
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(f"{module_name}.{method}", original))
            self._undo.append((cls, method, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def summarize(spans: list) -> dict:
    """Per traced name: calls, s (inclusive busy), self_s, and flag totals.

    Busy seconds count a span only when no enclosing span has the same
    name, so recursion through one function is not counted twice.  Self
    seconds subtract the time covered by direct children, which nest
    inside their parent on a single thread.
    """
    out: dict = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    for i, (name, start, end, parent, _op, flags) in enumerate(spans):
        stats = out.setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0, "elems": 0,
                   "table_build_s": 0.0, "cache_hits": 0},
        )
        stats["calls"] += 1
        stats["self_s"] += (end - start) - child_time[i]
        ancestor = parent
        nested = False
        while ancestor >= 0:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if not nested:
            stats["s"] += end - start
        if flags:
            stats["elems"] += flags.get("elems", 0)
            stats["cache_hits"] += flags.get("cache_hits", 0)
            if flags.get("table_build") and not _flagged_ancestor(spans, parent):
                stats["table_build_s"] += end - start
    return out


def _flagged_ancestor(spans: list, parent: int) -> bool:
    while parent >= 0:
        flags = spans[parent][5]
        if flags and flags.get("table_build"):
            return True
        parent = spans[parent][3]
    return False
