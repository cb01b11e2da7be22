"""Checks on the library source itself."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "wittzeta").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # checks that guard a result raise a typed WittzetaError; an assert
    # vanishes under python -O
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}"


def _raise_sites(node, exc: str, where=None) -> list:
    """The functions in which `raise exc(...)` occurs, innermost first."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    sites = []
    if isinstance(node, ast.Raise) and node.exc is not None:
        raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(raised, ast.Name) and raised.id == exc:
            sites.append(where)
    for child in ast.iter_child_nodes(node):
        sites += _raise_sites(child, exc, where)
    return sites


def test_budgets_are_refused_in_one_place():
    # every budget is a row of the table in budgets.py, refused by its one
    # check; the primality test's bound is a proven range, not a cost
    sites, names = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        sites += [(path.stem, f) for f in _raise_sites(tree, "BudgetExceeded")]
        if path.name == "budgets.py":
            continue
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "budgets":
                continue  # reading the table
            bound = [
                target.id
                for target in ast.walk(node)
                if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)
            ]
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [alias.asname or alias.name for alias in node.names]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            names += [f"{path.stem}.{n}" for n in bound if "BUDGET" in n]
    assert sorted(sites) == [("budgets", "check"), ("finitefield", "is_prime")]
    assert names == []


def test_a_solved_equation_is_analysed_in_one_place():
    # where a*s^2 + b*s + c has a root is said by counting._roots alone:
    # nothing else in counting.py reads `sqrt`, and the worker of a solved
    # chart adds up the masks it yields, with no np.where of its own
    path = ROOT / "src" / "wittzeta" / "counting.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    readers: dict = {}
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add(function.name)
    assert readers["sqrt"] == {"_roots"}
    assert "_root_counter" not in readers.get("where", set())


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound(function) -> set:
    """The names a function binds itself, as parameters or assignment
    targets; functions nested in it bind their own."""
    names = {a.arg for a in ast.walk(function.args) if isinstance(a, ast.arg)}
    todo = list(ast.iter_child_nodes(function))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _reads(node, read: set, local=frozenset()) -> set:
    """Every attribute name under node, and every bare name that the
    function it appears in does not bind: a local hides no other name."""
    if isinstance(node, FUNCTIONS):
        local = _bound(node)
    if isinstance(node, ast.Name) and node.id not in local:
        read.add(node.id)
    elif isinstance(node, ast.Attribute):
        read.add(node.attr)
    for child in ast.iter_child_nodes(node):
        _reads(child, read, local)
    return read


def test_every_function_is_read_somewhere():
    # a function or method whose name no code in src/ reads, that the
    # package does not export and perfbench/ does not name, has no caller;
    # dunder methods are called by Python itself
    import wittzeta

    defined, read = {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
        _reads(tree, read)
    # perfbench is read as code too, plus its string constants, which is
    # how tracing.py names what it wraps; its prose names nothing
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        _reads(tree, read)
        read |= {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
    uncalled = [
        f"{where} {name}"
        for name, where in sorted(defined.items())
        if name not in read
        and name not in wittzeta.__all__
        and not re.fullmatch(r"__\w+__", name)
    ]
    assert uncalled == []


def test_benchmark_traced_names_resolve():
    # perfbench/run.py --trace 1 wraps these names from outside the package;
    # deleting or renaming one breaks the traced benchmark run
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, name in tracing.FUNCTIONS:
        fn = getattr(importlib.import_module(f"wittzeta.{module}"), name, None)
        assert callable(fn), f"wittzeta.{module}.{name}"
    for module, cls, name in tracing.METHODS:
        owner = importlib.import_module(f"wittzeta.{module}")
        assert getattr(owner, cls.__name__, None) is cls, f"{module}.{cls.__name__}"
        assert callable(getattr(cls, name, None)), f"{cls.__name__}.{name}"
    # run.py reads the field cache's counters
    finitefield = importlib.import_module("wittzeta.finitefield")
    assert callable(finitefield.make_field.cache_info)
    # tracing.py flags the vector op that built a field's log tables
    F = finitefield.GF(3, 8, finitefield.make_field(3, 8).modulus)
    assert F._log_built is False
    F.vec_mul(np.arange(5), 1)
    assert F._log_built is True


def test_unthreaded_cli_never_imports_the_thread_pool():
    # counting imports concurrent.futures only when it splits a grid; at
    # module level its RSS would show in the peak of every benchmark run
    script = "\n".join([
        "import contextlib, io, sys",
        "from wittzeta.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [",
        "        main(['zeta', 'weil', '--variety', 'e5', '--prec', '6']),",
        "        main(['rat', 'mul', '--a-num', '1+t', '--b-num', '1-2*t']),",
        "    ]",
        "print(codes, 'concurrent.futures' in sys.modules)",
    ])
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (run.stdout, run.stderr) == ("[0, 0] False\n", "")
