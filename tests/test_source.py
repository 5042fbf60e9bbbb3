"""Properties of the package source itself."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import snowflake_groups

SOURCES = sorted(Path(snowflake_groups.__file__).parent.glob("*.py"))


def test_no_assert_in_package():
    # `python -O` strips asserts, so every stated guarantee needs a real check
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_stdlib_only():
    # the runtime uses the standard library only; relative imports stay inside
    assert SOURCES
    found = [
        f"{path.name}:{lineno} {name}"
        for path in SOURCES
        for lineno, name in _absolute_imports(ast.parse(path.read_text(), filename=str(path)))
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert found == []


_CACHES = {"cache", "lru_cache"}


def _functools_caches(tree):
    """(lineno, name) of every functools.cache or lru_cache the module imports or applies."""
    aliases = {"functools"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "functools")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from ((node.lineno, a.name) for a in node.names if a.name in _CACHES)
        elif isinstance(node, ast.Attribute) and node.attr in _CACHES:
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                yield node.lineno, node.attr


@pytest.mark.parametrize(
    "source, found",
    [
        ("from functools import lru_cache\n", [(1, "lru_cache")]),
        ("import functools as ft\n@ft.cache\ndef f(): pass\n", [(2, "cache")]),
        ("import functools\ng = functools.lru_cache(maxsize=None)(len)\n", [(2, "lru_cache")]),
        ("from functools import reduce\ncache = {}\n", []),
    ],
)
def test_cache_check_sees_imports_and_decorators(source, found):
    assert sorted(_functools_caches(ast.parse(source))) == found


def test_no_functools_cache_in_package():
    # memoized results live with the call or object that made them, never in
    # a process-wide cache that outlives it
    assert SOURCES
    found = [
        f"{path.name}:{lineno} {name}"
        for path in SOURCES
        for lineno, name in _functools_caches(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_benchmark_entry_points_resolve():
    # the benchmark's tracer wraps these (module, attribute) pairs at
    # install(); each must still name something in the package.  The
    # tracer's source is read, not imported.
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    (table,) = [
        node.value
        for node in ast.parse(tracing.read_text()).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "ENTRY_POINTS"
    ]
    points = [(row.elts[0].value, row.elts[1].value) for row in table.elts]
    assert points
    missing = []
    for module, attr in points:
        obj = importlib.import_module(f"snowflake_groups.{module}")
        for name in attr.split("."):
            obj = getattr(obj, name, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert missing == []
