"""Properties of the package source itself."""

import ast
import sys
from pathlib import Path

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
