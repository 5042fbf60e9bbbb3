"""Properties of the package source itself."""

import ast
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
