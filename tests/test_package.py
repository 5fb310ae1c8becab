"""Properties of the package source as a whole."""

import ast
from pathlib import Path

import mathieulab


def test_no_assert_statements():
    # python -O strips assert statements, so a check written as one vanishes
    package = Path(mathieulab.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
