"""Checks on the package source itself."""

import ast
from pathlib import Path

import segrecusp


def test_no_assert_statements_in_package():
    # invariants raise SegreCuspError: python -O strips assert statements
    root = Path(segrecusp.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
