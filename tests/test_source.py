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


def test_integer_twins_stay_removed():
    # rref, ranks, solves, inverses and determinants share one elimination,
    # linalg._eliminate, and the jets take their numerators from the field
    # descriptors: the Q-only integer row reduction and determinant and the
    # jets' zero-by-type helper they replaced are defined, imported and
    # called nowhere in the package
    gone = {"_zrow_reduce", "_zdet", "_zero"}
    root = Path(segrecusp.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if {getattr(node, "name", None), getattr(node, "id", None),
                 getattr(node, "attr", None)} & gone]
    assert found == []
