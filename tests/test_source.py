"""Checks on the package source itself."""

import ast
import json
import os
import subprocess
import sys
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
    # linalg._eliminate, the jets take their numerators from the field
    # descriptors, and forms are read off linalg.gram_matrix: the Q-only
    # integer row reduction and determinant, the jets' zero-by-type helper,
    # the coefficient-type test that chose an integer path and the form
    # evaluators it served are defined, imported and called nowhere in the
    # package; so are the second builders of census factors (in sympy's
    # order), plane polynomials, printed scalars and the CLI's census, the
    # ADE germ's implicit solve on a coordinate chart, the wrapped Gram
    # reading at a smooth point, cusplocus's twin binary-form helpers, the
    # jet and chart helpers that only the tests reached, the plane model's
    # second line builder (the census builds every fixture's lines), the
    # line chart's probe, which could never fail, and the search and fit
    # that the closed-form double-conic hyperplane and tacnodal conic
    # replace
    gone = {"_zrow_reduce", "_zdet", "_zero", "_rational", "qform", "bform",
            "_sympy_order", "fmt_scalar", "rat", "_poly_mul", "_gradient",
            "_census", "hypersurface_germ", "_affine_chart_vectors",
            "_TangentGrams", "_sub", "_mul", "divide_by_power", "drop_vars",
            "point_at", "tangent_space", "gradients", "model_lines",
            "map_gradient", "_conic_through", "move_line",
            "_graph_solvable_along_line", "_conic_tangency_point",
            "double_conic_points", "ReducibleImageConic",
            "dual_plane_conic_fit", "_express_in_basis"}
    root = Path(segrecusp.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if {getattr(node, "name", None), getattr(node, "id", None),
                 getattr(node, "attr", None)} & gone]
    assert found == []


def _import_time_nodes(node):
    """The nodes that run when a module is imported: all but the bodies of
    its functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def test_no_module_imports_sympy_at_import_time():
    # sympy takes most of a cold start; it is imported only inside the
    # functions that fall back on it
    root = Path(segrecusp.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _import_time_nodes(tree):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [])
            if any(name.split(".")[0] == "sympy" for name in names):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert found == []


NO_SYMPY_RUN = """
import json, random, sys
from fractions import Fraction
from segrecusp.cli import main
from segrecusp.fields import QQ
from segrecusp.linalg import mat_det
from segrecusp.lines import enumerate_lines
from segrecusp.pencil import TABLE1_SYMBOLS, default_instance
from segrecusp.surface import SurfaceInstance

for symbol, params in (("[5]", [1]), ("[14]", [1, 2])):
    path = sys.argv[1] + "/cfg.json"
    with open(path, "w") as fh:
        json.dump({"symbol": symbol, "params": params, "seed": 3}, fh)
    if main(["surface-report", "--config", path]) != 0:
        sys.exit(f"surface-report {symbol} failed")
# the [11(12)] copy of tests/test_lines.py's _random_congruences(1), whose
# census meets a quartic with Galois group V4
rng = random.Random(1)
for symbol in TABLE1_SYMBOLS:
    while True:
        A = [[Fraction(rng.randint(-2, 2)) for _ in range(5)] for _ in range(5)]
        if mat_det(QQ, A):
            break
    if str(symbol) == "[11(12)]":
        break
census = enumerate_lines(SurfaceInstance(default_instance("[11(12)]").congruent(A)))
print(json.dumps({"counts": list(census.counts),
                  "sympy": "sympy" in sys.modules}))
"""


def test_reports_and_census_run_without_sympy(tmp_path):
    src = str(Path(segrecusp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", NO_SYMPY_RUN, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"counts": [0, 4, 0], "sympy": False}
