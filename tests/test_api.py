"""Every name ``whitneylab`` exports has a caller outside the tests.

A name counts as used when the package's modules (other than ``__init__``),
``perfbench/*.py`` or ``scripts/*.py`` refer to it: by name, as an attribute,
or as a string (``perfbench/spans.py`` hooks functions by their names). A
definition is not a use. The acceptance tests build their inputs with a few
helpers that no command needs; those are listed with the test that needs them.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import whitneylab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(whitneylab.__file__).resolve().parent

KEPT_FOR_ACCEPTANCE = {
    "grid_plan": "test_acceptance.py::test_criterion_5_oned_whitney_ceiling",
    "as_polytope": "test_acceptance.py::test_criterion_8_invariance_suite",
    "normalize": "test_acceptance.py::test_criterion_7_decomposition_verification "
                 "(its polygons come from conftest.random_convex_polygon)",
}


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def _used_names():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def test_every_export_has_a_caller_outside_the_tests():
    unused = _exported() - _used_names() - set(KEPT_FOR_ACCEPTANCE)
    assert not unused, f"exported but used only by tests: {sorted(unused)}"


def test_kept_helpers_are_exported_and_unused():
    # an entry whose name gained a caller, or left the exports, goes from the list;
    # AffineMap and inscribed_ball need none, as normalize calls them
    kept = set(KEPT_FOR_ACCEPTANCE)
    assert kept <= _exported()
    assert not kept & _used_names()


def test_benchmark_hooks_find_their_targets():
    # perfbench/spans.py wraps functions by name and raises on a missing one;
    # a rename should fail here, not only in a traced benchmark run
    code = "import spans; spans.install(spans.Tracer())"
    path = os.pathsep.join([str(PACKAGE.parent), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
