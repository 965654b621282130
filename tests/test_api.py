"""Every name ``whitneylab`` exports, and every parameter with a default,
has a caller outside the tests, and no module imports a name it never uses.

A name counts as used when the package's modules (other than ``__init__``),
``perfbench/*.py`` or ``scripts/*.py`` refer to it: by name, as an attribute,
or as a string (``perfbench/spans.py`` hooks functions by their names). A
definition is not a use. The acceptance tests build their inputs with a few
helpers that no command needs; those are listed with the test that needs them.
A parameter with a default counts as used when a call in those files, to a
function or class of that name, passes it by keyword or by position.
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

KEPT_SETTABLE = {
    ("set_modulus", "n_shift"): "the property tests vary the shift grid",
    ("set_modulus", "refine"): "the property tests vary the shift grid",
}


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def _outside_tests():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return files + sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _used_names():
    used = set()
    for path in _outside_tests():
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


def _defaulted_parameters():
    """(callable name, parameter, position in a call or None) for every parameter
    with a default; a method's position skips ``self``, and ``__init__`` is
    called by its class name."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {fn: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            skip = 1 if fn in owner and not static else 0
            name = owner[fn] if fn.name == "__init__" else fn.name
            args = fn.args.posonlyargs + fn.args.args
            for i in range(len(args) - len(fn.args.defaults), len(args)):
                yield name, args[i].arg, i - skip
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None


def _passed_parameters():
    """Callable name -> (positional count, keyword names) of each call to it; a
    forwarded ``**kw`` or ``*args`` passes nothing by name or position."""
    calls = {}
    for path in _outside_tests():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            n_pos = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)),
                         len(node.args))
            calls.setdefault(name, []).append(
                (n_pos, {k.arg for k in node.keywords if k.arg is not None}))
    return calls


def _unset_parameters():
    calls = _passed_parameters()
    return {(name, param) for name, param, pos in _defaulted_parameters()
            if not any(param in kws or (pos is not None and n_pos > pos)
                       for n_pos, kws in calls.get(name, []))}


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    unused = sorted(_unset_parameters() - set(KEPT_SETTABLE))
    assert not unused, f"parameters no caller outside the tests sets: {unused}"


def test_kept_parameters_exist_and_are_unused():
    # an entry whose parameter gained a caller, or went, leaves the list
    assert set(KEPT_SETTABLE) <= _unset_parameters()


def _unused_imports(path):
    """Names a module imports and never refers to; ``from __future__`` imports
    are directives, not names."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_src_module_imports_a_name_it_never_uses():
    # the package's __init__ imports in order to export, so it is exempt
    unused = {f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py" for name in _unused_imports(path)}
    assert not unused, f"imported but never used: {sorted(unused)}"


def test_benchmark_hooks_find_their_targets():
    # perfbench/spans.py wraps functions by name and raises on a missing one;
    # a rename should fail here, not only in a traced benchmark run
    code = "import spans; spans.install(spans.Tracer())"
    path = os.pathsep.join([str(PACKAGE.parent), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _representations():
    """Every subclass of ``geometry.Domain`` in the package, at any depth."""
    from whitneylab.geometry import Domain
    found, todo = [], [Domain]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("whitneylab."):
                found.append(cls)
                todo.append(cls)
    return found


def _defined_below_domain(cls, name):
    """Whether ``cls`` or a base class of it below ``Domain`` defines ``name``,
    as an attribute, a method or a dataclass field."""
    from whitneylab.geometry import Domain
    below = cls.__mro__[:cls.__mro__.index(Domain)]
    return any(name in vars(k) or name in vars(k).get("__annotations__", {}) for k in below)


def test_every_representation_keeps_the_domain_protocol():
    # Domain derives violation from signed_distance, so either one will do
    reps = _representations()
    assert {cls.__name__ for cls in reps} >= {"PolytopeRep", "BallRep", "ConeBodyRep",
                                              "UnionRep", "IntersectionRep", "AffineImageRep"}
    missing = [f"{cls.__name__}.{name}" for cls in reps
               for name in ("member", "spec", "bbox") if not _defined_below_domain(cls, name)]
    missing += [f"{cls.__name__}.violation" for cls in reps
                if not _defined_below_domain(cls, "violation")
                and not _defined_below_domain(cls, "signed_distance")]
    assert not missing, f"representations missing protocol members: {missing}"


def test_no_representation_overrides_the_queries():
    # perfbench/spans.py hooks Domain.contains on the class, tests patch it
    # there, and the membership slack is set there: an override would bypass all three
    reps = _representations()
    assert reps
    overridden = [f"{cls.__name__}.{name}" for cls in reps
                  for name in ("dim", "contains", "exit_distance", "strictly_inside", "scale",
                               "_slack") if _defined_below_domain(cls, name)]
    assert not overridden, f"representations override Domain's queries: {overridden}"


def test_no_src_module_reads_a_rep_attribute():
    # a domain is one object: its representation is the domain itself
    reads = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "rep"]
    assert not reads, f"reads of .rep: {reads}"


def test_no_src_function_imports():
    # every import sits at a module's top, where a reader looks for what it loads
    inner = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for fn in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not inner, f"imports inside functions: {sorted(set(inner))}"
