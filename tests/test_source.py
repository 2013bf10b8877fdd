"""Standing checks on the library source itself."""

import ast
import importlib
from pathlib import Path

import weylkit

SOURCES = sorted(Path(weylkit.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def test_no_assert_in_the_library():
    # `python -O` strips asserts, so a check written as one would silently
    # stop running; validation raises the typed errors in errors.py instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES
    assert not found, found


def test_no_unused_import_in_the_library():
    # a name brought in by `from … import` and never read is dead weight;
    # re-exports are the names a module lists in __all__; the tests are held
    # to the same rule
    unused = []
    assert TESTS
    for path in SOURCES + TESTS:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for elt in node.value.elts}
        unused += [f"{path.name}:{node.lineno} {name}"
                   for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   for name in (alias.asname or alias.name for alias in node.names)
                   if name != "annotations" and name not in read | exported]
    assert not unused, unused


def test_every_export_is_bound():
    # a stale name in __all__ breaks `from weylkit.<module> import *`
    missing = []
    for path in SOURCES:
        name = "weylkit" if path.stem == "__init__" else f"weylkit.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ())
                    if not hasattr(module, n)]
    assert not missing, missing


def test_the_elimination_engine_stays_behind_linalg():
    # Echelon is the one elimination routine; other modules reach it through
    # its public names only, so its integer internals can change in one place
    found = [f"{path.name}:{node.lineno} {alias.name}"
             for path in SOURCES if path.stem != "linalg"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom) and node.module == "linalg" and node.level == 1
             for alias in node.names if alias.name.startswith("_")]
    assert not found, found
