"""Standing checks on the library source itself."""

import ast
import importlib
from pathlib import Path

import weylkit

SOURCES = sorted(Path(weylkit.__file__).parent.glob("*.py"))


def test_no_assert_in_the_library():
    # `python -O` strips asserts, so a check written as one would silently
    # stop running; validation raises the typed errors in errors.py instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES
    assert not found, found


def test_every_export_is_bound():
    # a stale name in __all__ breaks `from weylkit.<module> import *`
    missing = []
    for path in SOURCES:
        name = "weylkit" if path.stem == "__init__" else f"weylkit.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ())
                    if not hasattr(module, n)]
    assert not missing, missing
