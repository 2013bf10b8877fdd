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


def test_elements_build_scalars_only_at_the_edge():
    # an element is Gaussian-integer numerators over one denominator; only the
    # views that hand coefficients out, a span's coordinates included, call
    # Scalar, as_scalar, _norm or _dense
    edges = {"terms", "coeff", "constant_term", "as_records", "format_element", "express",
             "row_coordinates"}
    builders = {"Scalar", "as_scalar", "_norm", "_dense"}
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside or node.name in edges
        if not inside and isinstance(node, ast.Call) and \
                getattr(node.func, "id", None) in builders:
            found.append(f"elements.py:{node.lineno} {node.func.id}")
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse((SOURCES[0].parent / "elements.py").read_text(encoding="utf-8")), False)
    assert not found, found


def test_structure_invariants_run_on_the_integer_table():
    # a span does not depend on the scale of its rows, so the series, the centre,
    # the filiform test, recognition and the realisation check bracket rows over
    # Z[i], the integer kernel returns relations over Z[i], the engine returns
    # coordinates and the reduced basis over Z[i], and the library's own tables
    # pass those straight to the table: none builds a Scalar only to clear it
    # again.  recognize alone builds one Scalar matrix, ad(h) on the derived
    # algebra, since ``eigenvalues`` reads Scalars
    scoped = {"liestruct.py": {"_derived_span", "_series", "_center", "_invariants",
                               "_model_filiform", "recognize", "verify_realization",
                               "lie_closure", "_struct_from_images", "quotient_by_center",
                               "_built"},
              "linalg.py": {"integer_kernel", "Echelon.reduced_rows", "Echelon._reduce",
                            "Echelon.insert_coordinates", "Echelon.express"},
              "elements.py": {"ElementSpan.reduced_basis"}}
    builders = {"Scalar", "ONE", "ZERO", "as_scalar", "_norm", "_dense"}
    allowed = {("recognize", "_dense")}
    found = []
    for module, names in scoped.items():
        tree = ast.parse((SOURCES[0].parent / module).read_text(encoding="utf-8"))
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        functions.update((f"{cls.name}.{node.name}", node)
                         for cls in tree.body if isinstance(cls, ast.ClassDef)
                         for node in cls.body if isinstance(node, ast.FunctionDef))
        assert names <= set(functions)
        found += [f"{module} {name}:{node.lineno} {node.id}" for name in sorted(names)
                  for node in ast.walk(functions[name])
                  if isinstance(node, ast.Name) and node.id in builders
                  and (name, node.id) not in allowed]
    assert not found, found


def test_the_frozen_references_run_on_the_frozen_engine():
    # a reference that called the live engine would check the engine against
    # itself; of linalg only ``eigenvalues``, tested against sympy, stays live
    live = {"Echelon", "kernel", "integer_kernel", "eigen_decomposition"}
    frozen = ["frozen_echelon.py", "scalar_struct.py", "scalar_element.py", "frozen_parsers.py"]
    found = []
    for name in frozen:
        tree = ast.parse((Path(__file__).parent / name).read_text(encoding="utf-8"))
        found += [f"{name}:{node.lineno} {alias.name}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("weylkit")
                  for alias in node.names if alias.name in live | {"linalg"}]
        found += [f"{name}:{node.lineno} {node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in live]
        found += [f"{name}:{node.lineno} {alias.name}" for node in ast.walk(tree)
                  if isinstance(node, ast.Import) for alias in node.names
                  if alias.name.startswith("weylkit")]
    assert not found, found


def test_each_subcommand_is_declared_once_on_its_handler():
    # a subcommand's name, help, arguments and schema are written in its
    # `_command` decorator only: the parser is built from the registry and
    # main stamps the schema, so neither repeats a subcommand name
    tree = ast.parse((SOURCES[0].parent / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    handlers = {name: node for name, node in functions.items() if name.startswith("_cmd_")}
    names = {name[len("_cmd_"):] for name in handlers}
    found = []
    for name, node in handlers.items():
        calls = [d for d in node.decorator_list
                 if isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_command"]
        if not calls:
            found.append(f"{name} is not registered by @_command")
        names |= {c.args[0].value for c in calls if c.args}
        found += [f"{name}:{c.lineno} schema string" for c in ast.walk(node)
                  if isinstance(c, ast.Constant) and "weyl/" in str(c.value)]
    found += [f"_build_parser:{c.lineno} {c.value}" for c in ast.walk(functions["_build_parser"])
              if isinstance(c, ast.Constant) and c.value in names]
    assert handlers
    assert not found, found


def test_the_cli_and_liestruct_import_the_structure_modules_on_call():
    # `weyl mul` compiles only the package core and `weyl recognize` adds only
    # liestruct: a module-level import here would load every handler's modules
    heavy = {"cli.py": {"dixmier", "liestruct", "morphisms", "sl2orbits"},
             "liestruct.py": {"sl2orbits"}}
    found = [f"{name}:{node.lineno} {node.module}" for name, modules in heavy.items()
             for node in ast.parse((SOURCES[0].parent / name).read_text(encoding="utf-8")).body
             if isinstance(node, ast.ImportFrom) and ({(node.module or "").split(".")[-1]}
                                                      | {a.name for a in node.names}) & modules]
    assert not found, found


def test_every_private_name_is_read():
    # a private module-level function, class or constant that no module reads
    # is dead code; the subcommand handlers are read through their decorator
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    private = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if name == "cli.py" and node.decorator_list:
                    continue
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                continue
            private += [(f"{name}:{node.lineno}", d) for d in defined
                        if d.startswith("_") and not d.startswith("__")]
    unread = [f"{where} {d}" for where, d in private if d not in read]
    assert private
    assert not unread, unread
