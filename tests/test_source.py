"""Standing checks on the library source itself."""

import ast
import importlib
import os
import subprocess
import sys
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


def test_the_public_surface_resolves_in_a_fresh_interpreter():
    # names a module re-exports on first use (sl2orbits' morphisms names) must
    # resolve by getattr and by a star import from a cold start, as the
    # objects of the module that defines them
    modules = ["weylkit" if path.stem == "__init__" else f"weylkit.{path.stem}"
               for path in SOURCES]
    script = f"""
import importlib, sys
import weylkit.sl2orbits as sl2
if "weylkit.morphisms" in sys.modules:
    raise SystemExit("importing sl2orbits loaded morphisms")
import weylkit.morphisms as morphisms
for name in ("SL2Element", "alpha1_hat", "beta_hat"):
    if getattr(sl2, name) is not getattr(morphisms, name):
        raise SystemExit(f"sl2orbits.{{name}} is not morphisms.{{name}}")
    if name not in vars(sl2):
        raise SystemExit(f"sl2orbits.{{name}} is not bound after its first access")
for name in {modules!r}:
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", ())
    for export in exports:
        getattr(module, export)
    namespace = {{}}
    exec(f"from {{name}} import *", namespace)
    missing = set(exports) - set(namespace)
    if missing:
        raise SystemExit(f"{{name}}: star import misses {{sorted(missing)}}")
"""
    env = dict(os.environ, PYTHONPATH=str(SOURCES[0].parent.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr + done.stdout


def test_the_library_builds_its_tables_unchecked():
    # every table the library makes is read off brackets in A1 or off a checked
    # table and goes through liestruct._built, so the constructor's Jacobi check
    # runs only on tables from outside; a library call of the constructor would
    # check a table true by construction
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and "LieAlgebraStruct" in (
                 getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert not found, found


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


def test_every_cache_is_bounded():
    # an unbounded cache keeps every distinct argument for the life of the
    # process: each functools.lru_cache names a finite maxsize (an int, or a
    # module constant bound to one), and functools.cache is not used
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        ints = {t.id for node in tree.body if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant) and type(node.value.value) is int
                for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{path.name}:{node.lineno} cache" for a in node.names
                          if a.name == "cache"]
            elif isinstance(node, ast.Attribute) and node.attr == "cache" \
                    and getattr(node.value, "id", None) == "functools":
                found.append(f"{path.name}:{node.lineno} cache")
            elif isinstance(node, ast.Call) and "lru_cache" in (getattr(node.func, "id", None),
                                                                  getattr(node.func, "attr", None)):
                size = [*node.args[:1], *(k.value for k in node.keywords if k.arg == "maxsize")]
                bounded = size and (getattr(size[0], "id", None) in ints or isinstance(
                    size[0], ast.Constant) and type(size[0].value) is int)
                found += [] if bounded else [f"{path.name}:{node.lineno} lru_cache"]
    assert not found, found


def test_each_reader_and_accumulator_is_defined_once():
    # one coefficient reader, one matrix reader, one Gaussian accumulator of
    # Σ z·row and one ratio test u = a·v, each in its own module; liestruct and
    # linalg read entries through _clear or _scalar_rows, never as_scalar
    owners = {"_triple": "scalars.py", "_clear": "scalars.py", "_scalar_rows": "scalars.py",
              "_combination": "elements.py", "_ratio": "dixmier.py"}
    defined, found = [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name in owners:
                defined.append((node.name, path.name))
            if path.name in ("liestruct.py", "linalg.py") and isinstance(node, ast.Call) \
                    and getattr(node.func, "id", None) == "as_scalar":
                found.append(f"{path.name}:{node.lineno} as_scalar")
    assert sorted(defined) == sorted(owners.items())
    assert not found, found


def test_one_row_walk_reads_the_swap_rows():
    # products, brackets, anticommutators and the eigenvector columns of
    # dixmier all walk their rows in elements._accumulate, from the one row
    # builder _signed_row; besides it only _delta_monomial reads a swap row, as
    # the Weyl-ordering coefficients, so no second walk, builder or cache can
    # grow elsewhere
    rows = {"_signed_row"}
    allowed = {("elements.py", name) for name in ("_accumulate", "_delta_monomial")}
    found, walked, cached = [], set(), []
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", None)
            cached += [(path.name, owner) for d in getattr(top, "decorator_list", ())
                       if "cache" in ast.unparse(d)]
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if isinstance(node, ast.ImportFrom):
                    found += [f"{path.name}:{node.lineno} import {alias.name}"
                              for alias in node.names if alias.name in rows]
                elif name in rows and (path.name, owner) not in allowed:
                    found.append(f"{path.name}:{node.lineno} {owner} {name}")
                elif name in rows and owner == "_accumulate":
                    walked.add(name)
    assert walked == rows
    assert cached == [("elements.py", "_signed_row")]
    assert not found, found


def test_structure_invariants_run_on_the_integer_table():
    # a span does not depend on the scale of its rows, so the series, the centre,
    # the filiform test, recognition and the realisation check bracket rows over
    # Z[i], the integer kernel returns relations over Z[i], the engine returns
    # coordinates and the reduced basis over Z[i], and the library's own tables
    # pass those straight to the table: none builds a Scalar only to clear it
    # again.  The spectra of recognize and weight_spaces run on the integer
    # ad-matrix too: the one Scalar built is each eigenvalue ``eigenvalues``
    # returns.  An annotation builds nothing, so it is not read
    scoped = {"liestruct.py": {"_derived_span", "_series", "_center", "_invariants",
                               "_filiform", "recognize", "Realization.__new__",
                               "lie_closure", "_struct_from_images", "quotient_by_center",
                               "_built", "_rebased", "weight_spaces"},
              "linalg.py": {"integer_kernel", "Echelon.reduced_rows", "Echelon._reduce",
                            "Echelon.insert_coordinates", "Echelon.express", "eigenvalues",
                            "eigen_decomposition"},
              "elements.py": {"ElementSpan.reduced_basis"}}
    builders = {"Scalar", "ONE", "ZERO", "as_scalar", "_norm", "_dense"}
    found = []
    for module, names in scoped.items():
        tree = ast.parse((SOURCES[0].parent / module).read_text(encoding="utf-8"))
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        functions.update((f"{cls.name}.{node.name}", node)
                         for cls in tree.body if isinstance(cls, ast.ClassDef)
                         for node in cls.body if isinstance(node, ast.FunctionDef))
        assert names <= set(functions)
        for name in sorted(names):
            fn = functions[name]
            tops = [fn.returns, *(arg.annotation for arg in ast.walk(fn.args)
                                  if isinstance(arg, ast.arg))]
            annotations = {id(node) for top in tops if top for node in ast.walk(top)}
            found += [f"{module} {name} {node.id}" for node in ast.walk(fn)
                      if isinstance(node, ast.Name) and node.id in builders
                      and id(node) not in annotations]
    assert found == ["linalg.py eigenvalues _norm"], found


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


def _import_time_imports(tree):
    """The imports a module runs when it is loaded: those outside its functions,
    and outside an ``if TYPE_CHECKING:`` block, which names only annotations."""
    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            yield from (n for child in node.orelse for n in visit(child))
        else:
            yield from (n for child in ast.iter_child_nodes(node) for n in visit(child))
    return list(visit(tree))


def test_the_cli_and_liestruct_import_the_structure_modules_on_call():
    # `weyl mul` compiles only the package core, `weyl recognize` adds only
    # liestruct and linalg, `weyl casimir` only sl2orbits: a load-time import
    # here would load modules the common path never runs (a span's linalg,
    # the s11 side's dixmier, the action's morphisms, --json's json)
    heavy = {"cli.py": {"dixmier", "liestruct", "morphisms", "sl2orbits", "json"},
             "liestruct.py": {"sl2orbits"}, "elements.py": {"linalg"},
             "sl2orbits.py": {"dixmier", "linalg", "morphisms"}}
    found = []
    for name, modules in heavy.items():
        tree = ast.parse((SOURCES[0].parent / name).read_text(encoding="utf-8"))
        for node in _import_time_imports(tree):
            names = {a.name.split(".")[-1] for a in node.names}
            if isinstance(node, ast.ImportFrom):
                names.add((node.module or "").split(".")[-1])
            found += [f"{name}:{node.lineno} {m}" for m in sorted(names & modules)]
    assert not found, found


def test_no_import_runs_in_a_loop():
    # an import statement costs about a microsecond each time it runs; once per
    # handler, span or s11 side is nothing, once per term or row a hot path
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for loop in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(loop, (ast.For, ast.AsyncFor, ast.While))
             for node in ast.walk(loop) if isinstance(node, (ast.Import, ast.ImportFrom))]
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
