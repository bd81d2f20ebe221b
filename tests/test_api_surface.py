"""Every function, class and method in the library has a caller outside the tests.

The library also imports only the standard library and itself, and only
``complexes.cached`` reads or writes a ``_cache``.

A name defined in ``src/diffchar`` must be referenced somewhere in
``src/`` or ``perfbench/`` (as a name, an attribute or an import), be
exported in ``diffchar.__all__``, or be listed in :data:`KEPT` with the
reason it stays.  Helpers that only the tests reach belong in
``tests/oracles.py`` or in the tests themselves.
"""

import ast
import importlib
import sys
from pathlib import Path

import diffchar

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "diffchar").glob("*.py"))
READERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))

# features kept on purpose although nothing in src/ or perfbench/ calls them
KEPT = {
    "star_trivialization": "the cone primitive of a k-phase on a closed star, "
    "the local trivialization the cover model is built on",
    "gauge": "moves a k-phase by the coboundary of a potential, the gauge action "
    "that defines equivalence of phases",
    "gerbe_spark": "the spark of cover-model data with its layers checked; the CLI, "
    "which has checked them already, calls the unchecked gluing directly",
}


def _definitions():
    for path in LIBRARY:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path.name, node.lineno, node.name


def _references():
    names = set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def test_every_library_name_has_a_library_or_benchmark_caller():
    used = _references() | set(diffchar.__all__) | set(KEPT)
    unused = [
        f"{module}:{line} {name}"
        for module, line, name in _definitions()
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]
    assert not unused, "defined in src/ but reached only by the tests: " + ", ".join(unused)


def test_kept_names_are_defined():
    defined = {name for _, _, name in _definitions()}
    assert set(KEPT) <= defined


def test_library_imports_only_the_standard_library():
    foreign = []
    for path in LIBRARY:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                if top != "diffchar" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno} {module}")
    assert not foreign, "imports outside the standard library: " + ", ".join(foreign)


def _scoped(node, scope=()):
    """Every node below ``node``, with the names of the classes and functions around it."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        yield inner, child
        yield from _scoped(child, inner)


def test_only_complexes_cached_touches_a_cache():
    # what a complex or a Hodge context derives is built once through
    # complexes.cached; the two constructors only start an empty cache
    starts = {("SimplicialComplex", "__init__"), ("HodgeContext", "__init__")}
    found, started = [], []
    for path in LIBRARY:
        nodes = list(_scoped(ast.parse(path.read_text(), str(path))))
        fresh = set()
        for scope, node in nodes:
            if (scope in starts and isinstance(node, ast.Assign)
                    and ast.unparse(node) == "self._cache = {}"):
                fresh.add(id(node.targets[0]))
                started.append(scope[0])
        for scope, node in nodes:
            if path.name == "complexes.py" and scope[:1] == ("cached",):
                continue
            touches = (
                isinstance(node, ast.Attribute) and node.attr == "_cache"
                and id(node) not in fresh
            ) or (isinstance(node, ast.Constant) and node.value == "_cache")
            if touches:
                found.append(f"{path.name}:{node.lineno} in {'.'.join(scope) or 'the module'}")
    assert not found, "a _cache touched outside complexes.cached: " + ", ".join(found)
    assert sorted(started) == ["HodgeContext", "SimplicialComplex"]


def test_only_exact_names_a_smith_transform_cache():
    # the transforms a Smith form has built are exact's own; the
    # certificate, SmithDecomposition.broken_identity, reads them there
    found = [
        f"{path.name}:{node.lineno}"
        for path in LIBRARY if path.name != "exact.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Attribute) and node.attr == "built")
        or (isinstance(node, ast.Constant) and node.value == "built")
    ]
    assert not found, "a Smith form's built transforms named outside exact: " + ", ".join(found)


def test_every_library_exception_is_a_value_error():
    # the command line ends every input error with exit 3 by catching
    # OSError and ValueError alone
    defined = [
        obj
        for path in LIBRARY
        for obj in vars(importlib.import_module(f"diffchar.{path.stem}")).values()
        if isinstance(obj, type) and issubclass(obj, BaseException)
        and obj.__module__ == f"diffchar.{path.stem}"
    ]
    assert {cls.__name__ for cls in defined} >= {
        "ComplexError", "SparkError", "HodgeError", "MorseError", "PhaseError",
        "GerbeError", "SimplexBudgetError", "InputDataError",
    }
    assert [cls.__name__ for cls in defined if not issubclass(cls, ValueError)] == []
