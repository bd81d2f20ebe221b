"""Every function, class and method in the library has a caller outside the tests.

The library also imports only the standard library and itself.

A name defined in ``src/diffchar`` must be referenced somewhere in
``src/`` or ``perfbench/`` (as a name, an attribute or an import), be
exported in ``diffchar.__all__``, or be listed in :data:`KEPT` with the
reason it stays.  Helpers that only the tests reach belong in
``tests/oracles.py`` or in the tests themselves.
"""

import ast
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
