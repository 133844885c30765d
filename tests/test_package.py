"""Package-level promises that no single module test covers."""

import ast
from collections import Counter
import importlib
import pathlib
import sys

import pytest

import cartier

SOURCES = sorted(pathlib.Path(cartier.__file__).parent.glob("*.py"))
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def absolute_imports(path):
    """Names of the modules a source file imports other than its own package's."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_imports_only_the_standard_library():
    assert SOURCES
    for path in SOURCES:
        for name in absolute_imports(path):
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_star_import_binds_every_export():
    namespace = {}
    exec("from cartier import *", namespace)
    assert set(cartier.__all__) <= set(namespace)
    assert set(cartier.__all__) <= set(dir(cartier))


def test_exports_are_the_submodules_objects():
    for name in cartier.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(f"cartier.{cartier._HOME[name]}")
        assert getattr(cartier, name) is getattr(home, name), name
        assert cartier.__getattr__(name) is getattr(home, name), name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        cartier.no_such_name


def test_no_source_imports_dataclasses():
    for path in SOURCES:
        assert "dataclasses" not in set(absolute_imports(path)), path.name


# Public functions that nothing in src/ calls and no export names, each kept
# for a reason of its own.
UNCALLED = {
    "crystal.fixed_submodule_lattice": "the paper's lattice of N with C(N) = N; "
    "test_acceptance.py and the benchmark's lattice hook use it",
}


def names_read(tree):
    """Every name read as a variable or an attribute in tree."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


NAMES = Counter(name for tree in TREES.values() for name in names_read(tree))


def named_outside(node):
    """Whether src/ names the definition `node` outside itself."""
    return NAMES[node.name] > Counter(names_read(node))[node.name]


def test_every_public_function_has_a_caller_or_a_reason():
    """A module-level public function is exported, named in src/ outside
    its own def, or listed in UNCALLED; and every entry of UNCALLED is a
    function that nothing else keeps."""
    uncalled = []
    for module, tree in TREES.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            if node.name in cartier._EXPORTS.get(module, ()):
                continue
            if not named_outside(node):
                uncalled.append(f"{module}.{node.name}")
    assert sorted(uncalled) == sorted(UNCALLED)
    assert all(UNCALLED.values())


def test_every_private_definition_has_a_caller():
    """A `_name` function, class or method, at any depth, is named in src/
    outside its own definition, so no helper outlives its last caller.
    Dunder methods are exempt: the language calls them."""
    uncalled = [
        f"{module}.{node.name}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not named_outside(node)
    ]
    assert uncalled == []
