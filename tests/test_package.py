"""Package-level promises that no single module test covers."""

import ast
import importlib
import pathlib
import sys

import pytest

import cartier

SOURCES = sorted(pathlib.Path(cartier.__file__).parent.glob("*.py"))


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
