"""Every exported name resolves: a deletion cannot leave a dangling export."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import bklab

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(bklab.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"bklab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"bklab.{name}.__all__ lists names it lacks: {missing}"


def test_package_imports_only_listed_names():
    tree = ast.parse(inspect.getsource(bklab))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports, "bklab/__init__.py re-exports nothing"
    for node in imports:
        assert node.level == 1, f"bklab/__init__.py imports from outside the package: {node.module}"
        module = importlib.import_module(f"bklab.{node.module}")
        listed = getattr(module, "__all__", ())
        unlisted = [a.name for a in node.names if a.name not in listed]
        assert not unlisted, f"bklab.{node.module}.__all__ does not list {unlisted}"
