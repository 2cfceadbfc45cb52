"""Every name a module exports is defined there, and the package imports
only exported names.

A module's ``__all__`` is its public API.  An entry that names nothing,
such as one left behind when its definition was deleted, breaks
``from module import *``; a name that ``polydiv/__init__.py`` takes from a
module's privates or imports bypasses that API.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "polydiv"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name not in ("__init__.py", "__main__.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exports(tree):
    """The string entries of the module's ``__all__`` list, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return None


def _undefined_exports(tree):
    """The ``__all__`` entries that no top-level statement other than an
    import binds."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                defined.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return sorted(set(_exports(tree)) - defined)


def _unexported_imports(package, exports):
    """The (module, name) pairs that the package's ``from .module import``
    statements take although the module's ``__all__`` lacks the name."""
    return [
        (node.module, alias.name)
        for node in package.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name not in exports[node.module]
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_defined_in_its_module(path):
    tree = _tree(path)
    exports = _exports(tree)
    assert exports is not None, f"{path.name} has no __all__"
    assert len(exports) == len(set(exports))
    assert _undefined_exports(tree) == []


def test_package_imports_only_exported_names():
    package = _tree(SRC / "__init__.py")
    assert any(isinstance(node, ast.ImportFrom) for node in package.body)
    assert _unexported_imports(package, {p.stem: set(_exports(_tree(p))) for p in MODULES}) == []


def test_the_checks_see_a_deleted_definition():
    # geometry with validate_shape deleted but still exported, and a
    # package that imports it and a private name
    geometry = _tree(SRC / "geometry.py")
    geometry.body = [n for n in geometry.body if getattr(n, "name", None) != "validate_shape"]
    assert _undefined_exports(geometry) == ["validate_shape"]
    package = ast.parse("from .geometry import Polygon, validate_shape, _shoelace\n")
    assert _unexported_imports(package, {"geometry": {"Polygon", "validate_shape"}}) == [("geometry", "_shoelace")]
