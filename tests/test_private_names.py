"""Every module-level private name in the package is read in its module.

A private name (one leading underscore) is not part of the API, so one
that its own module never reads is dead code.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "polydiv"


def _defined_and_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                defined.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return {name for name in defined if name.startswith("_") and not name.startswith("__")}, read


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_private_names_are_read(path):
    private, read = _defined_and_read(path)
    assert sorted(private - read) == []
