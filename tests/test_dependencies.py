"""Every third-party module the package imports is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports():
    """Top-level names of the modules imported anywhere in src/polydiv/*.py,
    less the standard library and the package itself."""
    names = set()
    for path in sorted((ROOT / "src" / "polydiv").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"polydiv"}


def test_every_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower().replace("-", "_") for r in requirements}
    imported = _third_party_imports()
    assert "numpy" in imported  # the scan sees the package's imports
    assert sorted(imported - declared) == []
