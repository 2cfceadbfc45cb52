"""Every third-party module the package imports is a declared dependency,
the distribution is named after its package and installs its CLI, and
importing the package loads none of the slow optional modules."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import textwrap
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


def test_distribution_is_named_after_its_package():
    # reads the file and builds nothing
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["name"] == "polydiv"
    module, attr = project["scripts"]["polydiv"].split(":")
    from polydiv import harness

    assert getattr(importlib.import_module(module), attr) is harness.main


def _fresh_python(code: str, cwd=None) -> str:
    """The stdout of ``code`` run by a fresh interpreter that imports
    polydiv from this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        cwd=cwd,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return run.stdout


def test_import_loads_no_slow_module():
    # scipy.sparse, scipy.sparse.linalg and scipy.spatial are imported inside
    # the functions that build and factor a mesh's FE space; the others have
    # no use in the package.  Any of them would show in the time of a fresh
    # ``import polydiv``.
    slow = [
        "scipy.sparse",
        "scipy.sparse.linalg",
        "scipy.linalg",
        "scipy.signal",
        "scipy.spatial",
        "scipy.optimize",
        "sympy",
        "mpmath",
    ]
    code = f"import json, sys, polydiv; print(json.dumps([polydiv.__file__, [m for m in {slow!r} if m in sys.modules]]))"
    location, loaded = json.loads(_fresh_python(code))
    assert Path(location).resolve().parent == ROOT / "src" / "polydiv"
    assert loaded == []


def test_commands_that_build_no_mesh_load_no_scipy(tmp_path):
    # validate and every usage error answer before any mesh, so before scipy
    (tmp_path / "study.json").write_text(json.dumps({"shapes": ["fig165"], "orders": [1], "configs": ["Ib"]}))
    code = textwrap.dedent(
        """
        import json, sys
        from polydiv import harness

        codes = [harness.main(["validate", "--shape", "fig165"])]
        for argv in (
            ["element", "--shape", "fig165", "--config", "IIb", "--bproj", "9"],
            ["condstudy", "--config-file", "study.json", "--orders", "2", "--out", "out"],
        ):
            try:
                harness.main(argv)
            except SystemExit as exc:
                codes.append(exc.code)
        print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("scipy"))]))
        """
    )
    codes, loaded = json.loads(_fresh_python(code, cwd=tmp_path).splitlines()[-1])
    assert codes == [0, 2, 2]
    assert loaded == []


def test_import_loads_no_other_third_party_package():
    # a fresh ``import polydiv`` loads numpy and orjson and nothing else from
    # outside the standard library; what the interpreter loaded before the
    # import (site hooks) and private names such as _sysconfigdata_* are not
    # counted
    code = textwrap.dedent(
        """
        import json, sys
        before = set(sys.modules)
        import polydiv
        tops = {name.split(".")[0] for name in set(sys.modules) - before}
        print(json.dumps(sorted(t for t in tops if t not in sys.stdlib_module_names and not t.startswith("_"))))
        """
    )
    loaded = set(json.loads(_fresh_python(code)))
    assert "polydiv" in loaded
    assert loaded <= {"numpy", "orjson", "polydiv"}
