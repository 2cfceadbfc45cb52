"""Every file the package writes goes through ``hdiv_basis.write_over``.

Outside that function no module of ``src/polydiv`` may call ``open`` (or
``os.open``, ``os.fdopen``, ``Path.open``) with a mode that writes,
appends or creates, nor ``write_text`` or ``write_bytes``.  A mode that is
not a string literal counts as writing.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "polydiv"
WRITER = "write_over"
MODE_CHARS = set("rwxabt+")


def _writes(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes", "fdopen"):
        return True
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
        return True  # os.open takes flags, not a mode
    # builtin open(file, mode), Path.open(mode)
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    modes += call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]
    for mode in modes:
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and set(mode.value) <= MODE_CHARS):
            return True
        if set(mode.value) & set("wxa+"):
            return True
    return False


def _write_calls(path: Path):
    """(line, function) of each writing call outside ``write_over``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, inside_writer):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == WRITER:
            inside_writer = True
        if isinstance(node, ast.Call) and not inside_writer and _writes(node):
            found.append((node.lineno, ast.unparse(node.func)))
        for child in ast.iter_child_nodes(node):
            visit(child, inside_writer)

    visit(tree, False)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_files_are_written_only_by_write_over(path):
    assert _write_calls(path) == []


def test_the_writer_exists():
    tree = ast.parse((SRC / "hdiv_basis.py").read_text())
    assert any(isinstance(n, ast.FunctionDef) and n.name == WRITER for n in tree.body)


@pytest.mark.parametrize(
    "source",
    [
        "open(p, 'w')",
        "open(p, 'ab')",
        "open(p, mode='r+')",
        "open(p, 'x')",
        "open(p, m)",
        "Path(p).open('wb')",
        "os.open(p, os.O_WRONLY)",
        "os.fdopen(fd, 'wb')",
        "Path(p).write_text(s)",
        "p.write_bytes(b)",
    ],
)
def test_the_guard_sees_each_write_form(tmp_path, source):
    module = tmp_path / "m.py"
    module.write_text(f"def f(p, m, s, b, fd):\n    {source}\n")
    assert len(_write_calls(module)) == 1


@pytest.mark.parametrize("source", ["open(p)", "open(p, 'rb')", "Path(p).open()", "p.read_text()", "fh.write(b)"])
def test_the_guard_lets_reads_pass(tmp_path, source):
    module = tmp_path / "m.py"
    module.write_text(f"def f(p, b, fh):\n    {source}\n")
    assert _write_calls(module) == []
