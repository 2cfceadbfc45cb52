"""Every function, class, method and property that ``src/polydiv`` defines
is read somewhere else in the package.

A read is a name, an attribute or the string argument of ``getattr``; a
definition's reads of itself (a recursion) do not count, and neither does an
import or an ``__all__`` entry, so a form that only tests call, or that
``polydiv/__init__.py`` re-exports and nothing uses, is found.  Dunder
methods are read by Python itself and are not checked.  Names are matched,
not bindings: a method counts as read when any attribute of that name is.

The one exception is ``REFERENCE_FORMS``: the exact Raviart-Thomas and
single-edge forms that tests compare the pipeline against, each with a test
that reads it.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "polydiv"

# form -> a test (file::[class::]function) that reads it
REFERENCE_FORMS = {
    "rt_eval": "test_acceptance.py::test_criterion_7_rt_cross_validation",
    "rt_divergence": "test_acceptance.py::test_criterion_7_rt_cross_validation",
    "in_rt_space": "test_acceptance.py::test_criterion_7_rt_cross_validation",
    "edge_flux_pairing": "test_acceptance.py::test_criterion_7_rt_cross_validation",
    "piola": "test_acceptance.py::test_criterion_7_rt_cross_validation",
    "ReferenceMap": "test_acceptance.py::test_criterion_7_rt_cross_validation",
    "rt_tune": "test_rt_classical.py::TestDofs::test_tuned_duality",
    "edge_block_singular_ratios": "test_acceptance.py::test_criterion_3_failing_cases",
    "boundary_characterization_matrix": "test_acceptance.py::test_criterion_2_worked_example",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(node) -> Counter:
    """How often each name is read in the subtree of ``node``."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            found[n.attr] += 1
        elif (
            isinstance(n, ast.Call)
            and getattr(n.func, "id", None) == "getattr"
            and len(n.args) > 1
            and isinstance(n.args[1], ast.Constant)
            and isinstance(n.args[1].value, str)
        ):
            found[n.args[1].value] += 1
    return found


def _unread(trees):
    """(module, line, name) of each definition in the modules ``trees``
    (name -> parsed module) that no other code of theirs reads."""
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    return [
        (module, node.lineno, node.name)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, DEFINITIONS)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and reads[node.name] == _reads(node)[node.name]
    ]


def _package():
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def test_every_form_is_read_in_the_package():
    unread = _unread(_package())
    assert [u for u in unread if u[2] not in REFERENCE_FORMS] == []
    # an entry that the package reads, or no longer defines, is stale
    assert sorted(set(REFERENCE_FORMS) - {name for _, _, name in unread}) == []


@pytest.mark.parametrize("name", sorted(REFERENCE_FORMS))
def test_each_reference_form_is_read_by_its_test(name):
    path, *scope = REFERENCE_FORMS[name].split("::")
    node = ast.parse((ROOT / "tests" / path).read_text())
    for part in scope:
        node = next(n for n in node.body if isinstance(n, DEFINITIONS) and n.name == part)
    assert _reads(node)[name] > 0


def test_the_guard_sees_a_form_put_back():
    # CanonicalBasis with its internal_group property restored
    trees = _package()
    classes = [n for n in ast.walk(trees["hdiv_basis.py"]) if isinstance(n, ast.ClassDef)]
    basis = next(n for n in classes if n.name == "CanonicalBasis")
    basis.body += ast.parse(
        "@property\ndef internal_group(self):\n    return self.functions[self.owners == -1]\n"
    ).body
    assert "internal_group" in {name for _, _, name in _unread(trees)}


@pytest.mark.parametrize(
    "source, unread",
    [
        ("def f():\n    return 1\n", ["f"]),
        ("def f(n):\n    return f(n - 1) if n else 0\n", ["f"]),
        ("def f():\n    return 1\n\ndef g():\n    return f()\n", ["g"]),
        ("class A:\n    def m(self):\n        return 1\n\n    def __len__(self):\n        return 0\n", ["A", "m"]),
        ("class A:\n    @property\n    def p(self):\n        return 1\n\nprint(A().p)\n", []),
        ("def f():\n    return 1\n\nprint(getattr(__import__('m'), 'f'))\n", []),
        ("from .m import f\n__all__ = ['f']\n\ndef f():\n    return 1\n", ["f"]),
    ],
    ids=["unread", "recursion", "caller-unread", "method", "property", "getattr", "import-and-all"],
)
def test_the_guard_on_small_modules(source, unread):
    assert [name for _, _, name in _unread({"m.py": ast.parse(source)})] == unread
