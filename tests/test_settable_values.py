"""The number of independently settable values in ``src/modlab`` does not grow.

Every parameter with a default, positional or keyword-only, is a value a
caller may set or leave alone, and so is every annotated field of a
``@dataclass``. Each one is a configuration that the tests and the
benchmark must cover. The count is taken over the ASTs of
``src/modlab/*.py``, so it needs no import of the package.

``SETTABLE_VALUES_BOUND`` is the count at the time this test was written.
A change that adds an option it can justify (two existing callers that
need different values) raises the bound in the same change and says so in
``CHANGES.md``; a change that removes options may lower it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "modlab"
SETTABLE_VALUES_BOUND = 80


def _is_dataclass(node):
    targets = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(getattr(t, "attr", getattr(t, "id", None)) == "dataclass" for t in targets)


def settable_values(tree):
    """Parameters with a default plus annotated dataclass fields in ``tree``."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(default is not None for default in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return count


def test_counter_sees_defaults_and_dataclass_fields():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, /, c=2, *, d, e=3): pass\n"
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    x: int\n"
        "    y: float = 0.0\n"
        "    def m(self, z=None): pass\n"
        "class Plain:\n"
        "    w: int = 0\n")
    assert settable_values(tree) == 6


def test_settable_values_do_not_grow():
    total = sum(settable_values(ast.parse(path.read_text(encoding="utf-8")))
                for path in sorted(SRC.glob("*.py")))
    assert total <= SETTABLE_VALUES_BOUND
