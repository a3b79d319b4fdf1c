"""The number of independently settable values in ``src/modlab`` does not grow.

Every parameter with a default, positional or keyword-only, is a value a
caller may set or leave alone, and so is every annotated field of a
``@dataclass``. Each one is a configuration that the tests and the
benchmark must cover. The count is taken over the ASTs of
``src/modlab/*.py``, so it needs no import of the package.

``SETTABLE_VALUES_BOUND`` is the count after the last change that moved
it; when the count passes it, the test lists every settable value as
``file:line name``. A change that adds an option it can justify (two existing callers that
need different values) raises the bound in the same change and says so in
``CHANGES.md``; a change that removes options may lower it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "modlab"
SETTABLE_VALUES_BOUND = 65


def _is_dataclass(node):
    targets = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(getattr(t, "attr", getattr(t, "id", None)) == "dataclass" for t in targets)


def settable_values(tree):
    """(line, name) of each parameter with a default and each annotated
    dataclass field in ``tree``; a name is ``function.parameter`` or
    ``Class.field``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            owner = getattr(node, "name", "lambda")
            args = node.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):] + [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
            found += [(arg.lineno, f"{owner}.{arg.arg}") for arg in with_default]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [(stmt.lineno, f"{node.name}.{stmt.target.id}") for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign)]
    return found


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
    assert sorted(settable_values(tree)) == [(2, "f.b"), (2, "f.c"), (2, "f.e"), (5, "C.x"),
                                             (6, "C.y"), (7, "m.z")]


def test_settable_values_do_not_grow():
    found = [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py"))
             for line, name in sorted(settable_values(ast.parse(path.read_text("utf-8"))))]
    assert len(found) <= SETTABLE_VALUES_BOUND, (
        f"{len(found)} settable values, bound {SETTABLE_VALUES_BOUND}:\n" + "\n".join(found))
