"""The number of code lines in ``src/modlab`` does not grow.

A code line is a source line that holds part of a token other than a
comment, a line break or an indentation change, and that lies outside
every module, class and function docstring. Blank lines, comment lines
and docstrings are free; a statement wrapped over three lines counts
three. The count is taken with ``tokenize`` and the ``ast`` of
``src/modlab/*.py``, so it needs no import of the package.

``CODE_LINES_BOUND`` is the count after the last change that moved it;
when the count passes it, the test gives the code lines of each file. A
change that deletes code lowers the bound to its new count in the same
change; a change that raises it says why in ``CHANGES.md``.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "modlab"
CODE_LINES_BOUND = 1942

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The number of code lines in the Python source ``text``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def test_counter_skips_docstrings_comments_and_blank_lines():
    text = ('"""Module\n'
            'docstring."""\n'
            "\n"
            "# a comment\n"
            "def f(a,\n"
            "      b):   # trailing comment\n"
            '    """Function docstring."""\n'
            '    s = """not a\n'
            'docstring"""\n'
            "    return a + b\n")
    assert code_lines(text) == 5


def test_code_lines_do_not_grow():
    counts = {path.name: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(SRC.glob("*.py"))}
    total = sum(counts.values())
    assert total <= CODE_LINES_BOUND, (
        f"{total} code lines, bound {CODE_LINES_BOUND}: "
        + ", ".join(f"{name} {count}" for name, count in counts.items()))
