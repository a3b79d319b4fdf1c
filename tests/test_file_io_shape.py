"""Input files are read in one place.

``cli._read_text`` reads every file a command takes in (the config, the
fit data and the phase waveforms) and turns bytes that are not UTF-8 into
a configuration error. These tests walk the syntax trees of
``src/modlab`` and fail if any module but ``cli`` calls ``open``, or if an
``open`` outside ``_read_text`` may read: its mode is not a constant
without 'r' or '+', or, for ``os.open``, its flags are not ``os.O_*``
names joined by ``|`` among which is ``O_WRONLY`` and neither ``O_RDONLY``
nor ``O_RDWR``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "modlab"


def _os_flags(node):
    """The names of the ``os.O_*`` flags that ``node`` joins by ``|``, or
    None when it is any other expression."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left, right = _os_flags(node.left), _os_flags(node.right)
        return None if left is None or right is None else left | right
    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "os":
        return {node.attr}
    return None


def _mode(call):
    """The mode of an ``open`` call: its constant, "r" when it is left out,
    or None when it is not a constant. An ``os.open`` has the mode "w" when
    its flags only write, and None otherwise."""
    if getattr(call.func, "attr", None) == "open" and getattr(call.func.value, "id", None) == "os":
        flags = _os_flags(call.args[1]) if len(call.args) > 1 else None
        writes = flags is not None and "O_WRONLY" in flags
        return "w" if writes and not flags & {"O_RDONLY", "O_RDWR"} else None
    node = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    return node.value if isinstance(node, ast.Constant) else None


def _open_calls_in(tree, name):
    """(name, line, innermost enclosing function or None, mode) of every call
    in ``tree`` of ``open`` or of an ``open`` attribute (``os.open``,
    ``Path.open``)."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and "open" in (getattr(node.func, "id", None),
                                                     getattr(node.func, "attr", None)):
            found.append((name, node.lineno, function, _mode(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _open_calls():
    return [call for path in sorted(SRC.glob("*.py"))
            for call in _open_calls_in(ast.parse(path.read_text(encoding="utf-8")), path.name)]


def _reads(mode):
    return not isinstance(mode, str) or "r" in mode or "+" in mode


def test_only_cli_opens_files():
    found = _open_calls()
    assert [f"{file}:{line}" for file, line, _, _ in found if file != "cli.py"] == []
    assert found


def test_only_read_text_opens_a_file_for_reading():
    found = _open_calls()
    readers = [(file, function) for file, _, function, mode in found if _reads(mode)]
    assert readers == [("cli.py", "_read_text")]
    # the output files are opened for writing elsewhere in cli
    assert {mode for _, _, function, mode in found if function != "_read_text"} >= {"wb"}


def test_walker_sees_modes_and_enclosing_functions():
    tree = ast.parse("open('a')\n"
                     "def f(p):\n"
                     "    open(p)\n"
                     "    def g():\n"
                     "        return os.open(p, os.O_RDONLY)\n"
                     "    open(p, mode='w')\n")
    assert _open_calls_in(tree, "x.py") == [("x.py", 1, None, "r"), ("x.py", 3, "f", "r"),
                                            ("x.py", 5, "g", None), ("x.py", 6, "f", "w")]
    assert [_reads(mode) for mode in ("r", "rb", "w+", None, "wb", "a")] == [
        True, True, True, True, False, False]


def test_walker_reads_the_flags_of_os_open():
    tree = ast.parse("os.open(p, os.O_WRONLY | os.O_CREAT, 0o666)\n"
                     "os.open(p, os.O_RDWR)\n"
                     "os.open(p, os.O_WRONLY | os.O_RDWR)\n"
                     "os.open(p, flags)\n"
                     "os.open(p, os.O_WRONLY | 64)\n")
    modes = [mode for _, _, _, mode in _open_calls_in(tree, "x.py")]
    assert modes == ["w", None, None, None, None]
    assert [_reads(mode) for mode in modes] == [False, True, True, True, True]
