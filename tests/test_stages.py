"""The stage timer: which stages a command books, and what they read."""

import ast
import time
from pathlib import Path

import pytest

from modlab import stages
from modlab.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SCAN = """\
schema = 1

[scan]
delta_min = -20 GHz
delta_max = 20 GHz
delta_step = 0.5 GHz

[scenario]
preset = fig4a
"""


def _run(tmp_path, command):
    out = tmp_path / "out.txt"
    if command == "scan":
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(SCAN)
        argv = ["scan", "--config", str(cfg), "--out", str(out)]
    elif command == "figure":
        argv = ["figure", "--config", str(CONFIGS / "fig4b.cfg"), "--out", str(out)]
    elif command == "fit":
        argv = ["fit", "--config", str(CONFIGS / "fit_demo.cfg"), "--out", str(out)]
    else:
        argv = ["validate"]
    assert main(argv) == 0
    return stages.seconds()


@pytest.mark.parametrize("command, expected", [
    ("scan", {"parse", "model", "singles", "trace", "emit"}),
    ("figure", {"parse", "model", "singles", "trace", "emit"}),
    ("fit", {"parse", "model", "singles", "trace", "fit"}),
    ("validate", {"parse", "model", "singles", "trace", "full_tier"}),
])
def test_main_records_its_stages(tmp_path, capsys, command, expected):
    # a stage of the previous command must not carry over
    _run(tmp_path, "fit" if command != "fit" else "scan")
    started = time.perf_counter()
    seconds = _run(tmp_path, command)
    wall = time.perf_counter() - started
    assert set(seconds) == expected
    assert set(seconds) <= set(stages.STAGES)
    assert all(value >= 0.0 for value in seconds.values())
    # self times never add up to more than the call took
    assert sum(seconds.values()) <= wall


def test_nested_stages_book_self_time(monkeypatch):
    ticks = iter([0, 10, 40, 100, 200, 230])
    monkeypatch.setattr(stages.time, "perf_counter_ns", lambda: next(ticks))
    stages.reset()
    with stages.stage("emit"):
        with stages.stage("trace"):
            pass
    with stages.stage("emit"):
        pass
    assert stages.seconds() == pytest.approx({"trace": 30e-9, "emit": 100e-9}, rel=1e-12)


def test_stage_module_imports_only_time():
    tree = ast.parse(Path(stages.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert imported == {"time"}
