"""The benchmark's span tracer still fits modlab.

``perfbench/tracer.py`` raises ``TracingError`` for a traced name that is
gone, counts the rows ``cli.emit_trace`` writes from the ``trace``
argument's ``delta_axis``, and reads named arguments and results at other
boundaries to count integrand evaluations, RK4 pair steps, fit iterations
and distinct singles inputs. All of this only shows in a traced benchmark
run. These tests fail on it at once. The tracer module is loaded from its
path and left unchanged.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from modlab import cli

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

SCAN = """\
schema = 1

[scan]
delta_min = -150 GHz
delta_max = 150 GHz
delta_step = 0.009 GHz

[scenario]
preset = fig4a
"""


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # no cache file beside it
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_to_callables(tracer):
    assert tracer.TRACED
    for module, attr in tracer.TRACED:
        target = importlib.import_module(f"modlab.{module}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        assert callable(target), f"modlab.{module}.{attr} is not a callable"


def test_traced_emit_rows_equal_the_rows_a_scan_writes(tracer, tmp_path, capsys):
    assert "trace" in inspect.signature(cli.emit_trace).parameters
    cfg, out = tmp_path / "scan.cfg", tmp_path / "scan.csv"
    cfg.write_text(SCAN)
    with tracer.Tracer(0) as traced:
        assert cli.main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    rows = len(out.read_bytes().splitlines()) - 1
    assert rows > 2 * cli._EMIT_CHUNK_ROWS
    assert traced.emitted_rows == rows
    assert capsys.readouterr().out == f"wrote {rows} rows to {out}\n"


def test_traced_counters_see_validate_and_fit(tracer, capsys):
    # each counter reads an argument or a result by name: singles_rate's
    # convention, adaptive_simpson's f, propagate_envelopes' grid and steps,
    # fit_scale's iterations; a renamed one fails the call or counts nothing
    with tracer.Tracer(0) as traced:
        assert cli.main(["validate"]) == 0
        assert cli.main(["fit", "--config", str(ROOT / "configs" / "fit_demo.cfg")]) == 0
    capsys.readouterr()
    assert traced.integrand_evals > 0
    assert traced.rk4_pair_steps > 0
    assert traced.fit_iterations > 0
    assert traced.singles_inputs
