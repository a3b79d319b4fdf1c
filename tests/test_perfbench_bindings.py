"""Every function the benchmark's span tracer wraps still exists in modlab.

``perfbench/tracer.py`` raises ``TracingError`` for a traced name that is
gone, but only in a traced benchmark run; this test fails on it at once.
The tracer module is loaded from its path and left unchanged.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_names_resolve_to_callables(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # no cache file beside it
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module, attr in tracer.TRACED:
        target = importlib.import_module(f"modlab.{module}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        assert callable(target), f"modlab.{module}.{attr} is not a callable"
