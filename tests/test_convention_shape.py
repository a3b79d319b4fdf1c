"""The FWHM convention is read in one place.

``correlator.intensity_filter`` turns a quoted filter width into an
intensity FWHM where a filter is built, and ``singles_rate`` hands its
``convention`` parameter to it on entry. These tests walk the syntax trees
of ``src/modlab`` and fail if any other function takes a ``convention``
parameter or ``ExperimentScenario`` carries a ``fwhm_convention`` field.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "modlab"
CONVENTION_READERS = {"intensity_filter", "singles_rate"}


def _functions_taking_convention():
    """{"file:line name"} of every function or lambda with a ``convention`` parameter."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
                if "convention" in names:
                    found.add((path.name, node.lineno, getattr(node, "name", "<lambda>")))
    return found


def test_only_intensity_filter_and_singles_rate_take_a_convention():
    found = _functions_taking_convention()
    assert sorted(f"{file}:{line} {name}" for file, line, name in found
                  if name not in CONVENTION_READERS) == []
    assert {name for _, _, name in found} == CONVENTION_READERS


def test_scenario_has_no_convention_field():
    tree = ast.parse((SRC / "scenario.py").read_text())
    scenario = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef) and node.name == "ExperimentScenario")
    fields = [node.target.id for node in scenario.body if isinstance(node, ast.AnnAssign)]
    assert "dispersion" in fields
    assert "fwhm_convention" not in fields
