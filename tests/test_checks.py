"""The invariant suite behind ``modlab validate``: its binding, shared traces
and measurements."""

import math
from dataclasses import replace

import numpy as np
import pytest

from modlab import checks, cli, coincidence_trace, figure_preset


def test_cli_binds_the_suite():
    assert cli.run_validate is checks.run_validate


def test_run_validate_builds_six_traces(monkeypatch):
    lengths = []

    def spy(scenario, axis):
        lengths.append(len(axis))
        return coincidence_trace(scenario, axis)

    monkeypatch.setattr(checks, "coincidence_trace", spy)
    code, _ = checks.run_validate()
    assert code == 0
    # four presets on the wide axis, the offset symmetry grid, the tier axis
    assert sorted(lengths) == [301, 602, 1381, 1381, 1381, 1381]


def test_wide_axis_slice_equals_a_fresh_reference_trace():
    # sideband_positions reads the +-150 GHz slice of the shared fig3b trace
    axis = np.arange(-150.0, 150.5, 0.5)
    window = checks._PLUS_MINUS_150
    assert checks.WIDE_AXIS[window].tobytes() == axis.tobytes()
    scn = figure_preset("fig3b")
    wide = coincidence_trace(scn, checks.WIDE_AXIS)
    assert wide.paired[window].tobytes() == coincidence_trace(scn, axis).paired.tobytes()


@pytest.mark.filterwarnings("error")
def test_tier_rel_rms_does_not_overflow_with_huge_transmission():
    # every rate is linear in alpha1^2, so the relative RMS does not move
    base = figure_preset("fig4a")

    def with_alpha1_sq(value):
        return replace(base, filter1=replace(base.filter1, alpha=math.sqrt(value)))

    unit = checks.tier_rel_rms(with_alpha1_sq(1.0))
    assert 0 < unit < 0.01
    assert checks.tier_rel_rms(with_alpha1_sq(1e154)) == pytest.approx(unit, rel=1e-12)
