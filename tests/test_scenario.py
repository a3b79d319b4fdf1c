"""Preset, synthetic-data and fitting tests."""

import math

import numpy as np
import pytest

from modlab import (ConfigurationError, CorrelationTrace, DomainError, FitError,
                    coincidence_trace, figure_preset, fit_scale, regime_report,
                    synthesize_counts)
from modlab import scenario
from modlab.scenario import (ExperimentScenario, REFERENCE_DISPERSION,
                             REFERENCE_GATE_NS, REFERENCE_OMEGA_M)


def test_preset_cases():
    a = figure_preset("fig3a")
    assert a.mod1.depth == 0.0 and a.mod2.depth == 0.0
    b = figure_preset("fig3b")
    assert b.mod1.depth == 1.5 and b.mod2.depth == 0.0
    c = figure_preset("fig4a")
    assert c.mod1.depth == 1.5 and c.mod2.depth == 1.5
    assert c.mod1.drive_phase == c.mod2.drive_phase == 0.0
    d = figure_preset("fig4b")
    assert d.mod1.depth == 1.5 and d.mod2.depth == 1.5
    assert d.mod2.drive_phase - d.mod1.drive_phase == pytest.approx(math.pi)
    with pytest.raises(ConfigurationError):
        figure_preset("fig5x")


def test_preset_instrument_defaults():
    scn = figure_preset("fig3a")
    assert scn.omega_m == REFERENCE_OMEGA_M == 30.0
    assert scn.filter1.fwhm == scn.filter2.fwhm == 8.5
    assert scn.gate_ns == REFERENCE_GATE_NS == 1.25
    assert scn.dispersion == REFERENCE_DISPERSION == 210.0
    assert scn.filter1.alpha ** 2 == pytest.approx(1.20e-2)
    assert scn.filter2.alpha ** 2 == pytest.approx(5.59e-4)
    # flat-band constants obey the commutator-preserving condition
    amps = scn.amplitudes
    assert abs(abs(amps.a0) ** 2 - abs(amps.b0) ** 2 - 1.0) < 1e-9


def test_preset_peak_near_reference_counts():
    # the stand-in R2 puts the unmodulated peak near 1000 counts in 20 s
    trace = coincidence_trace(figure_preset("fig3a"), np.arange(-10.0, 10.5, 0.5))
    assert 800.0 < trace.total.max() * 20.0 < 1200.0


def test_scenario_invariants():
    scn = figure_preset("fig3a")
    from modlab import sinusoidal_coeffs
    with pytest.raises(ConfigurationError):
        ExperimentScenario(
            pump_frequency=scn.pump_frequency, amplitudes=scn.amplitudes,
            mod1=sinusoidal_coeffs(0.0, 0.0, 30.0),
            mod2=sinusoidal_coeffs(0.0, 0.0, 29.0),
            filter1=scn.filter1, filter2=scn.filter2,
            gate_ns=1.25, dispersion=210.0)
    with pytest.raises(ConfigurationError):
        ExperimentScenario(
            pump_frequency=scn.pump_frequency, amplitudes=scn.amplitudes,
            mod1=scn.mod1, mod2=scn.mod2,
            filter1=scn.filter1, filter2=scn.filter2,
            gate_ns=1.25, dispersion=211.0)   # filters carry 210


@pytest.mark.parametrize("gate_ns,dispersion,fragment", [
    (math.nan, 210.0, "gate width"),
    (1.25, math.nan, "dispersion must be positive"),
])
def test_scenario_rejects_nan(gate_ns, dispersion, fragment):
    scn = figure_preset("fig3a")
    with pytest.raises(ConfigurationError, match=fragment):
        ExperimentScenario(
            pump_frequency=scn.pump_frequency, amplitudes=scn.amplitudes,
            mod1=scn.mod1, mod2=scn.mod2,
            filter1=scn.filter1, filter2=scn.filter2,
            gate_ns=gate_ns, dispersion=dispersion)


def test_regime_report_reference_values():
    report = regime_report(figure_preset("fig3a"))
    assert round(report.mod_to_filter, 2) == 3.53
    assert round(report.filter_gate, 1) == 10.6
    assert report.valid


def test_regime_invalid_when_filter_as_wide_as_drive():
    base = figure_preset("fig4a")
    from modlab import GaussianFilter
    wide = ExperimentScenario(
        pump_frequency=base.pump_frequency, amplitudes=base.amplitudes,
        mod1=base.mod1, mod2=base.mod2,
        filter1=GaussianFilter(fwhm=30.0, alpha=base.filter1.alpha,
                               slit=base.filter1.slit, dispersion=210.0),
        filter2=GaussianFilter(fwhm=30.0, alpha=base.filter2.alpha,
                               slit=base.filter2.slit, dispersion=210.0),
        gate_ns=base.gate_ns, dispersion=210.0)
    report = regime_report(wide)
    assert report.mod_to_filter == pytest.approx(1.0)
    assert not report.valid


def test_regime_long_gate_limit():
    base = figure_preset("fig3a")
    long_gate = ExperimentScenario(
        pump_frequency=base.pump_frequency, amplitudes=base.amplitudes,
        mod1=base.mod1, mod2=base.mod2, filter1=base.filter1, filter2=base.filter2,
        gate_ns=1e9, dispersion=base.dispersion)
    report = regime_report(long_gate)
    assert report.filter_gate > 1e9
    assert report.valid


def _flat_trace(rate, n=10000):
    delta = np.arange(float(n))
    arr = np.full(n, float(rate))
    return CorrelationTrace(delta_axis=delta, paired=np.zeros(n), accidental=arr,
                            total=arr, n_index=np.zeros(n, dtype=int))


def test_synthesize_zero_rate_gives_zero_counts():
    counts = synthesize_counts(_flat_trace(0.0, 100), dwell=20.0, seed=1)
    assert np.all(counts == 0)


def test_synthesize_poisson_statistics():
    # mean 400 over 1e4 samples: variance/mean within 3 percent (seeded draw)
    counts = synthesize_counts(_flat_trace(20.0), dwell=20.0, seed=123)
    ratio = counts.var() / counts.mean()
    assert 0.97 <= ratio <= 1.03


def test_synthesize_deterministic():
    trace = _flat_trace(20.0, 500)
    a = synthesize_counts(trace, dwell=20.0, seed=42)
    b = synthesize_counts(trace, dwell=20.0, seed=42)
    c = synthesize_counts(trace, dwell=20.0, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_synthesize_rejects_bad_dwell():
    for dwell in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            synthesize_counts(_flat_trace(1.0, 100), dwell=dwell, seed=1)


def test_fit_recovers_noiseless_parameters_exactly():
    scn = figure_preset("fig3b")
    delta = np.arange(-150.0, 150.5, 0.5)
    true_offset = 3.2
    dwell = 20.0
    trace = coincidence_trace(scn, delta - true_offset)
    result = fit_scale(delta, trace.total * dwell, scn, dwell=dwell)
    true_product = scn.filter1.alpha ** 2 * scn.filter2.alpha ** 2
    assert result.scale_product == pytest.approx(true_product, rel=1e-8)
    assert result.alpha1_sq == pytest.approx(scn.filter1.alpha ** 2, rel=1e-8)
    assert result.alpha2_sq == pytest.approx(scn.filter2.alpha ** 2, rel=1e-8)
    assert result.delta_offset == pytest.approx(true_offset, abs=1e-8)
    assert result.residual_rms < 1e-10


def test_fit_objective_decreases_monotonically():
    scn = figure_preset("fig3b")
    delta = np.arange(-150.0, 150.5, 0.5)
    trace = coincidence_trace(scn, delta - 2.0)
    counts = synthesize_counts(trace, dwell=20.0, seed=9)
    result = fit_scale(delta, counts, scn, dwell=20.0)
    hist = result.objective_history
    assert all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))


@pytest.mark.parametrize("seed", range(10))
def test_fit_recovers_from_poisson_noise(seed):
    scn = figure_preset("fig3b")
    delta = np.arange(-150.0, 150.5, 0.5)
    trace = coincidence_trace(scn, delta - 1.0)
    counts = synthesize_counts(trace, dwell=20.0, seed=seed)
    assert counts.max() >= 200
    result = fit_scale(delta, counts, scn, dwell=20.0)
    true_product = scn.filter1.alpha ** 2 * scn.filter2.alpha ** 2
    assert result.scale_product == pytest.approx(true_product, rel=0.05)
    assert abs(result.delta_offset - 1.0) < 1.0


def test_fit_offset_stays_within_half_spacing():
    scn = figure_preset("fig3b")
    delta = np.arange(-150.0, 150.5, 0.5)
    counts = synthesize_counts(coincidence_trace(scn, delta), dwell=20.0, seed=3)
    result = fit_scale(delta, counts, scn, dwell=20.0)
    assert abs(result.delta_offset) <= 15.0


def test_fit_input_validation():
    scn = figure_preset("fig3b")
    with pytest.raises(DomainError):
        fit_scale(np.arange(5.0), np.ones(5), scn)
    with pytest.raises(DomainError):
        fit_scale(np.arange(20.0), np.full(20, -1.0), scn)
    with pytest.raises(ConfigurationError):
        fit_scale(np.arange(20.0), np.ones(19), scn)
    for dwell in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            fit_scale(np.arange(20.0), np.ones(20), scn, dwell=dwell)


def test_fit_error_carries_best_result(monkeypatch):
    # one iteration and a gradient target no fit reaches: the fit cannot converge
    monkeypatch.setattr(scenario, "_MAX_ITERATIONS", 1)
    monkeypatch.setattr(scenario, "_GRADIENT_TOL", 1e-30)
    scn = figure_preset("fig3b")
    delta = np.arange(-150.0, 150.5, 0.5)
    counts = synthesize_counts(coincidence_trace(scn, delta), dwell=20.0, seed=5)
    with pytest.raises(FitError) as info:
        fit_scale(delta, counts, scn, dwell=20.0)
    assert info.value.best is not None
    assert info.value.best.scale_product > 0


def test_zero_gate_scenario_allowed():
    base = figure_preset("fig3a")
    scn = ExperimentScenario(
        pump_frequency=base.pump_frequency, amplitudes=base.amplitudes,
        mod1=base.mod1, mod2=base.mod2, filter1=base.filter1, filter2=base.filter2,
        gate_ns=0.0, dispersion=base.dispersion)
    trace = coincidence_trace(scn, np.arange(-5.0, 5.5, 0.5))
    assert np.all(trace.accidental == 0.0)
