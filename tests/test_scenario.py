"""Preset, synthetic-data and fitting tests."""

import math
from dataclasses import replace

import numpy as np
import pytest

from modlab import (ConfigurationError, CorrelationTrace, CrystalProfile, DomainError,
                    FrequencyGrid, ModulatorSpectrum, SpectralAmplitudes,
                    coincidence_trace, figure_preset, fit_scale, propagate_envelopes,
                    reference_scenario, regime_report, synthesize_counts)
from modlab import scenario
from modlab.scenario import (ExperimentScenario, REFERENCE_DISPERSION,
                             REFERENCE_GATE_NS, REFERENCE_OMEGA_M,
                             REFERENCE_PUMP_FREQUENCY)


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


def test_scenario_arrays_are_read_only_copies():
    pump = REFERENCE_PUMP_FREQUENCY
    grid = FrequencyGrid(center=0.5 * pump, span=1100.0, points=2201, pump_frequency=pump)
    detuning = grid.omegas - grid.center
    kappa = 0.06 * np.exp(-detuning ** 2 / (2.0 * 800.0 ** 2)) + 0j
    delta_k = 1.5e-6 * detuning ** 2
    profile = CrystalProfile(kappa=kappa, delta_k=delta_k, length=20.0)
    propagated = propagate_envelopes(profile, grid, steps=256)
    # the caller's own arrays, all writable
    a, b = np.array(propagated.a), np.array(propagated.b)
    coeffs = np.array(figure_preset("fig3b").mod1.coeffs)
    scn = replace(figure_preset("fig4a"),
                  amplitudes=SpectralAmplitudes(propagated.a0, propagated.b0, grid, a, b),
                  mod1=ModulatorSpectrum(REFERENCE_OMEGA_M, coeffs))
    for held in (scn.amplitudes.a, scn.amplitudes.b, scn.mod1.coeffs,
                 profile.kappa, profile.delta_k):
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 0.0
    delta = np.arange(-150.0, 151.0, 1.0)
    before = coincidence_trace(scn, delta).total

    for mine in (a, b, coeffs, kappa, delta_k):
        mine *= 2.0
    # replace() gives a new model, built from the scenario's own arrays
    assert coincidence_trace(replace(scn), delta).total.tobytes() == before.tobytes()
    assert propagate_envelopes(profile, grid, steps=256) == propagated
    # built from the changed arrays, the trace does move
    changed = replace(scn, amplitudes=SpectralAmplitudes(propagated.a0, propagated.b0,
                                                         grid, a, b),
                      mod1=ModulatorSpectrum(REFERENCE_OMEGA_M, coeffs))
    assert not np.array_equal(coincidence_trace(changed, delta).total, before)


def test_scenarios_hash_by_value():
    # ndarray fields made the generated hash raise TypeError
    scn = reference_scenario(1.5, 1.5)
    assert hash(scn) == hash(scn) == hash(reference_scenario(1.5, 1.5))
    assert len({scn, reference_scenario(1.5, 1.5), reference_scenario(1.5, -1.5)}) == 2
    # the fig4a preset is the reference scenario at these depths
    assert figure_preset("fig4a") in {scn}
    assert {scn: "kept"}[reference_scenario(1.5, 1.5)] == "kept"


def test_hash_agrees_with_eq_across_signed_zeros():
    q = ModulatorSpectrum(REFERENCE_OMEGA_M, [0.0, 1.0, complex(0.0, -0.0)], depth=0.0)
    r = ModulatorSpectrum(REFERENCE_OMEGA_M, [-0.0, 1.0, complex(-0.0, 0.0)], depth=-0.0)
    assert q.coeffs.tobytes() != r.coeffs.tobytes()
    assert q == r and hash(q) == hash(r)

    pump = REFERENCE_PUMP_FREQUENCY
    grid = FrequencyGrid(center=0.5 * pump, span=10.0, points=3, pump_frequency=pump)
    ones = np.ones(3, dtype=complex)
    a = SpectralAmplitudes(1.0, 0.0, grid, ones, [0.0, -0.0, complex(-0.0, -0.0)])
    b = SpectralAmplitudes(complex(1.0, -0.0), -0.0, grid, ones, np.zeros(3))
    assert a == b and hash(a) == hash(b)
    assert a != replace(b, b=[0.0, 0.0, 1e-300]) and hash(a) != hash(replace(b, b=[0, 0, 1]))

    preset = figure_preset("fig4a")
    scenarios = {replace(preset, amplitudes=amps, mod1=mod)
                 for amps, mod in ((a, q), (b, r), (a, r))}
    assert len(scenarios) == 1


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
                            n_index=np.zeros(n, dtype=int))


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


# 14.8 GHz is nearest the last coarse offset, 0.99 * 15 = 14.85 GHz, whose
# bracket one coarse step either side is clipped at the +15 GHz bound
@pytest.mark.parametrize("true_offset", [0.0, 0.37, 1.234, -2.5, 3.2, 14.8])
def test_fit_recovers_noiseless_parameters_exactly(true_offset):
    scn = figure_preset("fig3b")
    delta = np.arange(-150.0, 150.5, 0.5)
    dwell = 20.0
    trace = coincidence_trace(scn, delta - true_offset)
    result = fit_scale(delta, trace.total * dwell, scn, dwell=dwell)
    true_product = scn.filter1.alpha ** 2 * scn.filter2.alpha ** 2
    assert result.scale_product == pytest.approx(true_product, rel=1e-12)
    assert result.alpha1_sq == pytest.approx(scn.filter1.alpha ** 2, rel=1e-12)
    assert result.alpha2_sq == pytest.approx(scn.filter2.alpha ** 2, rel=1e-12)
    assert result.delta_offset == pytest.approx(true_offset, abs=1e-10)
    assert result.residual_rms < 1e-10
    assert result.iterations == scenario._GOLDEN_STEPS == 49


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
        fit_scale(np.arange(5.0), np.ones(5), scn, dwell=20.0)
    with pytest.raises(DomainError):
        fit_scale(np.arange(20.0), np.full(20, -1.0), scn, dwell=20.0)
    with pytest.raises(ConfigurationError):
        fit_scale(np.arange(20.0), np.ones(19), scn, dwell=20.0)
    for dwell in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            fit_scale(np.arange(20.0), np.ones(20), scn, dwell=dwell)


def test_zero_gate_scenario_allowed():
    base = figure_preset("fig3a")
    scn = ExperimentScenario(
        pump_frequency=base.pump_frequency, amplitudes=base.amplitudes,
        mod1=base.mod1, mod2=base.mod2, filter1=base.filter1, filter2=base.filter2,
        gate_ns=0.0, dispersion=base.dispersion)
    trace = coincidence_trace(scn, np.arange(-5.0, 5.5, 0.5))
    assert np.all(trace.accidental == 0.0)
