"""Invariant suite shared by ``modlab validate`` and the acceptance tests.

Each measurement function returns the quantity one check bounds: an
error, a residual, a spread or an offset. ``run_validate`` bounds them at
the suite's tolerances and reports one ``(name, status, detail)`` line per
check; ``tests/test_acceptance.py`` bounds several of the same
measurements at its own frozen tolerances.
"""

import math

import numpy as np

from . import modulation
from .correlator import (GaussianFilter, coincidence_full, coincidence_trace, h2_profile,
                         sideband_areas, singles_rate)
from .modulation import (bessel_j_series, coeffs_from_waveform, compose_nonlocal,
                         sinusoidal_coeffs)
from .scenario import (FIGURE_CASES, REFERENCE_OMEGA_M, ExperimentScenario, figure_preset,
                       regime_report)
from .spdc_core import (CrystalProfile, FrequencyGrid, SpectralAmplitudes,
                        analytic_amplitudes, propagate_envelopes)

# covers the full sideband support of every preset
WIDE_AXIS = np.arange(-345.0, 345.5, 0.5)
# WIDE_AXIS[390:991] is the +-150 GHz axis in 0.5 GHz steps, bit for bit
_PLUS_MINUS_150 = slice(390, 991)
TIER_AXIS = np.arange(-150.0, 151.0, 1.0)
# RK4 steps of the reference propagation and of the analytic-oracle check
RK4_STEPS = 256


def bessel_recurrence_error():
    """Largest |J_n(x)| difference between the recurrence and the series, n <= 20."""
    xs = np.array([0.5, 1.5, 3.0, 5.0])
    # through the module, so that a patched recurrence is the one checked
    seqs = np.array([modulation.bessel_j_sequence(20, x) for x in xs])
    return float(np.max(np.abs(seqs - bessel_j_series(np.arange(21), xs[:, None]))))


def parseval_error():
    """Largest |sum_k |q_k|^2 - 1| over four sinusoidal drive depths."""
    worst = 0.0
    for depth in (0.5, 1.0, 1.5, 2.5):
        mod = sinusoidal_coeffs(depth, 0.3, REFERENCE_OMEGA_M)
        worst = max(worst, abs(mod.total_power() - 1.0))
    return worst


def addition_theorem_error():
    """Largest ||s_n| - |J_n(|d1 + d2 exp(i phi)|)|| over 16 depth pairs and
    the 12 relative phases phi = j pi/6.

    d1 sin t + d2 sin(t + phi) is one sinusoid of depth |d1 + d2 exp(i phi)|,
    so the composed pair acts as that single modulator at every relative
    phase (Jacobi-Anger; G. N. Watson, Bessel Functions, section 2.22);
    phi = 0 doubles equal depths and phi = pi cancels them.
    """
    depths = np.array([0.5, 1.0, 1.5, 2.5])
    phases = np.arange(12) * math.pi / 6.0
    drives = [sinusoidal_coeffs(d2, phi, REFERENCE_OMEGA_M) for d2 in depths for phi in phases]
    firsts = [sinusoidal_coeffs(d1, 0.0, REFERENCE_OMEGA_M) for d1 in depths]
    composed = [compose_nonlocal(q, r) for q in firsts for r in drives]
    totals = np.abs(depths[:, None, None] + depths[:, None] * np.exp(1j * phases)).ravel()
    sizes = [len(s.coeffs) for s in composed]
    expected = bessel_j_series(np.concatenate([s.k_values for s in composed]),
                               np.repeat(totals, sizes))
    mags = np.abs(np.concatenate([s.coeffs for s in composed]))
    return float(np.max(np.abs(mags - np.abs(expected))))


def waveform_dft_error():
    """Largest coefficient difference between a sampled 1.5 rad cosine drive
    and the Bessel path."""
    theta = 2.0 * math.pi * np.arange(512) / 512
    wav = coeffs_from_waveform(1.5 * np.cos(theta), REFERENCE_OMEGA_M)
    ana = sinusoidal_coeffs(1.5, 0.0, REFERENCE_OMEGA_M)
    span = max(wav.k_max, ana.k_max)
    wav_k, ana_k = (np.pad(mod.coeffs, span - mod.k_max) for mod in (wav, ana))
    return float(np.max(np.abs(wav_k - ana_k)))


def reference_propagation():
    """RK4 amplitudes of a Gaussian-gain, quadratic-mismatch crystal on 401 points."""
    pump = 2.0 * 281759.0
    grid = FrequencyGrid(center=0.5 * pump, span=400.0, points=401, pump_frequency=pump)
    detuning = grid.omegas - 0.5 * pump
    kappa = 0.05 * np.exp(-detuning ** 2 / (2.0 * 150.0 ** 2))
    delta_k = 2e-5 * detuning ** 2
    profile = CrystalProfile(kappa=kappa, delta_k=delta_k, length=20.0)
    return propagate_envelopes(profile, grid, steps=RK4_STEPS)


def rk4_error(steps, delta_k=0.2):
    """Largest |A0|, |B0| error of RK4 with ``steps`` steps against the
    hyperbolic oracle of a constant-coefficient crystal."""
    grid = FrequencyGrid(center=500.0, span=10.0, points=3, pump_frequency=1000.0)
    profile = CrystalProfile.constant(grid, 0.05, delta_k, 20.0)
    amps = propagate_envelopes(profile, grid, steps=steps)
    a_ref, b_ref = analytic_amplitudes(0.05, delta_k, 20.0)
    return max(abs(amps.a0 - a_ref), abs(amps.b0 - b_ref))


def singles_error():
    """Relative error of an undriven flat-band singles rate against its closed form."""
    filt = GaussianFilter(fwhm=8.5, alpha=1.0, slit=100.0, dispersion=210.0)
    amps = SpectralAmplitudes.flat(math.sqrt(2.0), 1.0)
    mod = sinusoidal_coeffs(0.0, 0.0, REFERENCE_OMEGA_M)
    rate = singles_rate(amps, mod, filt)
    expected = 1.0 / (4.0 * math.pi) * 8.5 * math.sqrt(math.pi / (4.0 * math.log(2.0)))
    return abs(rate - expected) / expected


def h2_errors():
    """(FWHM error in GHz, relative peak error) of the lineshape of two equal
    8.5 GHz filters, against sqrt(2) * 8.5 GHz and the numeric overlap integral.

    The overlap is du times the sum over 1201 uniform points on +-60 GHz.
    For a Gaussian that decays far inside the interval this sum converges
    geometrically in 1/du (L. N. Trefethen and J. A. C. Weideman, SIAM Rev.
    56, 385 (2014)), so at du = 0.1 GHz its error is round-off.
    """
    f1 = GaussianFilter(fwhm=8.5, alpha=1.0, slit=100.0, dispersion=210.0)
    f2 = GaussianFilter(fwhm=8.5, alpha=1.0, slit=100.0, dispersion=210.0)
    h2 = h2_profile(f1, f2)
    fwhm_err = abs(h2.fwhm - 8.5 * math.sqrt(2.0))
    w, du = np.linspace(-60.0, 60.0, 1201, retstep=True)
    overlap = du * float(np.sum(f1.intensity_response(w) * f2.intensity_response(w)))
    return fwhm_err, abs(h2.peak - overlap) / overlap


def preset_traces():
    """Closed-form traces of the four presets on ``WIDE_AXIS``, keyed by case."""
    return {case: coincidence_trace(figure_preset(case), WIDE_AXIS) for case in FIGURE_CASES}


def sideband_offset(delta, paired):
    """Largest distance in GHz of a paired-rate maximum from a multiple of the
    30 GHz reference drive frequency."""
    p = paired
    inner = p[1:-1]
    peak = (inner > p[:-2]) & (inner >= p[2:]) & (inner > 1e-6 * p.max())
    maxima = delta[1:-1][peak]
    return float(np.max(np.abs(maxima - REFERENCE_OMEGA_M * np.round(maxima / REFERENCE_OMEGA_M))))


def area_spread(traces):
    """Relative spread of the total paired area over ``traces``."""
    totals = [sum(sideband_areas(trace).values()) for trace in traces]
    return (max(totals) - min(totals)) / max(totals)


def trace_asymmetry():
    """Largest |paired(delta) - paired(-delta)| of fig3b over its peak."""
    delta = np.arange(-150.25, 150.5, 0.5)   # avoids exact window boundaries
    paired = coincidence_trace(figure_preset("fig3b"), delta).paired
    return np.max(np.abs(paired - paired[::-1])) / paired.max()


def accidental_floor(trace):
    """(total never below the floor, largest paired rate beyond 250 GHz over the peak)."""
    holds = bool(np.all(trace.total >= trace.accidental[0]))
    far = np.abs(trace.delta_axis) > 250.0   # beyond the populated sideband comb
    return holds, float(np.max(trace.paired[far])) / trace.paired.max()


def tier_rel_rms(scenario, axis=TIER_AXIS):
    """Relative RMS of the full tier's total rate against the closed form's.

    Both totals are scaled by the power of two that brings the closed
    form's maximum into [0.5, 1) before they are squared, so the squares
    cannot overflow. ``np.ldexp`` scales without forming the factor, which
    for a subnormal maximum (2^1040 and beyond) is not a float. Scaling by a
    power of two is exact, and so is its effect on every square, sum, root
    and the final ratio; the result is
    bit for bit the unscaled one wherever that one is finite. A closed form
    that is zero on every row gives 0 when the full tier is zero there as
    well (exact agreement, as in a scenario without pairs), and inf when it
    is not.
    """
    closed = coincidence_trace(scenario, axis).total
    full = coincidence_full(scenario, axis).total
    exponent = -math.frexp(float(np.max(closed)))[1]
    closed = np.ldexp(closed, exponent)
    error = np.sqrt(np.mean((np.ldexp(full, exponent) - closed) ** 2))
    norm = np.sqrt(np.mean(closed ** 2))
    if norm == 0:
        return 0.0 if error == 0 else math.inf
    return error / norm


def _check(name, condition, detail):
    return (name, "PASS" if condition else "FAIL", detail)


def _bounded(name, value, tol, label):
    return _check(name, value <= tol, f"{label}={value:.3e}")


def _tier_agreement(scenario):
    report = regime_report(scenario)
    if not report.valid:
        return ("tier_agreement", "SKIP",
                f"out-of-regime (ratios={report.mod_to_filter:.2f},{report.filter_gate:.2f})")
    return _bounded("tier_agreement", tier_rel_rms(scenario), 0.01, "rel_rms")


def run_validate(scenario: ExperimentScenario | None):
    """Execute the invariant suite of every module; returns (exit_code, results).

    The tier-agreement comparison runs on ``scenario`` (the fig4a preset
    when it is None) and is skipped, not failed, when that scenario is
    outside the closed-form model's validity regime.
    """
    if scenario is None:
        scenario = figure_preset("fig4a")
    amps = reference_propagation()
    e16, e32, e64 = rk4_error(16), rk4_error(32), rk4_error(64)
    r1 = e16 / max(e32, 1e-300)
    r2 = e32 / max(e64, 1e-300)
    fwhm_err, peak_err = h2_errors()
    wide = preset_traces()
    offset = sideband_offset(WIDE_AXIS[_PLUS_MINUS_150], wide["fig3b"].paired[_PLUS_MINUS_150])
    floor_holds, tail = accidental_floor(wide["fig3b"])
    results = [
        _bounded("bessel_recurrence_vs_series", bessel_recurrence_error(), 1e-12,
                 "max_abs_err"),
        _bounded("modulator_parseval", parseval_error(), 1e-10, "max_abs_err"),
        _bounded("bessel_addition_theorem", addition_theorem_error(), 1e-9, "max_abs_err"),
        _bounded("waveform_dft_agreement", waveform_dft_error(), 1e-10, "max_abs_err"),
        _bounded("unitarity_propagation", amps.unitarity_residual(), 1e-9, "max_residual"),
        _bounded("conjugate_symmetry", amps.symmetry_residual(), 1e-9, "max_residual"),
        _check("rk4_convergence", r1 >= 12.0 and r2 >= 12.0, f"ratios={r1:.1f},{r2:.1f}"),
        _bounded("analytic_oracle_agreement",
                 max(rk4_error(RK4_STEPS, 0.0), rk4_error(RK4_STEPS, 0.2)), 1e-10, "max_abs_err"),
        _bounded("singles_closed_form", singles_error(), 1e-10, "rel_err"),
        _check("h2_lineshape", fwhm_err <= 1e-9 and peak_err <= 1e-10,
               f"fwhm_err={fwhm_err:.3e} peak_rel_err={peak_err:.3e}"),
        _check("sideband_positions", offset <= 0.5, f"max_offset={offset:.3g} GHz"),
        _bounded("area_conservation", area_spread(wide.values()), 1e-9, "rel_spread"),
        _bounded("trace_symmetry", trace_asymmetry(), 1e-9, "rel_err"),
        _check("accidental_floor", floor_holds and tail <= 1e-6, f"tail_fraction={tail:.3e}"),
        _tier_agreement(scenario),
    ]
    code = 0 if all(status != "FAIL" for _, status, _ in results) else 1
    return code, results
