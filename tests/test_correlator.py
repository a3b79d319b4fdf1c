"""Singles, lineshape and coincidence-trace tests.

Independent oracles used here: closed-form Gaussian integrals cross-checked
by trapezoid quadrature, a numeric convolution of sampled intensity
profiles for the sideband lineshape (FWHM located by bisection), the
sampled singles rate in closed form (Gaussian moments of the piecewise
quadratic |B|^2), the full model as the high-fidelity cross-check of the
closed-form trace, and
the former delay-domain transform (kept below) as the reference for the
full model's Parseval sum.
"""

import bisect
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from modlab import (ConfigurationError, DomainError, GaussianFilter,
                    ResolutionError, SidebandModel, SpectralAmplitudes, UniformAxis,
                    bessel_j_series, coincidence_full, coincidence_trace, h2_profile,
                    sideband_areas, singles_rate, sinusoidal_coeffs)
from modlab import CrystalProfile, FrequencyGrid, correlator, figure_preset, propagate_envelopes
from modlab.cli import _EMIT_CHUNK_ROWS, parse_config
from modlab.correlator import _GL3_NODES, _GL3_WEIGHTS, _omega_offsets, intensity_filter
from modlab.modulation import ModulatorSpectrum
from modlab.scenario import ExperimentScenario, reference_scenario


H2_FWHM_REFERENCE = 12.020815280171307   # sqrt(2) * 8.5, frozen from the numeric oracle
GAUSS_INT = math.sqrt(math.pi / (4.0 * math.log(2.0)))   # int exp(-4ln2 w^2/G^2) = G * this


def unit_filter(fwhm=8.5, alpha=1.0, slit=100.0):
    return GaussianFilter(fwhm=fwhm, alpha=alpha, slit=slit, dispersion=210.0)


def test_filter_validation():
    for fwhm, alpha, dispersion in [(0.0, 1.0, 210.0), (8.5, -0.1, 210.0),
                                    (math.nan, 1.0, 210.0), (8.5, math.nan, 210.0),
                                    (8.5, 1.0, math.nan),
                                    # (4 FWHM)^2 overflows above about 3.352e153
                                    (3.36e153, 1.0, 210.0), (1e200, 1.0, 210.0),
                                    (math.inf, 1.0, 210.0)]:
        with pytest.raises(ConfigurationError):
            GaussianFilter(fwhm=fwhm, alpha=alpha, slit=0.0, dispersion=dispersion)
    # just below that limit the filter is accepted
    GaussianFilter(fwhm=3.35e153, alpha=1.0, slit=0.0, dispersion=210.0)
    with pytest.raises(ConfigurationError):
        intensity_filter(unit_filter(), "strange")


def test_field_response_matches_reference_formula():
    # intensity convention == alpha * exp(-2 ln2 w^2 / fwhm^2) taken verbatim
    filt = unit_filter(alpha=0.7)
    w = np.linspace(-20.0, 20.0, 41)
    expected = 0.7 * np.exp(-2.0 * math.log(2.0) * w ** 2 / 8.5 ** 2)
    assert np.allclose(filt.field_response(w), expected, rtol=0, atol=1e-15)
    # intensity profile has FWHM equal to the quoted value
    assert filt.intensity_response(8.5 / 2.0) == pytest.approx(0.5 * 0.49, rel=1e-12)


def test_field_convention_narrows_intensity():
    assert intensity_filter(unit_filter(), "intensity") == unit_filter()
    filt = intensity_filter(unit_filter(), "field")
    assert filt.fwhm == pytest.approx(8.5 / math.sqrt(2.0))
    # under the field convention H itself has the quoted FWHM
    assert filt.field_response(8.5 / 2.0) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("convention", ["intensity", "field"])
def test_intensity_integral_against_quadrature(convention):
    filt = intensity_filter(unit_filter(alpha=0.8), convention)
    w = np.linspace(-90.0, 90.0, 600001)
    oracle = float(np.trapezoid(filt.intensity_response(w), w))
    assert filt.intensity_integral() == pytest.approx(oracle, rel=1e-12)


def _h2_numeric_fwhm(f1, f2):
    """Numeric-convolution oracle; half-max crossings located by bisection."""
    step = 0.005
    w = np.arange(-80.0, 80.0 + step / 2, step)
    conv = np.convolve(f1.intensity_response(w), f2.intensity_response(w), mode="same") * step
    half = conv.max() / 2.0
    centered = w - w[np.argmax(conv)]

    def crossing(lo, hi):
        f = lambda x: np.interp(x, centered, conv) - half
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    return crossing(0.0, 40.0) - crossing(-40.0, 0.0), conv, centered


def test_h2_fwhm_against_numeric_convolution():
    f1, f2 = unit_filter(), unit_filter()
    h2 = h2_profile(f1, f2)
    fwhm_oracle, _, _ = _h2_numeric_fwhm(f1, f2)
    assert h2.fwhm == pytest.approx(fwhm_oracle, rel=1e-6)
    assert h2.fwhm == pytest.approx(H2_FWHM_REFERENCE, rel=1e-12)


def test_h2_field_convention_fwhm():
    field = intensity_filter(unit_filter(), "field")
    h2 = h2_profile(field, field)
    assert h2.fwhm == pytest.approx(8.5, rel=1e-12)


def test_h2_peak_equals_zero_shift_overlap():
    f1 = unit_filter(alpha=0.9)
    f2 = unit_filter(fwhm=6.0, alpha=0.4)
    h2 = h2_profile(f1, f2)
    w = np.linspace(-60.0, 60.0, 200001)
    overlap = float(np.trapezoid(f1.intensity_response(w) * f2.intensity_response(w), w))
    assert h2.peak == pytest.approx(overlap, rel=1e-10)


def test_h2_delta_limit():
    # one near-delta filter: the convolution approaches the other intensity profile
    wide = unit_filter()
    narrow = unit_filter(fwhm=0.02)
    h2 = h2_profile(wide, narrow)
    w = np.array([0.0, 3.0, 6.0, 12.0])
    scale = h2.peak / wide.intensity_response(0.0)
    assert np.allclose(h2(w), scale * wide.intensity_response(w), rtol=1e-5)


def test_singles_flat_closed_form():
    amps = SpectralAmplitudes.flat(math.sqrt(2.0), 1.0)
    rate = singles_rate(amps, sinusoidal_coeffs(0.0, 0.0, 30.0), unit_filter())
    expected = 1.0 / (4.0 * math.pi) * 8.5 * GAUSS_INT
    assert rate == pytest.approx(expected, rel=1e-10)


def test_singles_zero_gain_is_dark():
    amps = SpectralAmplitudes.flat(1.0, 0.0)
    rate = singles_rate(amps, sinusoidal_coeffs(1.5, 0.0, 30.0), unit_filter())
    assert rate == 0.0


def test_singles_modulation_invariant_for_flat_band():
    amps = SpectralAmplitudes.flat(math.sqrt(2.0), 1.0)
    plain = singles_rate(amps, sinusoidal_coeffs(0.0, 0.0, 30.0), unit_filter())
    modulated = singles_rate(amps, sinusoidal_coeffs(1.5, 0.0, 30.0), unit_filter())
    assert modulated == pytest.approx(plain, rel=1e-12)


def _sampled_amplitudes(span=1100.0, points=2201):
    pump = 2.0 * 281759.8
    grid = FrequencyGrid(center=0.5 * pump, span=span, points=points, pump_frequency=pump)
    detuning = grid.omegas - grid.center
    kappa = 0.06 * np.exp(-detuning ** 2 / (2.0 * 800.0 ** 2))
    delta_k = 1.5e-6 * detuning ** 2
    profile = CrystalProfile(kappa=kappa, delta_k=delta_k, length=20.0)
    return propagate_envelopes(profile, grid, steps=256), pump


def test_singles_sampled_against_trapezoid_oracle():
    amps, pump = _sampled_amplitudes()
    slit = (0.5 * pump) / 210.0
    filt = unit_filter(slit=slit)
    mod = sinusoidal_coeffs(1.5, 0.0, 30.0)
    rate = singles_rate(amps, mod, filt)

    w = np.linspace(filt.center - 34.0, filt.center + 34.0, 120001)
    oracle = 0.0
    for k in mod.k_values:
        p = abs(mod.coefficient(int(k))) ** 2
        b = amps.b_at(w - k * 30.0)
        oracle += p * float(np.trapezoid(np.abs(b) ** 2 * filt.intensity_response(w - filt.center), w))
    oracle /= 4.0 * math.pi
    assert rate == pytest.approx(oracle, rel=1e-8)


def test_singles_passband_outside_grid():
    amps, pump = _sampled_amplitudes(span=100.0, points=201)
    slit = (0.5 * pump) / 210.0
    filt = unit_filter(slit=slit)
    with pytest.raises(DomainError):
        singles_rate(amps, sinusoidal_coeffs(1.5, 0.0, 30.0), filt)


def _gaussian_moments(a, b, sigma):
    """Integrals of y^m exp(-y^2 / (2 sigma^2)) over [a, b] for m = 0, 1, 2.

    The zeroth moment takes erfc of the tail side when [a, b] lies on one
    side of zero, so that a piece far out in the tail loses no digits.
    """
    s = sigma * math.sqrt(2.0)
    if a >= 0.0:
        m0 = math.erfc(a / s) - math.erfc(b / s)
    elif b <= 0.0:
        m0 = math.erfc(-b / s) - math.erfc(-a / s)
    else:
        m0 = math.erf(b / s) - math.erf(a / s)
    m0 *= sigma * math.sqrt(0.5 * math.pi)
    ea, eb = math.exp(-(a / s) ** 2), math.exp(-(b / s) ** 2)
    m1 = sigma * sigma * (ea - eb)
    m2 = sigma * sigma * (m0 + a * ea - b * eb)
    return m0, m1, m2


def _singles_exact_reference(amps, mod, filt):
    """``singles_rate`` on sampled amplitudes in closed form.

    ``filt.fwhm`` is an intensity FWHM. Between grid nodes B is linear, so
    on each piece of a shifted passband |B|^2 is a quadratic in the offset
    y from the filter center, and its integral against the Gaussian |H|^2
    is a sum of three Gaussian moments in erf and exp. The pieces are those
    of ``singles_rate``: each passband split at the grid nodes inside it.
    """
    nodes = amps.grid.omegas.tolist()
    b = amps.b.tolist()
    center = filt.center
    width = float(filt.passband_halfwidth())
    sigma = float(filt.intensity_sigma())
    total = 0.0
    for k in mod.k_values:
        p = abs(mod.coefficient(int(k))) ** 2
        if p < 1e-30:
            continue
        shift = float(k * mod.omega_m)
        lo, hi = center - width - shift, center + width - shift
        breaks = [lo, *nodes[bisect.bisect_right(nodes, lo):bisect.bisect_left(nodes, hi)], hi]
        rate = 0.0
        for left, right in zip(breaks[:-1], breaks[1:]):
            j = min(bisect.bisect_right(nodes, left) - 1, len(nodes) - 2)
            slope = (b[j + 1] - b[j]) / (nodes[j + 1] - nodes[j])
            # |B|^2 = |b_j|^2 + 2 Re(conj(b_j) slope) x + |slope|^2 x^2, x = y - y_j
            y_j = nodes[j] + shift - center
            m0, m1, m2 = _gaussian_moments(left + shift - center, right + shift - center, sigma)
            rate += (abs(b[j]) ** 2 * m0
                     + 2.0 * (b[j].conjugate() * slope).real * (m1 - y_j * m0)
                     + abs(slope) ** 2 * (m2 - 2.0 * y_j * m1 + y_j * y_j * m0))
        total += p * rate
    return filt.alpha ** 2 * total / (4.0 * math.pi)


@pytest.mark.parametrize("fwhm,depth,omega_m,convention,slit_shift", [
    (8.5, 1.5, 30.0, "intensity", 0.0),     # shifted windows start on grid nodes
    (8.5, 2.5, 17.3, "intensity", 0.0),     # ... and between them
    (30.0, 1.5, 30.0, "intensity", 0.0),
    (8.5, 1.5, 30.0, "field", 0.0),
    (8.5, 1.5, 30.0, "intensity", 0.37),    # slit center off the grid, in grid steps
], ids=["aligned", "misaligned", "wide-filter", "field", "slit-off-grid"])
def test_singles_sampled_matches_scalar_simpson(fwhm, depth, omega_m, convention,
                                                slit_shift):
    # the oracle is exact; 1e-10 allows for float64 round-off in both
    amps, pump = _sampled_amplitudes()
    center = 0.5 * pump + slit_shift * amps.grid.step
    filt = GaussianFilter(fwhm=fwhm, alpha=0.9, slit=center / 210.0, dispersion=210.0)
    mod = sinusoidal_coeffs(depth, 0.0, omega_m)
    rate = singles_rate(amps, mod, filt, convention)
    reference = _singles_exact_reference(amps, mod, intensity_filter(filt, convention))
    assert rate == pytest.approx(reference, rel=1e-10)


def _singles_per_sideband(amps, mod, filt, convention="intensity"):
    """The sampled branch of ``singles_rate`` as a loop over sidebands: one
    coverage check, passband split, ``b_at`` call and Gauss-Legendre sum
    per k."""
    filt = intensity_filter(filt, convention)
    center = filt.center
    width = filt.passband_halfwidth()
    nodes = amps.grid.omegas
    total = 0.0
    for k, p in zip(mod.k_values, np.abs(mod.coeffs) ** 2):
        if p < 1e-30:
            continue
        shift = k * mod.omega_m
        lo, hi = center - width - shift, center + width - shift
        if not amps.covers(lo, hi):
            raise DomainError(
                f"filter passband shifted by sideband k={k} lies outside the amplitude grid")
        breaks = np.concatenate(([lo], nodes[(nodes > lo) & (nodes < hi)], [hi]))
        half = 0.5 * np.diff(breaks)
        x = (breaks[:-1] + half)[:, None] + half[:, None] * _GL3_NODES
        f = (np.abs(amps.b_at(x)) ** 2
             * filt.intensity_response(x + shift - center))
        total += p * float(half @ (f @ _GL3_WEIGHTS))
    return total / (4.0 * np.pi)


def _tiny_weight_drive():
    # |q_k|^2 of 1e-40, 1e-32 and 1e-34 are skipped, 1e-28 is kept
    coeffs = np.array([1e-20, 0.3, 1e-16, 0.9, 1e-17j, 0.3, 1e-14])
    return ModulatorSpectrum(30.0, coeffs / np.linalg.norm(coeffs))


@pytest.mark.parametrize("case", ["sampled-tier-1", "sampled-tier-2", "tiny-weights",
                                  "all-negligible", "misaligned-field"])
def test_singles_sampled_bits_equal_the_per_sideband_loop(case):
    scn = _sampled_tier_scenario()
    amps = scn.amplitudes
    mod, filt, convention = scn.mod1, scn.filter1, "intensity"
    if case == "sampled-tier-2":
        mod, filt = scn.mod2, scn.filter2
    elif case == "tiny-weights":
        mod = _tiny_weight_drive()
        assert (np.abs(mod.coeffs) ** 2 < 1e-30).sum() == 3
    elif case == "all-negligible":
        mod = ModulatorSpectrum(30.0, np.zeros(3))
    elif case == "misaligned-field":
        center = filt.center + 0.37 * amps.grid.step
        mod = sinusoidal_coeffs(2.5, 0.4, 17.3)
        filt = GaussianFilter(fwhm=8.5, alpha=0.9, slit=center / 210.0, dispersion=210.0)
        convention = "field"
    rate = singles_rate(amps, mod, filt, convention)
    assert rate == _singles_per_sideband(amps, mod, filt, convention)


def test_singles_uncovered_sideband_names_the_first_kept_k():
    amps, pump = _sampled_amplitudes(span=100.0, points=201)
    filt = unit_filter(slit=(0.5 * pump) / 210.0)
    # the grid covers the k = 0 passband only; k = -2 is negligible and
    # skipped, so of the uncovered k = -1 and k = 1 the error names k = -1
    mod = ModulatorSpectrum(30.0, np.array([1e-20, 0.6, 0.6, 0.4, 0.0]) / np.sqrt(0.88))
    message = "filter passband shifted by sideband k=-1 lies outside the amplitude grid"
    for rate in (singles_rate, _singles_per_sideband):
        with pytest.raises(DomainError) as err:
            rate(amps, mod, filt)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# closed-form trace
# ---------------------------------------------------------------------------

def test_unmodulated_trace_is_single_h2_peak():
    scn = figure_preset("fig3a")
    delta = np.arange(-14.0, 14.5, 0.5)
    trace = coincidence_trace(scn, delta)
    h2 = h2_profile(scn.filter1, scn.filter2)
    c0 = abs(scn.amplitudes.a0 * scn.amplitudes.b0) ** 2 / (8.0 * math.pi)
    assert np.allclose(trace.paired, c0 * h2(-delta), rtol=1e-12)
    assert int(np.argmax(trace.paired)) == int(np.argmin(np.abs(delta)))
    assert np.all(trace.paired >= 0)
    assert np.array_equal(trace.total, trace.paired + trace.accidental)


def test_single_modulator_sideband_heights():
    scn = figure_preset("fig3b")
    delta = np.arange(-150.0, 150.5, 0.5)
    trace = coincidence_trace(scn, delta)
    peak0 = trace.paired[np.flatnonzero(delta == 0.0)[0]]
    for n in (1, 2, 3):
        peak_n = trace.paired[np.flatnonzero(delta == 30.0 * n)[0]]
        expected = (bessel_j_series(n, 1.5) / bessel_j_series(0, 1.5)) ** 2
        assert peak_n / peak0 == pytest.approx(expected, rel=1e-10)


def test_sideband_window_selection_rounds_half_up():
    scn = figure_preset("fig3b")
    trace = coincidence_trace(scn, np.array([-15.0, -14.9, 14.9, 15.0, 45.0]))
    assert list(trace.n_index) == [0, 0, 0, 1, 2]


# any warning fails the test: clipping is reported by the model and by
# n_index, not by a warning
@pytest.mark.filterwarnings("error")
def test_trace_beyond_support_zeroes_without_warning():
    scn = figure_preset("fig3a")   # identity modulators: support is n = 0 only
    delta = np.array([0.0, 40.0])
    assert scn.model.clips(delta)
    for build in (coincidence_trace, coincidence_full):
        trace = build(scn, delta)
        assert trace.n_index.tolist() == [0, 1]
        assert trace.paired[0] > 0.0
        assert trace.paired[1] == 0.0
        assert trace.total[1] == trace.accidental[1]


def test_same_phase_pair_equals_depth_three():
    delta = np.arange(-150.0, 150.5, 0.5)
    double = coincidence_trace(figure_preset("fig4a"), delta)
    single3 = coincidence_trace(reference_scenario(3.0, 0.0), delta)
    assert np.allclose(double.total, single3.total, rtol=1e-9)


def test_opposite_phase_pair_matches_unmodulated():
    delta = np.arange(-150.0, 150.5, 0.5)
    off = coincidence_trace(figure_preset("fig3a"), delta)
    cancel = coincidence_trace(figure_preset("fig4b"), delta)
    assert np.max(np.abs(cancel.total - off.total) / np.abs(off.total)) < 1e-12


def test_trace_symmetry_for_real_modulators():
    scn = figure_preset("fig3b")
    delta = np.arange(-150.25, 150.5, 0.5)   # avoids exact window boundaries
    trace = coincidence_trace(scn, delta)
    assert np.max(np.abs(trace.paired - trace.paired[::-1])) <= 1e-9 * trace.paired.max()


def test_zero_gate_kills_accidentals():
    scn = reference_scenario(1.5, 0.0)
    zero_gate = ExperimentScenario(
        pump_frequency=scn.pump_frequency, amplitudes=scn.amplitudes,
        mod1=scn.mod1, mod2=scn.mod2, filter1=scn.filter1, filter2=scn.filter2,
        gate_ns=0.0, dispersion=scn.dispersion)
    trace = coincidence_trace(zero_gate, np.arange(-10.0, 10.5, 0.5))
    assert np.all(trace.accidental == 0.0)


def test_accidental_floor_bounds_total():
    scn = figure_preset("fig3b")
    delta = np.arange(-345.0, 345.5, 0.5)
    trace = coincidence_trace(scn, delta)
    assert np.all(trace.total >= trace.accidental[0])
    far = np.abs(delta) > 250.0
    assert trace.paired[far].max() <= 1e-6 * trace.paired.max()


# ---------------------------------------------------------------------------
# sideband areas
# ---------------------------------------------------------------------------

def test_areas_unmodulated_all_in_center():
    trace = coincidence_trace(figure_preset("fig3a"), np.arange(-14.5, 15.0, 0.5))
    areas = sideband_areas(trace)
    assert set(areas) == {0}
    assert areas[0] > 0


def test_area_ratios_match_bessel_oracle():
    trace = coincidence_trace(figure_preset("fig3b"), np.arange(-150.0, 150.5, 0.5))
    areas = sideband_areas(trace)
    for n in (1, 2, 3):
        expected = (bessel_j_series(n, 1.5) / bessel_j_series(0, 1.5)) ** 2
        assert areas[n] / areas[0] == pytest.approx(expected, rel=1e-4)


def test_total_area_conserved_across_cases():
    delta = np.arange(-345.0, 345.5, 0.5)
    totals = []
    for case in ("fig3a", "fig3b", "fig4a", "fig4b"):
        trace = coincidence_trace(figure_preset(case), delta)
        totals.append(sum(sideband_areas(trace).values()))
    assert (max(totals) - min(totals)) / max(totals) < 1e-9


def test_areas_require_dense_sampling():
    trace = coincidence_trace(figure_preset("fig3b"), np.arange(-150.0, 151.0, 2.0))
    with pytest.raises(ResolutionError):
        sideband_areas(trace)


def test_areas_require_uniform_axis():
    scn = figure_preset("fig3b")
    delta = np.concatenate([np.arange(-50.0, 0.0, 0.5), np.arange(0.0, 50.0, 0.25)])
    trace = coincidence_trace(scn, delta)
    with pytest.raises(ResolutionError):
        sideband_areas(trace)


# ---------------------------------------------------------------------------
# full model vs closed form
# ---------------------------------------------------------------------------

def test_tier_agreement_flat_band():
    scn = figure_preset("fig4a")
    delta = np.arange(-150.0, 150.5, 0.5)
    trace = coincidence_trace(scn, delta)
    full = coincidence_full(scn, delta)
    rel_rms = (np.sqrt(np.mean((full.total - trace.total) ** 2))
               / np.sqrt(np.mean(trace.total ** 2)))
    assert rel_rms <= 0.01


def _sampled_tier_scenario(span=1100.0, points=2201):
    amps, pump = _sampled_amplitudes(span, points)
    base = reference_scenario(1.5, 1.5)
    return ExperimentScenario(
        pump_frequency=pump, amplitudes=amps,
        mod1=base.mod1, mod2=base.mod2,
        filter1=GaussianFilter(fwhm=8.5, alpha=base.filter1.alpha,
                               slit=(0.5 * pump) / 210.0, dispersion=210.0),
        filter2=GaussianFilter(fwhm=8.5, alpha=base.filter2.alpha,
                               slit=(0.5 * pump) / 210.0, dispersion=210.0),
        gate_ns=1.25, dispersion=210.0)


def test_tier_agreement_sampled_amplitudes():
    scn = _sampled_tier_scenario()
    delta = np.arange(-150.0, 151.0, 1.0)
    trace = coincidence_trace(scn, delta)
    full = coincidence_full(scn, delta)
    rel_rms = (np.sqrt(np.mean((full.total - trace.total) ** 2))
               / np.sqrt(np.mean(trace.total ** 2)))
    # the gain now varies across sidebands: the tiers differ, but stay close
    assert 0.0 < rel_rms <= 0.01


def test_full_tier_needs_amplitudes_for_every_sideband():
    # 920 GHz covers every sideband's singles passband, so the closed form
    # runs; the full tier's offset grid, shifted by up to 14 drive periods,
    # does not fit
    scn = _sampled_tier_scenario(span=920.0, points=1841)
    delta = np.arange(-150.0, 151.0, 1.0)
    coincidence_trace(scn, delta)
    with pytest.raises(DomainError) as err:
        coincidence_full(scn, delta)
    assert str(err.value) == "sidebands k=-14..14 need amplitudes outside the sampled grid"


def _delay_domain_paired(scenario, delta_axis, points=4096):
    """Paired rate by the delay transform that Parseval's sum replaced.

    Builds g(u) on the full tier's offset grid for every sample, with the
    products A B of each sideband k looked up once, transforms all rows to
    F(tau) = du/(4 pi) sum_u g(u) exp(i u tau) on a uniform grid over
    +-24 inverse intensity FWHMs in one matrix product, checks that |F|^2
    has decayed at the grid edges of every row, and integrates |F|^2 by
    the trapezoid rule.
    """
    f1, f2 = scenario.filter1, scenario.filter2
    half = 24.0 / min(f1.fwhm, f2.fwhm)
    tau = np.linspace(-half, half, points)
    u = _omega_offsets(scenario)
    du = u[1] - u[0]
    amps, omega_m = scenario.amplitudes, scenario.omega_m
    c1, pump = f1.center, scenario.pump_frequency
    ks = [int(k) for k in scenario.mod1.k_values]
    ab = {k: amps.a_at(c1 + u - k * omega_m) * amps.b_at(pump - c1 - u + k * omega_m)
          for k in ks}
    g = np.zeros((len(delta_axis), len(u)), dtype=complex)
    for row, d in enumerate(delta_axis):
        n = int(math.floor(d / omega_m + 0.5))
        for k in ks:
            g[row] += scenario.mod1.coefficient(k) * scenario.mod2.coefficient(n - k) * ab[k]
        g[row] *= f1.field_response(u) * f2.field_response(n * omega_m - d - u)
    mags = np.abs((du / (4.0 * np.pi)) * (g @ np.exp(1j * np.outer(u, tau)))) ** 2
    assert np.all(np.maximum(mags[:, 0], mags[:, -1]) <= 1e-6 * mags.max(axis=1))
    return np.trapezoid(mags, tau, axis=1)


@pytest.mark.parametrize("case", ["fig4a", "sampled"])
def test_full_tier_parseval_matches_delay_transform(case):
    scn = figure_preset("fig4a") if case == "fig4a" else _sampled_tier_scenario()
    delta = np.arange(-150.0, 151.0, 1.0)
    reference = _delay_domain_paired(scn, delta)
    full = coincidence_full(scn, delta)
    assert np.max(np.abs(full.paired - reference)) <= 1e-11 * reference.max()


def _coincidence_full_reference(scenario, delta):
    """Paired column of ``coincidence_full`` as loops: the weights
    q_k r_{n-k} by a double loop over (n, k), one amplitude lookup per k, one
    vector-matrix product per window n and one row of g per sample."""
    omega_m = scenario.omega_m
    amps = scenario.amplitudes
    pump = scenario.pump_frequency
    c1 = scenario.filter1.center
    model = SidebandModel(scenario)
    n_idx, clipped, _, _ = model.window(delta)
    u = _omega_offsets(scenario)
    du = u[1] - u[0]
    distinct_n = sorted(set(int(v) for v in n_idx[~clipped]))
    q, r = scenario.mod1, scenario.mod2
    table = np.zeros((len(distinct_n), len(q.k_values)), dtype=complex)
    ab_k = np.zeros((len(q.k_values), len(u)), dtype=complex)
    for col, k in enumerate(q.k_values):
        for row, n in enumerate(distinct_n):
            table[row, col] = q.coefficient(int(k)) * r.coefficient(int(n - k))
        ab_k[col] = (amps.a_at(c1 + u - k * omega_m)
                     * amps.b_at(pump - c1 - u + k * omega_m))
    summed = {n: table[row] @ ab_k for row, n in enumerate(distinct_n)}
    h1 = scenario.filter1.field_response(u)
    g_rows = np.zeros((len(delta), len(u)), dtype=complex)
    for i in range(len(delta)):
        if clipped[i]:
            continue
        n = int(n_idx[i])
        xi = n * omega_m - delta[i]
        g_rows[i] = summed[n] * h1 * scenario.filter2.field_response(xi - u)
    return (du / (8.0 * np.pi)) * np.sum(np.abs(g_rows) ** 2, axis=1)


def _out_of_regime_scenario():
    path = Path(__file__).resolve().parent.parent / "configs" / "out_of_regime.cfg"
    return parse_config(path.read_text(), "validate")[1]


# fig3a's single window leaves most of the axis clipped; the flat-band cases
# reach the same k-sum as the sampled crystal
@pytest.mark.parametrize("case", ["fig3a", "fig3b", "fig4a", "fig4b", "out_of_regime",
                                  "sampled"])
def test_full_tier_matches_the_row_loop(case):
    if case == "out_of_regime":
        scn = _out_of_regime_scenario()
    elif case == "sampled":
        scn = _sampled_tier_scenario()
    else:
        scn = figure_preset(case)
    delta = np.arange(-150.0, 151.0, 1.0)
    reference = _coincidence_full_reference(scn, delta)
    full = coincidence_full(scn, delta)
    # one matrix product reassociates the k-sums of the per-window products
    assert np.max(np.abs(full.paired - reference)) <= 1e-14 * reference.max()


@pytest.mark.parametrize("case", ["sampled", "fig4a"])
def test_trace_and_full_tier_share_one_model(monkeypatch, case):
    scn = _sampled_tier_scenario() if case == "sampled" else figure_preset("fig4a")
    copy = replace(scn)
    delta = np.arange(-150.0, 151.0, 1.0)
    calls = []
    original = correlator.singles_rate

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(correlator, "singles_rate", spy)
    coincidence_trace(scn, delta)
    coincidence_full(scn, delta)
    # R1 and R2, once each
    assert len(calls) == 2
    # a copy is a scenario of its own, with its own model
    coincidence_trace(copy, delta)
    coincidence_full(copy, delta)
    assert len(calls) == 4


# rows of the delta axis, and a bound in bytes on the traced peak of one
# full-tier call: at 301 rows, one (rows x u) complex array, which the full
# tier once held for the whole axis (301 x 414 x 16 B)
@pytest.mark.parametrize("rows, bound", [(301, 301 * 414 * 16), (1201, 4e6)])
def test_full_tier_peak_memory_is_one_window_at_a_time(rows, bound):
    scn = _sampled_tier_scenario()
    delta = np.linspace(-150.0, 150.0, rows)
    assert len(_omega_offsets(scn)) == 414
    tracemalloc.start()
    try:
        coincidence_full(scn, delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


# (start, step, length): every length leaves a partial last emit chunk
@pytest.mark.parametrize("start, step, length", [
    (-150.0, 0.0003, 3 * _EMIT_CHUNK_ROWS + 5),
    (-1.0 / 3.0, 0.1, 2 * _EMIT_CHUNK_ROWS + 1),
    (-491.55, 0.03, _EMIT_CHUNK_ROWS - 7),
])
def test_uniform_axis_equals_the_materialised_axis_bit_for_bit(start, step, length):
    axis = UniformAxis(start, step, length)
    whole = start + step * np.arange(length)
    assert len(axis) == length
    assert np.asarray(axis).tobytes() == whole.tobytes()
    for lo in range(0, length, _EMIT_CHUNK_ROWS):
        hi = lo + _EMIT_CHUNK_ROWS
        assert axis[lo:hi].tobytes() == whole[lo:hi].tobytes()
    assert len(axis[length - length % _EMIT_CHUNK_ROWS:]) == length % _EMIT_CHUNK_ROWS
    for i in (0, 1, _EMIT_CHUNK_ROWS - 1, _EMIT_CHUNK_ROWS, length - 1, -1, -2, -length):
        if i < length:
            assert np.float64(axis[i]).tobytes() == whole[i].tobytes()
    for i in (length, -length - 1):
        with pytest.raises(IndexError):
            axis[i]


def test_clips_reads_a_uniform_axis_without_building_it():
    model = SidebandModel(figure_preset("fig4a"))
    rows = 10 ** 7   # 80 MB as an array
    tracemalloc.start()
    try:
        inside = model.clips(UniformAxis(-150.0, 3e-5, rows))
        beyond = model.clips(UniformAxis(-1500.0, 3e-4, rows))
        # both ends lie past 2^63 windows of 30 GHz
        with pytest.raises(DomainError, match="beyond the range of sideband indices"):
            model.clips(UniformAxis(-1e21, 2e14, rows))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (inside, beyond) == (False, True)
    # the same answers as the arrays, on axes short enough to build
    for start, step in ((-150.0, 3e-2), (-1500.0, 3e-1)):
        axis = UniformAxis(start, step, rows // 1000)
        assert model.clips(axis) == model.clips(np.asarray(axis))


def test_sideband_index_beyond_int64_raises():
    model = SidebandModel(figure_preset("fig4a"))
    # |delta|/w_m = 3.3e19 is past 2^63 = 9.2e18, where the cast would wrap
    for delta in ([-1e21, 0.0], [0.0, 1e21], [0.0, np.nan], [np.inf]):
        with pytest.raises(DomainError, match="beyond the range of sideband indices"):
            model.window(np.array(delta))
        with pytest.raises(DomainError):
            model.clips(np.array(delta))
    # inside the int64 range the far rows keep their sign and are clipped
    n, clipped, c, _ = model.window(np.array([-2.7e20, 0.0, 2.7e20]))
    assert n[0] < 0 < n[2] and n[1] == 0
    assert clipped.tolist() == [True, False, True] and c[0] == c[2] == 0.0


def test_sideband_model_slope_matches_central_difference():
    model = SidebandModel(figure_preset("fig4a"))
    # samples inside windows n = -4..4, clear of the window edges at +-15 GHz
    delta = (30.0 * np.arange(-4, 5)[:, None] + np.linspace(-13.0, 13.0, 27)).ravel()
    h = 1e-4
    numeric = (model.evaluate(delta + h).paired - model.evaluate(delta - h).paired) / (2.0 * h)
    slope = model.slope(delta)
    assert np.max(np.abs(slope - numeric)) <= 1e-7 * np.max(np.abs(slope))
