"""Acceptance suite: one test per release criterion, each at its frozen
tolerance, printing a PASS/FAIL line (run with ``pytest -s`` to see them).

Criterion summary:
  1  single modulator at 1.5 rad: sideband areas proportional to J_n^2(1.5)
     to 1e-4 relative, n = 0..3; 601-point scan under 5 s
  2  same-phase pair at 1.5 rad: areas proportional to J_n^2(3.0) to 1e-4,
     n = 0..4, and the trace equals a lone depth-3.0 modulator
  3  opposite-phase pair: trace matches the unmodulated one pointwise to
     1e-12 relative
  4  total paired area identical across the four cases to 1e-9 relative
  5  full-model vs closed-form RMS at most 1 percent over +-150 GHz at the
     reference parameters; regime ratios (3.53, 10.6) within rounding
  6  propagation unitarity at most 1e-9 everywhere; constant-coefficient
     case within 1e-10 of the hyperbolic oracle; observed RK4 order >= 3.8
  7  waveform ingestion reproduces the sinusoidal coefficients to 1e-10;
     composed weights of two arbitrary drives match an independent DFT of
     the summed phase to 1e-9 per term
  8  Poisson fit recovery: at least 90 percent of 50 seeded trials within
     5 percent on the scale product, peak mean >= 200 counts, under 60 s
  9  sideband lineshape FWHM 12.0208 GHz within 0.1 percent (intensity
     convention, numeric-convolution oracle); adjacent-sideband overlap
     below 1e-6 of peak

Criteria 4, 5, 6 and the cosine half of 7 take their measured values from
``modlab.checks``, the functions behind ``modlab validate``, and bound them
here at their own frozen tolerances. Three oracles stay in this file because
they are independent of the package: the summed-phase DFT of criterion 7,
the seeded fit recovery of criterion 8 and the numeric convolution with
bisection of criterion 9.
"""

import math
import time
import warnings

import numpy as np

from modlab import (bessel_j_series, checks, coeffs_from_waveform, coincidence_trace,
                    compose_nonlocal, figure_preset, fit_scale, h2_profile,
                    regime_report, sideband_areas, synthesize_counts)
from modlab.scenario import reference_scenario

# series-oracle anchors quoted in the criteria
J_SQ_15 = (0.26197, 0.31129, 0.05386, 0.003717)
J_SQ_30 = (0.06763, 0.11496, 0.23628, 0.09552, 0.017433)
H2_FWHM = 12.0208

REFERENCE_AXIS = np.arange(-150.0, 150.5, 0.5)


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_single_modulator_bessel_areas():
    start = time.monotonic()
    trace = coincidence_trace(figure_preset("fig3b"), REFERENCE_AXIS)
    elapsed = time.monotonic() - start
    areas = sideband_areas(trace)
    oracle = [bessel_j_series(n, 1.5) ** 2 for n in range(4)]
    worst = 0.0
    for n in range(4):
        # the quoted five-digit anchors are the oracle rounded for print
        assert abs(oracle[n] - J_SQ_15[n]) <= 1e-3 * J_SQ_15[n]
        ratio = (areas[n] / areas[0]) / (oracle[n] / oracle[0])
        worst = max(worst, abs(ratio - 1.0))
    ok = worst <= 1e-4 and elapsed < 5.0
    _report(1, ok, f"fig3b areas vs J_n^2(1.5): max rel err {worst:.2e}, "
                   f"601-point scan in {elapsed:.3f} s")


def test_criterion_2_same_phase_acts_at_double_depth():
    trace = coincidence_trace(figure_preset("fig4a"), REFERENCE_AXIS)
    areas = sideband_areas(trace)
    oracle = [bessel_j_series(n, 3.0) ** 2 for n in range(5)]
    worst = 0.0
    for n in range(5):
        assert abs(oracle[n] - J_SQ_30[n]) <= 1e-3 * J_SQ_30[n]
        ratio = (areas[n] / areas[0]) / (oracle[n] / oracle[0])
        worst = max(worst, abs(ratio - 1.0))
    single = coincidence_trace(reference_scenario(3.0, 0.0), REFERENCE_AXIS)
    trace_dev = float(np.max(np.abs(trace.total - single.total) / single.total))
    ok = worst <= 1e-4 and trace_dev <= 1e-9
    _report(2, ok, f"fig4a areas vs J_n^2(3.0): max rel err {worst:.2e}; "
                   f"vs lone depth-3.0 modulator: max rel dev {trace_dev:.2e}")


def test_criterion_3_opposite_phase_cancellation():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        off = coincidence_trace(figure_preset("fig3a"), REFERENCE_AXIS)
    cancel = coincidence_trace(figure_preset("fig4b"), REFERENCE_AXIS)
    worst = float(np.max(np.abs(cancel.total - off.total) / off.total))
    _report(3, worst <= 1e-12, f"fig4b vs unmodulated, pointwise rel dev {worst:.2e}")


def test_criterion_4_total_area_conservation():
    # on checks.WIDE_AXIS, which covers the full sideband support
    spread = checks.area_spread(checks.preset_traces().values())
    _report(4, spread <= 1e-9, f"paired area spread across four cases {spread:.2e}")


def test_criterion_5_tier_agreement_and_regime():
    scn = figure_preset("fig4a")
    rel_rms = checks.tier_rel_rms(scn, axis=REFERENCE_AXIS)
    report = regime_report(scn)
    regime_ok = (round(report.mod_to_filter, 2) == 3.53
                 and round(report.filter_gate, 1) == 10.6 and report.valid)
    ok = rel_rms <= 0.01 and regime_ok
    _report(5, ok, f"full vs closed-form rel RMS {rel_rms:.2e}; regime ratios "
                   f"({report.mod_to_filter:.2f}, {report.filter_gate:.1f})")


def test_criterion_6_propagation_unitarity_and_order():
    unit_res = checks.reference_propagation().unitarity_residual()
    anchor_err = checks.rk4_error(256, delta_k=0.0)
    e16, e32, e64 = checks.rk4_error(16), checks.rk4_error(32), checks.rk4_error(64)
    order = min(math.log2(e16 / e32), math.log2(e32 / e64))
    ok = unit_res <= 1e-9 and anchor_err <= 1e-10 and order >= 3.8
    _report(6, ok, f"unitarity residual {unit_res:.2e}; hyperbolic-oracle error "
                   f"{anchor_err:.2e}; observed order {order:.2f}")


def _dft_power_oracle(phases, n):
    """|(1/N) sum_j exp(i phi_j) exp(2 pi i j n / N)|^2 by direct summation."""
    count = len(phases)
    acc = 0.0 + 0.0j
    for j in range(count):
        acc += np.exp(1j * (phases[j] + 2.0 * math.pi * j * n / count))
    return abs(acc / count) ** 2


def test_criterion_7_general_waveform_pathway():
    sin_dev = checks.waveform_dft_error()

    # two arbitrary unimodular periodic drives
    theta = 2.0 * math.pi * np.arange(256) / 256
    phi1 = 1.2 * np.cos(theta) + 0.7 * np.cos(2.0 * theta) + 0.3 * np.sin(3.0 * theta)
    phi2 = 0.9 * np.cos(theta + 0.4) + 0.5 * np.sin(2.0 * theta)
    s = compose_nonlocal(coeffs_from_waveform(phi1, 30.0),
                         coeffs_from_waveform(phi2, 30.0))
    comb_dev = max(abs(abs(s.coefficient(n)) ** 2 - _dft_power_oracle(phi1 + phi2, n))
                   for n in range(-12, 13))
    ok = sin_dev <= 1e-10 and comb_dev <= 1e-9
    _report(7, ok, f"cosine waveform vs Bessel path {sin_dev:.2e} per coefficient; "
                   f"composed |s_n|^2 vs summed-phase DFT oracle {comb_dev:.2e}")


def test_criterion_8_poisson_fit_recovery():
    start = time.monotonic()
    scn = figure_preset("fig3b")
    trace = coincidence_trace(scn, REFERENCE_AXIS)
    true_product = scn.filter1.alpha ** 2 * scn.filter2.alpha ** 2
    hits = 0
    peak_mean = 0.0
    for seed in range(50):
        counts = synthesize_counts(trace, dwell=20.0, seed=seed)
        peak_mean = max(peak_mean, float(counts.max()))
        result = fit_scale(REFERENCE_AXIS, counts, scn, dwell=20.0)
        if abs(result.scale_product - true_product) / true_product <= 0.05:
            hits += 1
    elapsed = time.monotonic() - start
    ok = hits >= 45 and peak_mean >= 200.0 and elapsed < 60.0
    _report(8, ok, f"{hits}/50 trials within 5 percent on the scale product "
                   f"(peak counts {peak_mean:.0f}, {elapsed:.1f} s)")


def test_criterion_9_instrument_response():
    scn = figure_preset("fig3a")
    h2 = h2_profile(scn.filter1, scn.filter2)

    # numeric-convolution oracle, FWHM by bisection
    step = 0.005
    w = np.arange(-80.0, 80.0 + step / 2, step)
    conv = np.convolve(scn.filter1.intensity_response(w),
                       scn.filter2.intensity_response(w), mode="same") * step
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

    fwhm_numeric = crossing(0.0, 40.0) - crossing(-40.0, 0.0)
    fwhm_dev = abs(h2.fwhm - H2_FWHM) / H2_FWHM
    oracle_dev = abs(fwhm_numeric - H2_FWHM) / H2_FWHM
    overlap = float(h2(30.0) / h2.peak)
    ok = fwhm_dev <= 1e-3 and oracle_dev <= 1e-3 and overlap < 1e-6
    _report(9, ok, f"H2 FWHM {h2.fwhm:.4f} GHz (oracle {fwhm_numeric:.4f}, "
                   f"target {H2_FWHM}); adjacent-sideband overlap {overlap:.2e}")
