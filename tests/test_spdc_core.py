"""Propagation, analytic oracle and rate-inversion tests.

Frozen expected values were computed from independent closed forms before
the integrator was written: the constant-coefficient system has the exact
solution (cosh gL, i sinh gL) at zero mismatch, and the rate inversion is
checked against direct numeric quadrature of the Gaussian filter integral.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from modlab import (ConfigurationError, ConvergenceError, CrystalProfile, DomainError,
                    ExperimentScenario, FrequencyGrid, GaussianFilter, SpectralAmplitudes,
                    amplitudes_from_rate, analytic_amplitudes, coincidence_full,
                    coincidence_trace, propagate_envelopes, reference_scenario, singles_rate)
from modlab.spdc_core import MAX_GRID_POINTS

COSH_1 = 1.5430806348152437   # closed-form oracle, frozen
SINH_1 = 1.1752011936438014

PUMP = 1000.0


def _assert_invariants(amps, tol=1e-9):
    """Unitarity, conjugate-pair symmetry and |A0|^2 - |B0|^2 = 1 within ``tol``."""
    assert amps.unitarity_residual() <= tol
    assert amps.symmetry_residual() <= tol
    assert abs(abs(amps.a0) ** 2 - abs(amps.b0) ** 2 - 1.0) <= tol


def small_grid(points=3):
    return FrequencyGrid(center=0.5 * PUMP, span=10.0, points=points, pump_frequency=PUMP)


def test_grid_rejects_bad_shapes():
    with pytest.raises(ConfigurationError):
        FrequencyGrid(center=500.0, span=10.0, points=1, pump_frequency=PUMP)
    with pytest.raises(ConfigurationError):
        FrequencyGrid(center=500.0, span=0.0, points=5, pump_frequency=PUMP)
    # a NaN center with a NaN pump passes the pairing test, and a NaN or
    # infinite span the sign test; each must be named instead
    for fields, name in [({"center": math.nan, "pump_frequency": math.nan}, "center"),
                         ({"center": math.inf, "pump_frequency": math.inf}, "center"),
                         ({"pump_frequency": math.nan}, "pump_frequency"),
                         ({"span": math.nan}, "span"),
                         ({"span": math.inf}, "span"),
                         ({"span": -math.inf}, "span")]:
        kwargs = {"center": 500.0, "span": 10.0, "points": 5, "pump_frequency": PUMP,
                  **fields}
        with pytest.raises(ConfigurationError, match=f"grid {name} must be finite"):
            FrequencyGrid(**kwargs)
    # points must be an integer, not a bool, from 2 to the stated cap; a
    # float, NaN or huge count used to pass and fail later, or never
    for points in [5.0, math.nan, math.inf, 10 ** 12, MAX_GRID_POINTS + 1, True, 0, -3,
                   "5", None, np.float64(5.0)]:
        with pytest.raises(ConfigurationError, match="grid points must be an integer"):
            FrequencyGrid(center=500.0, span=10.0, points=points, pump_frequency=PUMP)
    for points in [2, np.int64(5), np.int32(7), MAX_GRID_POINTS]:
        assert FrequencyGrid(center=500.0, span=10.0, points=points,
                             pump_frequency=PUMP).points == points


def test_grid_rejects_unpaired_center():
    with pytest.raises(ConfigurationError):
        FrequencyGrid(center=501.0, span=10.0, points=5, pump_frequency=PUMP)


def test_grid_conjugate_pairing():
    grid = small_grid(points=7)
    w = grid.omegas
    for i in range(7):
        assert w[i] + w[grid.points - 1 - i] == pytest.approx(PUMP, abs=1e-9)


def test_no_coupling_is_identity():
    grid = small_grid()
    amps = propagate_envelopes(CrystalProfile.constant(grid, 0.0, 0.0, 20.0), grid, steps=256)
    assert np.allclose(amps.a, 1.0)
    assert np.allclose(amps.b, 0.0)


def test_constant_coupling_matches_hyperbolic_oracle():
    # kappa*L = 1 at zero mismatch: A = cosh(1), B = i sinh(1)
    grid = small_grid()
    amps = propagate_envelopes(CrystalProfile.constant(grid, 0.05, 0.0, 20.0), grid, steps=256)
    assert abs(amps.a0 - COSH_1) < 1e-10
    assert abs(amps.b0 - 1j * SINH_1) < 1e-10


def test_unitarity_with_mismatch():
    grid = small_grid()
    amps = propagate_envelopes(CrystalProfile.constant(grid, 0.05, 0.2, 20.0), grid, steps=256)
    assert amps.unitarity_residual() < 1e-10


def test_analytic_identity_when_uncoupled():
    a0, b0 = analytic_amplitudes(0.0, 0.7, 15.0)
    assert a0 == pytest.approx(1.0)
    assert b0 == 0.0


def test_analytic_hyperbolic_anchor():
    a0, b0 = analytic_amplitudes(0.05, 0.0, 20.0)
    assert abs(a0 - COSH_1) < 1e-12
    assert abs(b0 - 1j * SINH_1) < 1e-12


@pytest.mark.parametrize("kappa,delta_k", [
    (0.05, 0.0), (0.05, 0.3), (0.05, 0.05), (0.02, 0.3), (0.1, 0.05),
])
def test_analytic_unitarity_both_branches(kappa, delta_k):
    # delta_k > 2*kappa flips the gain into the trigonometric branch
    a0, b0 = analytic_amplitudes(kappa, delta_k, 20.0)
    assert abs(abs(a0) ** 2 - abs(b0) ** 2 - 1.0) < 1e-12


def test_analytic_branch_continuity():
    # crossing g^2 = 0 must not jump
    am, bm = analytic_amplitudes(0.05, 0.1 * (1.0 - 1e-9), 20.0)
    ap, bp = analytic_amplitudes(0.05, 0.1 * (1.0 + 1e-9), 20.0)
    assert abs(am - ap) < 1e-7
    assert abs(bm - bp) < 1e-7


# |g| L = 1e-8 (1 -+ 1e-6) at L = 20 mm, on either side of the switch to the
# series: hyperbolic (delta_k = 0, g = kappa) and trigonometric (g^2 < 0)
@pytest.mark.parametrize("kappa, delta_k", [
    *[(5e-10 * side, 0.0) for side in (1.0 - 1e-6, 1.0 + 1e-6)],
    *[(1e-10, 2.0 * math.sqrt(1e-20 + (5e-10 * side) ** 2))
      for side in (1.0 - 1e-6, 1.0 + 1e-6)],
], ids=["hyperbolic series", "hyperbolic sinh", "trigonometric series", "trigonometric sin"])
def test_analytic_series_switch_agrees_with_sinh_and_cosh(kappa, delta_k):
    # cmath's sinh and cosh as the reference: each branch lies within 1e-15
    # of it, so the two agree to 2e-15 where they meet
    length = 20.0
    g = cmath.sqrt(kappa ** 2 - 0.25 * delta_k ** 2)
    sinhc, cosh_gl = cmath.sinh(g * length) / g, cmath.cosh(g * length)
    phase = cmath.exp(0.5j * delta_k * length)
    a0, b0 = analytic_amplitudes(kappa, delta_k, length)
    assert abs(a0 - phase * (cosh_gl - 0.5j * delta_k * sinhc)) <= 1e-15
    assert abs(b0 - phase * 1j * kappa * sinhc) <= 1e-15 * abs(b0)


def test_rk4_matches_analytic_with_mismatch():
    # delta_k = 0.2 at 256 steps is checks.rk4_error's analytic-oracle case
    grid = small_grid()
    amps = propagate_envelopes(CrystalProfile.constant(grid, 0.05, 0.3, 20.0),
                               grid, steps=512)
    a_ref, b_ref = analytic_amplitudes(0.05, 0.3, 20.0)
    assert abs(amps.a0 - a_ref) < 1e-10
    assert abs(amps.b0 - b_ref) < 1e-10


def _four_evaluation_rk4(profile, grid, steps):
    """(alpha, beta) of the RK4 loop that evaluated the coefficient
    i kappa exp(i delta_k z) in every stage, four times per step, and held
    alpha and beta as separate arrays."""
    half = (grid.points + 1) // 2
    kappa, delta_k = profile.kappa[:half], profile.delta_k[:half]

    def derivative(z, alpha, beta):
        c = 1j * kappa * np.exp(1j * delta_k * z)
        return c * np.conj(beta), c * np.conj(alpha)

    alpha = np.ones(half, dtype=complex)
    beta = np.zeros(half, dtype=complex)
    h = profile.length / steps
    z = 0.0
    for _ in range(steps):
        da1, db1 = derivative(z, alpha, beta)
        da2, db2 = derivative(z + 0.5 * h, alpha + 0.5 * h * da1, beta + 0.5 * h * db1)
        da3, db3 = derivative(z + 0.5 * h, alpha + 0.5 * h * da2, beta + 0.5 * h * db2)
        da4, db4 = derivative(z + h, alpha + h * da3, beta + h * db3)
        alpha = alpha + (h / 6.0) * (da1 + 2.0 * da2 + 2.0 * da3 + da4)
        beta = beta + (h / 6.0) * (db1 + 2.0 * db2 + 2.0 * db3 + db4)
        z += h
    return alpha, beta


@pytest.mark.parametrize("steps", [16, 17, 64, 100, 256])
@pytest.mark.parametrize("case", ["gaussian-odd", "gaussian-even", "constant-complex"])
def test_rk4_agrees_with_the_four_evaluation_loop(case, steps):
    # the odd step counts take the odd-bit branch of the matrix power
    if case == "constant-complex":
        grid = small_grid(points=5)
        profile = CrystalProfile.constant(grid, 0.03 + 0.04j, 0.2, 20.0)
    else:
        pump = 2.0 * 281759.0
        points = 401 if case == "gaussian-odd" else 400
        grid = FrequencyGrid(center=0.5 * pump, span=400.0, points=points, pump_frequency=pump)
        detuning = grid.omegas - grid.center
        # weak enough that 16 steps stay inside the unitarity limit
        profile = CrystalProfile(kappa=0.02 * np.exp(-detuning ** 2 / (2.0 * 150.0 ** 2)),
                                 delta_k=2e-5 * detuning ** 2, length=10.0)
    amps = propagate_envelopes(profile, grid, steps=steps)
    alpha, beta = _four_evaluation_rk4(profile, grid, steps)
    half = len(alpha)
    # measured: at most 3.1e-15 over all 15 cases (gaussian, 256 steps)
    for values, reference in ((amps.a, alpha), (amps.b, beta)):
        for pair in (values[:half], values[::-1][:half]):
            assert np.abs(pair.real - reference.real).max() <= 1e-14
            assert np.abs(pair.imag - reference.imag).max() <= 1e-14


def test_two_to_the_twenty_steps_match_the_closed_form():
    # 2^20 steps as 20 squarings; the step-by-step loop would take 2^20
    # iterations. Measured: |dA0| 5.0e-16, |dB0| 1.2e-16
    grid = small_grid()
    amps = propagate_envelopes(CrystalProfile.constant(grid, 0.05, 0.2, 20.0), grid,
                               steps=2 ** 20)
    a_ref, b_ref = analytic_amplitudes(0.05, 0.2, 20.0)
    assert abs(amps.a0 - a_ref) <= 1e-12
    assert abs(amps.b0 - b_ref) <= 1e-12


@pytest.mark.parametrize("steps", [255, 4096])
def test_structured_profile_invariants_at_odd_and_large_step_counts(steps):
    # 255 sets every bit, so each squaring also takes the odd branch; 4096 is
    # squarings only. 17 steps leave RK4 a unitarity residual of 1.3e-5 here.
    pump = 2.0 * 281759.0
    grid = FrequencyGrid(center=0.5 * pump, span=400.0, points=401, pump_frequency=pump)
    _assert_invariants(propagate_envelopes(structured_profile(grid), grid, steps=steps))


def structured_profile(grid):
    detuning = grid.omegas - grid.center
    kappa = 0.05 * np.exp(-detuning ** 2 / (2.0 * 150.0 ** 2))
    delta_k = 2e-5 * detuning ** 2
    return CrystalProfile(kappa=kappa, delta_k=delta_k, length=20.0)


def test_structured_profile_invariants():
    # even point count: no self-conjugate sample, invariants still hold; the
    # 401-point grid is checks.reference_propagation
    pump = 2.0 * 281759.0
    grid = FrequencyGrid(center=0.5 * pump, span=400.0, points=400, pump_frequency=pump)
    _assert_invariants(propagate_envelopes(structured_profile(grid), grid, steps=256))


def test_asymmetric_profile_rejected():
    grid = small_grid(points=5)
    kappa = np.array([0.05, 0.05, 0.05, 0.05, 0.06], dtype=complex)
    profile = CrystalProfile(kappa=kappa, delta_k=np.zeros(5), length=20.0)
    with pytest.raises(ConfigurationError):
        propagate_envelopes(profile, grid, steps=256)


def test_profile_shape_validation():
    with pytest.raises(ConfigurationError):
        CrystalProfile(kappa=np.zeros(4, dtype=complex), delta_k=np.zeros(5), length=20.0)
    with pytest.raises(ConfigurationError):
        CrystalProfile(kappa=np.zeros(5, dtype=complex), delta_k=np.zeros(5), length=0.0)
    with pytest.raises(ConfigurationError, match="1-d samples"):
        CrystalProfile(kappa=np.zeros((5, 2), dtype=complex), delta_k=np.zeros((5, 2)),
                       length=20.0)
    grid = small_grid(points=3)
    with pytest.raises(ConfigurationError):
        propagate_envelopes(CrystalProfile.constant(small_grid(points=5), 0.0, 0.0, 20.0), grid,
                            steps=256)


@pytest.mark.parametrize("length", [math.nan, -math.inf])
def test_profile_rejects_a_length_that_is_not_positive(length):
    # NaN used to pass `length <= 0` and end propagation in an overflow message
    with pytest.raises(ConfigurationError, match="crystal length must be positive"):
        CrystalProfile(kappa=np.zeros(5, dtype=complex), delta_k=np.zeros(5), length=length)


def test_minimum_step_count_enforced():
    grid = small_grid()
    with pytest.raises(ConfigurationError):
        propagate_envelopes(CrystalProfile.constant(grid, 0.05, 0.0, 20.0), grid, steps=8)


@pytest.mark.parametrize("kappa,steps", [(50.0, 256), (30.0, 64), (5.0, 256)])
def test_gain_beyond_double_precision_raises_domain_error(kappa, steps):
    # kappa*L = 1000, 600, 100: the loop returned nan, then 1.5e173 with a nan
    # residual, then "increase steps" at |A|^2 ~ 1e86, which no step count can
    # meet. pytest turns any warning into an error, so none may leak either.
    grid = small_grid()
    with pytest.raises(DomainError,
                       match=rf"max \|kappa\|\*L = {kappa * 20.0:g}, where rounding alone"):
        propagate_envelopes(CrystalProfile.constant(grid, kappa, 0.0, 20.0), grid, steps=steps)


def test_convergence_error_advises_more_steps():
    grid = small_grid()
    with pytest.raises(ConvergenceError, match="steps"):
        propagate_envelopes(CrystalProfile.constant(grid, 0.2, 0.0, 20.0), grid, steps=16)


@pytest.mark.parametrize("steps", [16, 64])
def test_unstable_steps_are_not_blamed_on_precision(steps):
    # exact |A|^2 = 1.22 on the trigonometric branch, but kappa*h = 12.5 and
    # 3.1 put RK4 outside its stability interval and |A|^2 reaches 1e100, 1e83
    grid = small_grid()
    with pytest.raises(ConvergenceError, match="increase steps"):
        propagate_envelopes(CrystalProfile.constant(grid, 10.0, 30.0, 20.0), grid, steps=steps)


def _quadrature_intensity_integral(filt):
    # independent oracle: trapezoid over a fine, wide grid
    w = np.linspace(-80.0, 80.0, 400001)
    return float(np.trapezoid(filt.intensity_response(w), w))


def test_amplitudes_from_rate_against_quadrature_oracle():
    filt = GaussianFilter(fwhm=8.5, alpha=1.0, slit=100.0, dispersion=210.0)
    r2 = 2.18
    a0, b0 = amplitudes_from_rate(r2, filt)
    expected_b0 = math.sqrt(4.0 * math.pi * r2 / _quadrature_intensity_integral(filt))
    assert abs(b0) == pytest.approx(expected_b0, rel=1e-10)
    assert abs(abs(a0) ** 2 - abs(b0) ** 2 - 1.0) < 1e-9
    assert a0.imag == 0 and b0.imag == 0


def test_amplitudes_from_rate_small_rate_limit():
    filt = GaussianFilter(fwhm=8.5, alpha=1.0, slit=100.0, dispersion=210.0)
    a0, b0 = amplitudes_from_rate(1e-12, filt)
    assert abs(b0) < 1e-5
    assert a0 == pytest.approx(1.0, abs=1e-9)


def test_amplitudes_from_rate_rejects_bad_inputs():
    filt = GaussianFilter(fwhm=8.5, alpha=1.0, slit=100.0, dispersion=210.0)
    with pytest.raises(DomainError):
        amplitudes_from_rate(0.0, filt)
    dead = GaussianFilter(fwhm=8.5, alpha=0.0, slit=100.0, dispersion=210.0)
    with pytest.raises(DomainError):
        amplitudes_from_rate(1.0, dead)


def test_flat_amplitudes_interface():
    amps = SpectralAmplitudes.flat(math.sqrt(2.0), 1.0)
    assert amps.is_flat
    assert np.allclose(amps.b_at(np.array([1.0, 2.0])), 1.0)
    _assert_invariants(amps)


def test_sampled_amplitudes_interpolation_bounds():
    grid = small_grid(points=5)
    amps = propagate_envelopes(CrystalProfile.constant(grid, 0.05, 0.0, 20.0), grid, steps=256)
    mid = amps.a_at(np.array([500.0]))
    assert abs(mid[0] - COSH_1) < 1e-9
    with pytest.raises(DomainError):
        amps.a_at(np.array([600.0]))


@pytest.mark.parametrize("omega", [math.nan, [500.0, math.nan], [math.nan, 500.0]])
def test_sampled_amplitudes_reject_nan(omega):
    grid = small_grid(points=5)
    amps = propagate_envelopes(CrystalProfile.constant(grid, 0.05, 0.0, 20.0), grid, steps=256)
    with pytest.raises(DomainError):
        amps.b_at(omega)


@pytest.mark.parametrize("shape", [(0,), (2, 0)])
def test_sampled_amplitudes_empty_lookup(shape):
    grid = small_grid(points=5)
    amps = propagate_envelopes(CrystalProfile.constant(grid, 0.05, 0.0, 20.0), grid, steps=256)
    for lookup in (amps.a_at, amps.b_at):
        out = lookup(np.empty(shape))
        assert out.shape == shape and out.dtype == complex


def _sampled_tier_amplitudes():
    """The sampled-tier crystal: 2201 points over 1100 GHz, 256 steps."""
    pump = 2.0 * 281759.8
    grid = FrequencyGrid(center=0.5 * pump, span=1100.0, points=2201, pump_frequency=pump)
    detuning = grid.omegas - grid.center
    profile = CrystalProfile(kappa=0.06 * np.exp(-detuning ** 2 / (2.0 * 800.0 ** 2)),
                             delta_k=1.5e-6 * detuning ** 2, length=20.0)
    return propagate_envelopes(profile, grid, steps=256)


def _split_interp(self, values, omega):
    """The former lookup: two real interpolations joined as re + 1j * im."""
    omega = np.asarray(omega, dtype=float)
    grid_w = self.grid.omegas
    if omega.min() < grid_w[0] - 1e-9 or omega.max() > grid_w[-1] + 1e-9:
        raise DomainError("requested frequency lies outside the amplitude grid")
    re = np.interp(omega, grid_w, values.real)
    im = np.interp(omega, grid_w, values.imag)
    return re + 1j * im


def test_complex_lookup_bits_equal_the_split_interpolation():
    amps = _sampled_tier_amplitudes()
    w = amps.grid.omegas
    omega = np.concatenate([
        w, 0.5 * (w[:-1] + w[1:]),
        [w[0], w[-1], w[0] - 0.9e-9, w[-1] + 0.9e-9, w[0] - 1e-9, w[-1] + 1e-9],
        np.random.default_rng(20).uniform(w[0], w[-1], 10 ** 4)])
    for lookup, values in ((amps.a_at, amps.a), (amps.b_at, amps.b)):
        assert lookup(omega).tobytes() == _split_interp(amps, values, omega).tobytes()
        assert lookup(omega[:, None]).shape == (len(omega), 1)


def test_grid_omegas_built_once_read_only():
    grid = small_grid(points=7)
    w = grid.omegas
    assert grid.omegas is w
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0
    expected = np.linspace(grid.center - 0.5 * grid.span, grid.center + 0.5 * grid.span,
                           grid.points)
    assert w.tobytes() == expected.tobytes()


def test_grid_cache_is_not_part_of_the_value():
    grid = small_grid(points=7)
    fresh = small_grid(points=7)
    w = grid.omegas
    assert grid == fresh and hash(grid) == hash(fresh)
    wider = dataclasses.replace(grid, span=20.0)
    assert wider.omegas is not w
    assert wider.omegas[-1] - wider.omegas[0] == pytest.approx(20.0)
    assert grid.omegas is w and w[-1] - w[0] == pytest.approx(10.0)
    assert dataclasses.replace(grid, span=20.0) == wider


def _sampled_tier_outputs(amps):
    """Singles rates, closed-form trace and full tier of the sampled-tier
    scenario, built afresh so that no cached model carries over."""
    pump = amps.grid.pump_frequency
    base = reference_scenario(1.5, 1.5)
    slit = (0.5 * pump) / 210.0
    scn = ExperimentScenario(
        pump_frequency=pump, amplitudes=amps, mod1=base.mod1, mod2=base.mod2,
        filter1=GaussianFilter(fwhm=8.5, alpha=base.filter1.alpha, slit=slit,
                               dispersion=210.0),
        filter2=GaussianFilter(fwhm=8.5, alpha=base.filter2.alpha, slit=slit,
                               dispersion=210.0),
        gate_ns=1.25, dispersion=210.0)
    delta = np.arange(-150.0, 151.0, 1.0)
    rates = np.array([singles_rate(amps, scn.mod1, scn.filter1),
                      singles_rate(amps, scn.mod2, scn.filter2)])
    trace = coincidence_trace(scn, delta)
    full = coincidence_full(scn, delta)
    return [rates, trace.paired, trace.accidental, trace.total,
            full.paired, full.accidental, full.total]


def test_sampled_tier_bits_equal_the_split_interpolation(monkeypatch):
    amps = _sampled_tier_amplitudes()
    complex_lookup = _sampled_tier_outputs(amps)
    monkeypatch.setattr(SpectralAmplitudes, "_interp", _split_interp)
    split_lookup = _sampled_tier_outputs(amps)
    for got, want in zip(complex_lookup, split_lookup):
        assert got.tobytes() == want.tobytes()


def test_sampled_amplitudes_shape_validation():
    grid = small_grid(points=5)
    with pytest.raises(ConfigurationError):
        SpectralAmplitudes(a0=1.0, b0=0.0, grid=grid, a=np.ones(4), b=np.zeros(5))
    with pytest.raises(ConfigurationError):
        SpectralAmplitudes(a0=1.0, b0=0.0, grid=grid, a=np.ones(5), b=None)
