"""Modulator coefficient algebra tests.

The anchor values are power-series Bessel evaluations frozen before the
recurrence code existed:
    J_0..J_4(1.5) = 0.5118276717359181, 0.5579365079100996,
                    0.2320876721442147, 0.06096395114113963,
                    0.011768132420343797
    J_0..J_4(3.0) = -0.26005195490193334, 0.3390589585259365,
                    0.486091260585891, 0.30906272225525155,
                    0.1320341839246122
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modlab import (ConfigurationError, bessel_j_sequence, bessel_j_series,
                    coeffs_from_waveform, compose_nonlocal, read_phase_waveform,
                    sinusoidal_coeffs)
from modlab.modulation import MAX_DEPTH, TAIL_TOL, ModulatorSpectrum

J_15 = (0.5118276717359181, 0.5579365079100996, 0.2320876721442147,
        0.06096395114113963, 0.011768132420343797)
J_30 = (-0.26005195490193334, 0.3390589585259365, 0.486091260585891,
        0.30906272225525155, 0.1320341839246122)

# squared magnitudes quoted to five digits (series oracle)
Q_SQ_15 = (0.26197, 0.31129, 0.05386, 0.003717)


def _edge_fraction(mod):
    """(|q_K|^2 + |q_-K|^2) / total power: what the truncation leaves at the edge."""
    return (abs(mod.coeffs[0]) ** 2 + abs(mod.coeffs[-1]) ** 2) / mod.total_power()
S_SQ_30 = (0.06763, 0.11496, 0.23628, 0.09552, 0.017433)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.5, 3.0, 5.0, 8.0, -1.5])
def test_recurrence_matches_series(x):
    seq = bessel_j_sequence(25, x)
    for n in range(26):
        assert abs(seq[n] - bessel_j_series(n, x)) < 1e-13


@pytest.mark.parametrize("x", [1e-100, -1e-150, 1e-300, 5e-324])
def test_recurrence_falls_back_to_series_for_tiny_arguments(x):
    # the downward recurrence overflows below |x| of about 1e-99
    seq = bessel_j_sequence(49, x)
    assert [float(v) for v in seq] == [bessel_j_series(n, x) for n in range(50)]
    mod = sinusoidal_coeffs(x, 0.3, 30.0)
    assert mod.k_max == 3 and abs(mod.total_power() - 1.0) <= 1e-15


def test_series_matches_frozen_values():
    for n, ref in enumerate(J_15):
        assert bessel_j_series(n, 1.5) == pytest.approx(ref, abs=1e-15)
    for n, ref in enumerate(J_30):
        assert bessel_j_series(n, 3.0) == pytest.approx(ref, abs=1e-15)


def test_series_negative_order_symmetry():
    assert bessel_j_series(-3, 1.5) == pytest.approx(-J_15[3], abs=1e-15)
    assert bessel_j_series(-2, 3.0) == pytest.approx(J_30[2], abs=1e-15)


def test_identity_modulator():
    mod = sinusoidal_coeffs(0.0, 0.0, 30.0)
    assert mod.k_max == 0
    assert mod.coefficient(0) == 1.0
    assert mod.coefficient(3) == 0.0
    assert mod.total_power() == 1.0


def test_sinusoidal_magnitudes_at_depth_1p5():
    mod = sinusoidal_coeffs(1.5, 0.0, 30.0)
    for k, ref in enumerate(Q_SQ_15):
        assert abs(mod.coefficient(k)) ** 2 == pytest.approx(ref, rel=5e-4)
        # against the series oracle, tight
        assert abs(mod.coefficient(k)) ** 2 == pytest.approx(J_15[k] ** 2, rel=1e-12)


def test_sinusoidal_sign_convention():
    # q_k = J_k(-depth) * exp(-i k phase)
    phase = 0.7
    mod = sinusoidal_coeffs(1.5, phase, 30.0)
    for k in range(-5, 6):
        expected = bessel_j_series(k, -1.5) * np.exp(-1j * k * phase)
        assert mod.coefficient(k) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("depth", [0.5, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("phase", [0.0, 0.4, math.pi])
def test_parseval(depth, phase):
    mod = sinusoidal_coeffs(depth, phase, 30.0)
    assert abs(mod.total_power() - 1.0) < 1e-12
    assert _edge_fraction(mod) < TAIL_TOL


def test_truncation_tail():
    mod = sinusoidal_coeffs(1.5, 0.0, 30.0)
    assert _edge_fraction(mod) < TAIL_TOL
    # near depth + 18 for the default tolerance
    assert 10 <= mod.k_max <= 24


def test_waveform_trivial_phase():
    mod = coeffs_from_waveform(np.zeros(128), 30.0)
    assert mod.k_max == 0
    assert mod.coefficient(0) == pytest.approx(1.0, abs=1e-15)


def test_waveform_cosine_matches_sinusoidal():
    theta = 2.0 * math.pi * np.arange(512) / 512
    wav = coeffs_from_waveform(1.5 * np.cos(theta), 30.0)
    ana = sinusoidal_coeffs(1.5, 0.0, 30.0)
    for k in range(-max(wav.k_max, ana.k_max), max(wav.k_max, ana.k_max) + 1):
        assert abs(wav.coefficient(k) - ana.coefficient(k)) < 1e-10


def test_waveform_cosine_with_drive_phase():
    phase = 0.9
    theta = 2.0 * math.pi * np.arange(512) / 512
    wav = coeffs_from_waveform(1.2 * np.cos(theta + phase), 30.0)
    ana = sinusoidal_coeffs(1.2, phase, 30.0)
    for k in range(-wav.k_max, wav.k_max + 1):
        assert abs(wav.coefficient(k) - ana.coefficient(k)) < 1e-10


def test_waveform_square_wave():
    # +-1 square wave: odd harmonics with |q_k| = 2/(pi k), even ones absent
    n = 4096
    phases = np.where(np.arange(n) < n // 2, 0.0, math.pi)
    mod = coeffs_from_waveform(phases, 30.0)
    assert abs(mod.total_power() - 1.0) < 1e-12
    for k in (1, 3, 5, 7):
        assert abs(mod.coefficient(k)) == pytest.approx(2.0 / (math.pi * k), rel=2e-3)
    for k in (2, 4, 6):
        assert abs(mod.coefficient(k)) < 1e-12


def test_waveform_minimum_sample_count():
    with pytest.raises(ConfigurationError):
        coeffs_from_waveform(np.zeros(32), 30.0)


def test_compose_identity():
    q = sinusoidal_coeffs(0.0, 0.0, 30.0)
    r = sinusoidal_coeffs(1.5, 0.3, 30.0)
    s = compose_nonlocal(q, r)
    assert s.k_max == r.k_max
    assert np.allclose(s.coeffs, r.coeffs, atol=1e-15)


def test_compose_same_phase_doubles_depth():
    q = sinusoidal_coeffs(1.5, 0.0, 30.0)
    s = compose_nonlocal(q, sinusoidal_coeffs(1.5, 0.0, 30.0))
    for n, ref in enumerate(S_SQ_30):
        assert abs(s.coefficient(n)) ** 2 == pytest.approx(ref, rel=5e-4)
        assert abs(s.coefficient(n)) ** 2 == pytest.approx(J_30[n] ** 2, rel=1e-10)
    assert abs(s.total_power() - 1.0) < 1e-10
    assert _edge_fraction(s) < TAIL_TOL


def test_compose_opposite_phase_cancels():
    q = sinusoidal_coeffs(1.5, 0.0, 30.0)
    s = compose_nonlocal(q, sinusoidal_coeffs(1.5, math.pi, 30.0))
    assert abs(s.coefficient(0)) == pytest.approx(1.0, abs=1e-12)
    others = max(abs(s.coefficient(n)) for n in range(1, s.k_max + 1))
    assert others < 1e-12


@pytest.mark.parametrize("d1", [0.5, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("d2", [0.5, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("rel_phase,sign", [(0.0, +1), (math.pi, -1)])
def test_addition_theorem_grid(d1, d2, rel_phase, sign):
    # sum_k J_k(a) J_{n-k}(b) = J_n(a+b), via the series oracle
    s = compose_nonlocal(sinusoidal_coeffs(d1, 0.0, 30.0),
                         sinusoidal_coeffs(d2, rel_phase, 30.0))
    total = d1 + sign * d2
    for n in range(-s.k_max, s.k_max + 1):
        assert abs(abs(s.coefficient(n)) - abs(bessel_j_series(n, total))) < 1e-9


def test_intermediate_relative_phase():
    # |s_n| = |J_n(w)| with w^2 = d1^2 + d2^2 + 2 d1 d2 cos(rel_phase)
    d1, d2, phi = 1.5, 1.0, 1.1
    s = compose_nonlocal(sinusoidal_coeffs(d1, 0.0, 30.0),
                         sinusoidal_coeffs(d2, phi, 30.0))
    w = math.sqrt(d1 * d1 + d2 * d2 + 2.0 * d1 * d2 * math.cos(phi))
    for n in range(-8, 9):
        assert abs(abs(s.coefficient(n)) - abs(bessel_j_series(n, w))) < 1e-10


def test_time_origin_covariance():
    # shifting the common time origin multiplies q_k and r_l by e^{-ik phi},
    # e^{-il phi}; every |s_n|^2 is unchanged
    phi = 0.813
    q = sinusoidal_coeffs(1.5, 0.0, 30.0)
    r = sinusoidal_coeffs(1.0, 0.4, 30.0)
    s_ref = compose_nonlocal(q, r)
    q_shift = ModulatorSpectrum(omega_m=30.0,
                                coeffs=q.coeffs * np.exp(-1j * q.k_values * phi))
    r_shift = ModulatorSpectrum(omega_m=30.0,
                                coeffs=r.coeffs * np.exp(-1j * r.k_values * phi))
    s_shift = compose_nonlocal(q_shift, r_shift)
    for n in range(-s_ref.k_max, s_ref.k_max + 1):
        assert abs(s_shift.coefficient(n)) ** 2 == pytest.approx(abs(s_ref.coefficient(n)) ** 2, abs=1e-12)


def test_relative_phase_is_observable():
    # oppositely signed shifts change the relative drive phase and with it
    # the sideband weights (this is the measured effect, not an invariance)
    q = sinusoidal_coeffs(1.5, 0.0, 30.0)
    r = sinusoidal_coeffs(1.5, 0.0, 30.0)
    phi = math.pi / 2
    q_shift = ModulatorSpectrum(omega_m=30.0,
                                coeffs=q.coeffs * np.exp(-1j * q.k_values * phi))
    r_shift = ModulatorSpectrum(omega_m=30.0,
                                coeffs=r.coeffs * np.exp(+1j * r.k_values * phi))
    s = compose_nonlocal(q_shift, r_shift)
    s_ref = compose_nonlocal(q, r)
    assert abs(abs(s.coefficient(0)) ** 2 - abs(s_ref.coefficient(0)) ** 2) > 0.1


def test_compose_rejects_asynchronous_drives():
    with pytest.raises(ConfigurationError):
        compose_nonlocal(sinusoidal_coeffs(1.5, 0.0, 30.0),
                         sinusoidal_coeffs(1.5, 0.0, 29.0))


def test_read_phase_waveform(tmp_path):
    n = 128
    lines = ["# time_fraction phase_radians"]
    for j in range(n):
        lines.append(f"{j / n:.12f} {1.5 * math.cos(2 * math.pi * j / n):.12f}")
    path = tmp_path / "wave.txt"
    path.write_text("\n".join(lines) + "\n")
    phases = read_phase_waveform(path)
    assert len(phases) == n
    mod = coeffs_from_waveform(phases, 30.0)
    ana = sinusoidal_coeffs(1.5, 0.0, 30.0)
    assert abs(mod.coefficient(1) - ana.coefficient(1)) < 1e-8


def test_read_phase_waveform_rejects_bad_files(tmp_path):
    short = tmp_path / "short.txt"
    short.write_text("0.0 1.0\n0.5 2.0\n")
    with pytest.raises(ConfigurationError):
        read_phase_waveform(short)

    uneven = tmp_path / "uneven.txt"
    uneven.write_text("\n".join(f"{(j / 128) ** 1.01:.12f} 0.0" for j in range(128)) + "\n")
    with pytest.raises(ConfigurationError):
        read_phase_waveform(uneven)

    garbled = tmp_path / "garbled.txt"
    garbled.write_text("\n".join("0.0 x" for _ in range(70)) + "\n")
    with pytest.raises(ConfigurationError):
        read_phase_waveform(garbled)


# ---------------------------------------------------------------------------
# the coefficient builders against their former loops, bit for bit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_depth_limit_is_sharp(sign):
    # the tail margin of the depths in (n-1, n] is least at n, so these are
    # the hardest accepted depths; the limit itself is one of them
    for n in range(1, int(MAX_DEPTH) + 1):
        mod = sinusoidal_coeffs(sign * n, 0.0, 30.0)
        assert abs(mod.total_power() - 1.0) <= 1e-10
    assert n == MAX_DEPTH
    with pytest.raises(ConfigurationError, match="at most 157 rad"):
        sinusoidal_coeffs(sign * math.nextafter(MAX_DEPTH, math.inf), 0.0, 30.0)


def _sinusoidal_coeffs_reference(depth, drive_phase):
    """``sinusoidal_coeffs`` as a loop: the cut by a scan over k, then the
    sign of J_{-k} = (-1)^k J_k set coefficient by coefficient."""
    if depth == 0.0:
        return np.array([1.0 + 0.0j])
    k_big = int(np.ceil(abs(depth))) + 48
    j_pos = bessel_j_sequence(k_big, -depth)
    k_floor = int(np.ceil(abs(depth))) + 2
    k_cut = None
    for k in range(k_floor, k_big + 1):
        if 2.0 * j_pos[k] ** 2 < TAIL_TOL:
            k_cut = k
            break
    k_idx = np.arange(-k_cut, k_cut + 1)
    coeffs = np.empty(2 * k_cut + 1, dtype=complex)
    for k in k_idx:
        val = j_pos[abs(k)]
        if k < 0 and (-k) % 2 == 1:
            val = -val
        coeffs[k + k_cut] = val
    coeffs *= np.exp(-1j * k_idx * float(drive_phase))
    return coeffs


def _coeffs_from_waveform_reference(phases):
    """``coeffs_from_waveform`` as a loop: the kept band by a scan over k,
    then i**k times each DFT coefficient in turn."""
    n = len(phases)
    fhat = np.fft.ifft(np.exp(1j * phases))
    power = np.abs(fhat) ** 2
    total = float(power.sum())
    k_lim = n // 2 - 1
    k_keep = 0
    for k in range(1, k_lim + 1):
        if power[k] >= TAIL_TOL * total or power[n - k] >= TAIL_TOL * total:
            k_keep = k
    k_cut = min(k_keep + 1, k_lim) if k_keep > 0 else 0
    return np.array([(1.0, 1.0j, -1.0, -1.0j)[k % 4] * fhat[k % n]
                     for k in range(-k_cut, k_cut + 1)], dtype=complex)


def _three_harmonic_drive():
    """The three-harmonic phase drive of the benchmark's waveform file,
    512 samples rounded to the file's 12 decimals."""
    t = np.arange(512) / 512
    phases = (1.2 * np.cos(2.0 * np.pi * t) + 0.45 * np.cos(4.0 * np.pi * t + 0.7)
              + 0.25 * np.sin(6.0 * np.pi * t))
    return np.array([float(f"{p:.12f}") for p in phases])


def test_sinusoidal_coeffs_bits_equal_the_loop():
    for depth in (0.0, 0.3, 0.5, 1.0, 1.5, 2.5, 7.9, -1.5):
        for phase in (0.0, 0.4, math.pi, -1.1):
            got = sinusoidal_coeffs(depth, phase, 30.0).coeffs
            ref = _sinusoidal_coeffs_reference(depth, phase)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (depth, phase)


@pytest.mark.parametrize("name", ["cosine", "three_harmonic", "criterion7_phi1",
                                  "criterion7_phi2", "zero", "square"])
def test_coeffs_from_waveform_bits_equal_the_loop(name):
    theta = 2.0 * math.pi * np.arange(256) / 256
    phases = {
        "cosine": 1.5 * np.cos(2.0 * math.pi * np.arange(512) / 512),
        "three_harmonic": _three_harmonic_drive(),
        "criterion7_phi1": (1.2 * np.cos(theta) + 0.7 * np.cos(2.0 * theta)
                            + 0.3 * np.sin(3.0 * theta)),
        "criterion7_phi2": 0.9 * np.cos(theta + 0.4) + 0.5 * np.sin(2.0 * theta),
        "zero": np.zeros(64),
        # a broad spectrum: the kept band reaches the N/2 - 1 limit
        "square": np.where(np.arange(128) < 64, 0.0, 3.0),
    }[name]
    got = coeffs_from_waveform(phases, 30.0).coeffs
    ref = _coeffs_from_waveform_reference(phases)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# properties: unitarity and the summed-phase identity
# ---------------------------------------------------------------------------

_DEPTHS = st.floats(-6.0, 6.0)
_PHASES = st.floats(-math.pi, math.pi)


@st.composite
def _waveforms(draw):
    """256 samples of a drive with up to three harmonics of up to 2 rad."""
    theta = 2.0 * math.pi * np.arange(256) / 256
    phases = np.zeros(256)
    for h in range(1, draw(st.integers(1, 3)) + 1):
        phases += draw(st.floats(0.0, 2.0)) * np.cos(h * theta + draw(_PHASES))
    return phases


def _max_coefficient_gap(a, b):
    span = max(a.k_max, b.k_max)
    return max(abs(a.coefficient(k) - b.coefficient(k)) for k in range(-span, span + 1))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_DEPTHS, _PHASES, _waveforms())
def test_coefficient_power_is_one(depth, phase, phases):
    assert abs(sinusoidal_coeffs(depth, phase, 30.0).total_power() - 1.0) <= 1e-10
    assert abs(coeffs_from_waveform(phases, 30.0).total_power() - 1.0) <= 1e-10


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_waveforms(), _waveforms())
def test_composition_is_the_summed_phase_drive(phi1, phi2):
    composed = compose_nonlocal(coeffs_from_waveform(phi1, 30.0),
                                coeffs_from_waveform(phi2, 30.0))
    assert _max_coefficient_gap(composed, coeffs_from_waveform(phi1 + phi2, 30.0)) <= 1e-10


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_DEPTHS, _DEPTHS, _PHASES)
def test_composition_in_phase_adds_depths(d1, d2, phase):
    composed = compose_nonlocal(sinusoidal_coeffs(d1, phase, 30.0),
                                sinusoidal_coeffs(d2, phase, 30.0))
    assert _max_coefficient_gap(composed, sinusoidal_coeffs(d1 + d2, phase, 30.0)) <= 1e-10
