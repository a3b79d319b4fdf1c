"""Fourier-series transfer functions of periodic phase modulators.

A periodic phase modulator acts in the time domain as a unimodular transfer
function ``m(t) = sum_k q_k exp(-i k w_m t)``; pure phase modulation forces
``sum |q_k|^2 = 1``. For a sinusoidal drive of depth ``d`` the coefficients
are Bessel functions, ``q_k = J_k(-d)``, with a drive-phase offset entering
as ``q_k -> q_k exp(-i k phi)``. Arbitrary periodic drives are ingested by
sampling one period of the phase and taking a DFT of ``exp(i phi(t))``; the
module takes the samples as an array and opens no file (``modlab.cli``
reads a waveform file with ``read_phase_waveform``).

Two modulators acting on the two photons of an energy-conserving pair act
on the joint frequency correlation as one modulator driven by the summed
phase phi1(t) + phi2(t): its transfer function is the product m1(t) m2(t),
whose coefficients are the discrete convolution of the two sequences. For
sinusoidal drives of one frequency, d1 sin t + d2 sin(t + phi) is a single
sinusoid of depth |d1 + d2 exp(i phi)|, so at relative phase phi the pair
acts as one modulator of that depth (the Jacobi-Anger expansion): equal
phases add the depths, opposite phases subtract them, and equal depths in
opposition cancel outright.

Bessel values come from downward (Miller) recurrence with the standard
normalization; an independent power-series evaluator, elementwise over
arrays of orders and arguments, is provided as the verification oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .numerics import read_only_copy, values_hash

TAIL_TOL = 1e-24
# the largest accepted |depth| in rad: up to it the Bessel tail falls below
# TAIL_TOL within the orders sinusoidal_coeffs computes (that fails first at
# 157.963 rad; each depth in (n-1, n] has its least margin at n)
MAX_DEPTH = 157.0
_RESCALE_LIMIT = 1e100
_SERIES_TOL = 1e-22


def bessel_j_sequence(nmax: int, x: float) -> np.ndarray:
    """J_0(x) .. J_nmax(x) by Miller's downward recurrence.

    The recurrence is run from well above max(nmax, |x|) down to order zero
    with an arbitrary seed, then normalized with J_0 + 2*sum J_2k = 1.
    Downward is the stable direction above the turning point, so the result
    is accurate to near machine precision for the moderate arguments used
    here (|x| up to a few tens of radians). Arguments so small that the
    recurrence overflows take the power series instead.
    """
    if nmax < 0:
        raise ConfigurationError("nmax must be nonnegative")
    x = float(x)
    out = np.zeros(nmax + 1)
    if x == 0.0:
        out[0] = 1.0
        return out
    ax = abs(x)
    start = max(nmax, int(ax))
    m = 2 * ((start + int(np.ceil(np.sqrt(40.0 * (start + 1))))) // 2 + 1)
    j_hi = 0.0      # unnormalized J_{k+1}
    j = 1e-30       # unnormalized J_k
    norm = 0.0
    for k in range(m, 0, -1):
        j_lo = (2.0 * k / ax) * j - j_hi
        j_hi = j
        j = j_lo
        if abs(j) > _RESCALE_LIMIT:
            j *= 1e-100
            j_hi *= 1e-100
            out *= 1e-100
            norm *= 1e-100
        order = k - 1
        if order <= nmax:
            out[order] = j
        if order > 0 and order % 2 == 0:
            norm += 2.0 * j
    norm += j   # j now holds unnormalized J_0
    if not np.isfinite(norm):
        # below |x| of about 1e-99 the ratios J_{k-1}/J_k ~ 2k/|x| outgrow the
        # rescaling and the recurrence overflows; the series is accurate there
        return bessel_j_series(np.arange(nmax + 1), x)
    out /= norm
    if x < 0.0:
        out[1::2] = -out[1::2]
    return out


def bessel_j_series(n, x):
    """J_n(x) from the ascending power series, elementwise; the independent oracle.

    ``n`` and ``x`` broadcast against each other. Every element goes
    through the floating-point operations of the scalar series, in the
    same order, and stops at its own convergence test, so it is bit for bit
    the value a scalar evaluation gives; scalar arguments give a 0-d
    result. An underflowed odd order is 0.0, never -0.0. Accurate to
    ~1e-15 absolute for |x| below about 15, which covers every modulation
    depth of interest. Deliberately a different algorithm from
    ``bessel_j_sequence`` so the two can check each other.
    """
    n, x = np.broadcast_arrays(np.asarray(n, dtype=int), np.asarray(x, dtype=float))
    order = np.abs(n)
    # J_{-n} = (-1)^n J_n and J_n(-x) = (-1)^n J_n(x)
    sign = np.where((order % 2 == 1) & ((n < 0) != (x < 0)), -1.0, 1.0)
    half = 0.5 * np.abs(x)
    term = np.ones(half.shape)
    for i in range(1, int(order.max(initial=0)) + 1):
        term *= np.where(order >= i, half / i, 1.0)
    total, step, going = term, -(half * half), np.ones(half.shape, dtype=bool)
    m = 0
    while going.any():
        m += 1
        term = np.where(going, term * (step / (m * (order + m))), term)
        total = np.where(going, total + term, total)
        going &= ~(np.abs(term) < _SERIES_TOL * np.maximum(np.abs(total), 1e-300)) & (m <= 400)
    return sign * total + 0.0


@dataclass(frozen=True)
class ModulatorSpectrum:
    """Truncated coefficient sequence {q_k}, k = -K..K, of one modulator.

    The physics lives entirely in ``coeffs``: a sinusoidal drive, a sampled
    waveform and a composed pair that give the same coefficients are the
    same modulator. Every builder passes through this constructor, which
    refuses a drive frequency that is not positive and finite and a
    coefficient that is not finite.
    """

    omega_m: float
    coeffs: np.ndarray

    def __post_init__(self):
        # a negated comparison, so that NaN fails it too
        if not 0 < self.omega_m < math.inf:
            raise ConfigurationError("modulator drive frequency must be positive and finite")
        object.__setattr__(self, "coeffs", read_only_copy(self.coeffs, complex))
        if self.coeffs.ndim != 1 or len(self.coeffs) % 2 != 1:
            raise ConfigurationError("coefficients must form an odd-length sequence k=-K..K")
        if not np.isfinite(self.coeffs).all():
            raise ConfigurationError("modulator coefficients must be finite")

    @property
    def k_max(self) -> int:
        return (len(self.coeffs) - 1) // 2

    @property
    def k_values(self) -> np.ndarray:
        return np.arange(-self.k_max, self.k_max + 1)

    def coefficient(self, k: int) -> complex:
        if abs(k) > self.k_max:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.k_max])

    def total_power(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def __eq__(self, other):
        if not isinstance(other, ModulatorSpectrum):
            return NotImplemented
        return (self.omega_m == other.omega_m
                and self.coeffs.shape == other.coeffs.shape
                and bool(np.array_equal(self.coeffs, other.coeffs)))

    def __hash__(self):
        # hash(0.0) == hash(-0.0), and values_hash folds -0.0 in the array
        return hash((self.omega_m, values_hash(self.coeffs)))


def sinusoidal_coeffs(depth: float, drive_phase: float, omega_m: float) -> ModulatorSpectrum:
    """Coefficients of a sinusoidal phase modulator of the given depth.

    q_k = J_k(-depth) * exp(-i k drive_phase), truncated at the smallest K
    whose edge coefficients carry less than ``TAIL_TOL`` of the power; K
    comes out near depth + 18. A depth beyond +-``MAX_DEPTH`` and a drive
    phase that is not finite are rejected before any order is computed.
    """
    depth = float(depth)
    if not abs(depth) <= MAX_DEPTH:
        raise ConfigurationError(
            f"modulation depth {depth:g} rad is too large: |depth| must be at most "
            f"{MAX_DEPTH:g} rad")
    if not math.isfinite(drive_phase):
        raise ConfigurationError(f"modulation drive phase must be finite, got {drive_phase}")
    if depth == 0.0:
        return ModulatorSpectrum(omega_m=omega_m, coeffs=np.array([1.0 + 0.0j]))
    k_big = int(np.ceil(abs(depth))) + 48
    j_pos = bessel_j_sequence(k_big, -depth)
    # stay above the turning point so an incidental Bessel zero cannot
    # masquerade as a converged tail
    k_floor = int(np.ceil(abs(depth))) + 2
    k_cut = k_floor + int(np.flatnonzero(2.0 * j_pos[k_floor:] ** 2 < TAIL_TOL)[0])
    k_idx = np.arange(-k_cut, k_cut + 1)
    # J_{-k} = (-1)^k J_k
    j_k = j_pos[np.abs(k_idx)]
    coeffs = np.where((k_idx < 0) & (k_idx % 2 == 1), -j_k, j_k).astype(complex)
    # reduced mod 2 pi first, so that a huge phase does not overflow k * phase
    coeffs *= np.exp(-1j * k_idx * math.remainder(drive_phase, 2.0 * math.pi))
    return ModulatorSpectrum(omega_m=omega_m, coeffs=coeffs)


def coeffs_from_waveform(phase_samples, omega_m: float) -> ModulatorSpectrum:
    """Coefficients of an arbitrary periodic phase drive phi(t).

    ``phase_samples`` holds phi in radians at uniform times j*T/N over one
    period, N >= 64. The coefficients are the DFT of exp(i phi), indexed to
    match m(t) = sum_k q_k exp(-i k w_m t), with the time origin placed a
    quarter period early so that a pure cosine drive reproduces the
    J_k(-depth) convention of ``sinusoidal_coeffs`` coefficient by
    coefficient (an overall time shift is unobservable; only the relative
    phase between channels matters).
    """
    phases = np.asarray(phase_samples, dtype=float)
    if phases.ndim != 1 or len(phases) < 64 or not np.isfinite(phases).all():
        raise ConfigurationError("waveform needs at least 64 uniform, finite samples per period")
    n = len(phases)
    transfer = np.exp(1j * phases)
    fhat = np.fft.ifft(transfer)      # fhat[k] = (1/N) sum_j m_j exp(+2pi i jk/N)
    power = np.abs(fhat) ** 2
    total = float(power.sum())
    k_lim = n // 2 - 1
    k = np.arange(1, k_lim + 1)
    kept = k[(power[k] >= TAIL_TOL * total) | (power[n - k] >= TAIL_TOL * total)]
    k_cut = min(int(kept[-1]) + 1, k_lim) if len(kept) else 0
    k_idx = np.arange(-k_cut, k_cut + 1)
    # the quarter-period origin shift multiplies q_k by i**k
    coeffs = np.array((1.0, 1.0j, -1.0, -1.0j))[k_idx % 4] * fhat[k_idx % n]
    return ModulatorSpectrum(omega_m=omega_m, coeffs=coeffs)


def compose_nonlocal(q: ModulatorSpectrum, r: ModulatorSpectrum) -> ModulatorSpectrum:
    """The one modulator that two distant modulators make of a photon pair.

    Its transfer function is m1(t) m2(t), the modulator driven by the summed
    phase phi1(t) + phi2(t); its coefficients s_n = sum_k q_k r_{n-k} are the
    full discrete convolution of the two sequences. There is no
    re-truncation, so the composed sequence keeps the product's power
    exactly. Both modulators must share the drive frequency (they are
    synchronously driven by assumption).
    """
    if q.omega_m != r.omega_m:
        raise ConfigurationError(
            "modulators must be synchronously driven (equal drive frequencies)")
    return ModulatorSpectrum(omega_m=q.omega_m, coeffs=np.convolve(q.coeffs, r.coeffs))
