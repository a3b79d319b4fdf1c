"""Fourier-series transfer functions of periodic phase modulators.

A periodic phase modulator acts in the time domain as a unimodular transfer
function ``m(t) = sum_k q_k exp(-i k w_m t)``; pure phase modulation forces
``sum |q_k|^2 = 1``. For a sinusoidal drive of depth ``d`` the coefficients
are Bessel functions, ``q_k = J_k(-d)``, with a drive-phase offset entering
as ``q_k -> q_k exp(-i k phi)``. Arbitrary periodic drives are ingested by
sampling one period of the phase and taking a DFT of ``exp(i phi(t))``.

Two modulators acting on the two photons of an energy-conserving pair act
on the joint frequency correlation as one modulator driven by the summed
phase phi1(t) + phi2(t): its transfer function is the product m1(t) m2(t),
whose coefficients are the discrete convolution of the two sequences. For
sinusoidal drives this is the Bessel addition theorem: equal phases behave
like a single modulator at the summed depth, opposite phases cancel
outright.

Bessel values come from downward (Miller) recurrence with the standard
normalization; an independent power-series evaluator is provided as the
verification oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

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
        return np.array([bessel_j_series(n, x) for n in range(nmax + 1)])
    out /= norm
    if x < 0.0:
        out[1::2] = -out[1::2]
    return out


def bessel_j_series(n: int, x: float) -> float:
    """J_n(x) from the ascending power series; the independent oracle.

    Accurate to ~1e-15 absolute for |x| below about 15, which covers every
    modulation depth of interest. Deliberately a different algorithm from
    ``bessel_j_sequence`` so the two can check each other.
    """
    n = int(n)
    sign = 1.0
    if n < 0:
        n = -n
        if n % 2 == 1:
            sign = -sign
    if x < 0 and n % 2 == 1:
        sign = -sign
    half = 0.5 * abs(x)
    term = 1.0
    for i in range(1, n + 1):
        term *= half / i
        if term == 0.0:
            return 0.0
    total = term
    m = 0
    while True:
        m += 1
        term *= -(half * half) / (m * (n + m))
        total += term
        if abs(term) < _SERIES_TOL * max(abs(total), 1e-300) or m > 400:
            break
    return sign * total


@dataclass(frozen=True)
class ModulatorSpectrum:
    """Truncated coefficient sequence {q_k}, k = -K..K, of one modulator.

    ``depth`` and ``drive_phase`` are bookkeeping for sinusoidal drives
    (None when the spectrum came from an arbitrary waveform); the physics
    lives entirely in ``coeffs``.
    """

    omega_m: float
    coeffs: np.ndarray
    depth: float | None = None
    drive_phase: float | None = None

    def __post_init__(self):
        if self.omega_m <= 0:
            raise ConfigurationError("modulator drive frequency must be positive")
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))
        if self.coeffs.ndim != 1 or len(self.coeffs) % 2 != 1:
            raise ConfigurationError("coefficients must form an odd-length sequence k=-K..K")

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
                and self.depth == other.depth
                and self.drive_phase == other.drive_phase
                and self.coeffs.shape == other.coeffs.shape
                and bool(np.array_equal(self.coeffs, other.coeffs)))


def sinusoidal_coeffs(depth: float, drive_phase: float = 0.0,
                      omega_m: float = 30.0) -> ModulatorSpectrum:
    """Coefficients of a sinusoidal phase modulator of the given depth.

    q_k = J_k(-depth) * exp(-i k drive_phase), truncated at the smallest K
    whose edge coefficients carry less than ``TAIL_TOL`` of the power; K
    comes out near depth + 18. A depth beyond +-``MAX_DEPTH`` is rejected
    before any order is computed.
    """
    depth = float(depth)
    if not abs(depth) <= MAX_DEPTH:
        raise ConfigurationError(
            f"modulation depth {depth:g} rad is too large: |depth| must be at most "
            f"{MAX_DEPTH:g} rad")
    if depth == 0.0:
        return ModulatorSpectrum(omega_m=omega_m, coeffs=np.array([1.0 + 0.0j]),
                                 depth=0.0, drive_phase=float(drive_phase))
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
    coeffs *= np.exp(-1j * k_idx * float(drive_phase))
    return ModulatorSpectrum(omega_m=omega_m, coeffs=coeffs,
                             depth=depth, drive_phase=float(drive_phase))


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
    if phases.ndim != 1 or len(phases) < 64:
        raise ConfigurationError("waveform needs at least 64 uniform samples per period")
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


def read_phase_waveform(path) -> np.ndarray:
    """Load one period of a phase drive from a two-column text file.

    Columns: time as a fraction of the period, phase in radians. Rows must
    start at 0 and be uniformly spaced (j/N for N rows); '#' comments and
    blank lines are ignored. Returns the phase samples for
    ``coeffs_from_waveform``.
    """
    times = []
    phases = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) != 2:
                raise ConfigurationError(
                    f"{path}:{lineno}: expected two columns (time_fraction phase_radians)")
            try:
                time, phase = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ConfigurationError(f"{path}:{lineno}: non-numeric value") from exc
            if not (math.isfinite(time) and math.isfinite(phase)):
                raise ConfigurationError(f"{path}:{lineno}: non-finite value")
            times.append(time)
            phases.append(phase)
    n = len(times)
    if n < 64:
        raise ConfigurationError("waveform file needs at least 64 samples per period")
    expected = np.arange(n) / n
    if np.max(np.abs(np.asarray(times) - expected)) > 1e-9:
        raise ConfigurationError(
            "waveform times must be uniform fractions of the period: 0, 1/N, ..., (N-1)/N")
    return np.asarray(phases, dtype=float)


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
