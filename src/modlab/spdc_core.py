"""Parametric-gain spectral amplitudes for a cw-pumped nonlinear crystal.

A monochromatic pump at frequency ``w_p`` drives pair generation, coupling
the slowly varying envelope at frequency ``w`` to the conjugated envelope at
``w_p - w``. Propagating that 2x2 linear system through the crystal yields
the Bogoliubov-style transfer functions ``A(w)`` and ``B(w)`` of the output
field. Physical consistency requires ``|A|^2 - |B|^2 = 1`` at every
frequency and a cross-symmetry constraint between conjugate frequencies;
both are verified after integration.

Frequencies are ordinary frequencies in GHz throughout, crystal coordinates
in mm. The integrator is fixed-step classical RK4 on conjugate pairs,
evaluated as a power of its one-step matrix: the coefficients of each pair
are constant in z apart from a phase, so N steps are the N-th power of one
phase-shifted step, taken by repeated squaring with every factor held as
identity plus a small part. A closed-form constant-coefficient solution is
available as an oracle.

No attempt is made to model a realistic phase-matching curve; the coupling
and mismatch profiles are caller-supplied, so the simulated spectral shape
is only as faithful as those inputs.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, ConvergenceError, DomainError
from .numerics import read_only_copy, values_hash

DEFAULT_STEPS = 256
MAX_GRID_POINTS = 1_000_000
_UNITARITY_HARD_LIMIT = 1e-6
_SYMMETRY_RTOL = 1e-9


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform frequency grid symmetric about half the pump frequency.

    The symmetry guarantees that the conjugate ``w_p - w`` of every sample
    is itself a sample (index ``n-1-i`` for sample ``i``), which is what
    lets the propagator solve each conjugate pair exactly once.

    ``points`` is an ``int`` or numpy integer (not a bool) from 2 to
    ``MAX_GRID_POINTS`` (10^6, where one complex sample array takes 16 MB);
    ``center``, ``span`` and ``pump_frequency`` are finite. Anything else
    raises ``ConfigurationError`` naming the field.
    """

    center: float
    span: float
    points: int
    pump_frequency: float

    def __post_init__(self):
        for name in ("center", "span", "pump_frequency"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"frequency grid {name} must be finite, got {value}")
        points = self.points
        if (isinstance(points, bool) or not isinstance(points, (int, np.integer))
                or not 2 <= points <= MAX_GRID_POINTS):
            raise ConfigurationError(
                f"frequency grid points must be an integer from 2 to {MAX_GRID_POINTS}, "
                f"got {points!r}")
        if self.span <= 0:
            raise ConfigurationError("frequency grid span must be positive")
        half_pump = 0.5 * self.pump_frequency
        if abs(self.center - half_pump) > 1e-9 * max(1.0, abs(self.pump_frequency)):
            raise ConfigurationError(
                "grid is not conjugate-paired: center must equal pump_frequency/2 "
                f"(center={self.center}, pump/2={half_pump})")

    @cached_property
    def omegas(self):
        """The sample frequencies, built by ``np.linspace`` on first read.

        Every later read returns that same read-only array, so a lookup or a
        singles rate pays for no 2201-point rebuild; the bits are those of
        the ``np.linspace`` call. The cache lives outside the dataclass
        fields: ``==`` and ``hash`` are unchanged, and
        ``dataclasses.replace`` gives a grid that builds its own array.
        """
        w = np.linspace(self.center - 0.5 * self.span,
                        self.center + 0.5 * self.span, self.points)
        w.flags.writeable = False
        return w

    @property
    def step(self):
        return self.span / (self.points - 1)


@dataclass(frozen=True)
class CrystalProfile:
    """Coupling kappa(w) [1/mm] and wave-vector mismatch delta_k(w) [1/mm]
    sampled on a FrequencyGrid, plus the crystal length in mm.

    Pair generation couples ``w`` with ``w_p - w`` through a single
    interaction term, so both profiles must be symmetric under that
    conjugation; ``propagate_envelopes`` rejects profiles that are not.
    """

    kappa: np.ndarray
    delta_k: np.ndarray
    length: float

    def __post_init__(self):
        object.__setattr__(self, "kappa", read_only_copy(self.kappa, complex))
        object.__setattr__(self, "delta_k", read_only_copy(self.delta_k, float))
        if self.kappa.ndim != 1 or self.delta_k.ndim != 1:
            raise ConfigurationError("kappa and delta_k must be 1-d samples")
        if self.kappa.shape != self.delta_k.shape:
            raise ConfigurationError("kappa and delta_k sample counts differ")
        if self.length <= 0:
            raise ConfigurationError("crystal length must be positive")

    @classmethod
    def constant(cls, grid: FrequencyGrid, kappa0, delta_k0, length):
        """Uniform profile over the whole grid (the analytically solvable case)."""
        n = grid.points
        return cls(np.full(n, kappa0, dtype=complex),
                   np.full(n, float(delta_k0)), float(length))


@dataclass(frozen=True)
class SpectralAmplitudes:
    """Transfer functions A(w), B(w) of the crystal output field.

    ``a``/``b`` are complex samples on ``grid``; ``a0``/``b0`` are the
    flat-band constants used by the closed-form coincidence model. A purely
    flat-band instance (``grid is None``) carries only the constants.
    """

    a0: complex
    b0: complex
    grid: FrequencyGrid | None = None
    a: np.ndarray | None = field(default=None, repr=False)
    b: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.grid is None) != (self.a is None) or (self.a is None) != (self.b is None):
            raise ConfigurationError("sampled amplitudes need grid, a and b together")
        if self.a is not None:
            object.__setattr__(self, "a", read_only_copy(self.a, complex))
            object.__setattr__(self, "b", read_only_copy(self.b, complex))
            if len(self.a) != self.grid.points or len(self.b) != self.grid.points:
                raise ConfigurationError("amplitude sample counts do not match grid")

    @classmethod
    def flat(cls, a0, b0):
        """Flat-band shortcut: A and B treated as constant near the slit."""
        return cls(a0=complex(a0), b0=complex(b0))

    @property
    def is_flat(self):
        return self.grid is None

    def a_at(self, omega):
        """A(w) by linear interpolation (constant a0 for flat instances);
        one complex ``np.interp`` call, see ``_interp``."""
        if self.is_flat:
            return np.full_like(np.asarray(omega, dtype=float), self.a0, dtype=complex)
        return self._interp(self.a, omega)

    def b_at(self, omega):
        """B(w) by linear interpolation (constant b0 for flat instances);
        one complex ``np.interp`` call, see ``_interp``."""
        if self.is_flat:
            return np.full_like(np.asarray(omega, dtype=float), self.b0, dtype=complex)
        return self._interp(self.b, omega)

    def _interp(self, values, omega):
        """Linear interpolation of complex ``values`` at ``omega``.

        One complex ``np.interp`` call: numpy's complex kernel finds each
        bracket once and applies the real kernel's slope formula to the real
        and imaginary parts, so the result is bit-equal to interpolating
        ``values.real`` and ``values.imag`` separately, at one bracket
        search and no copies of the samples. On 12,000 sorted points of the
        2201-point sampled-tier grid that is 0.16 ms against the split
        form's 0.52-0.57 ms (shared 2-vCPU x86-64 host, numpy 2.4.6, best
        of 7). Points up to 1e-9 beyond the grid ends take the end values;
        points further out, and NaN, raise DomainError. An empty ``omega``
        gives an empty complex array.
        """
        omega = np.asarray(omega, dtype=float)
        if omega.size == 0:
            return np.empty(omega.shape, dtype=complex)
        grid_w = self.grid.omegas
        if not (grid_w[0] - 1e-9 <= omega.min() and omega.max() <= grid_w[-1] + 1e-9):
            raise DomainError("requested frequency lies outside the amplitude grid")
        return np.interp(omega, grid_w, values)

    def covers(self, lo, hi):
        """True when [lo, hi] lies inside the sampled grid (always for flat)."""
        if self.is_flat:
            return True
        w = self.grid.omegas
        return w[0] <= lo and hi <= w[-1]

    def __eq__(self, other):
        if not isinstance(other, SpectralAmplitudes):
            return NotImplemented
        if self.a0 != other.a0 or self.b0 != other.b0 or self.grid != other.grid:
            return False
        if self.is_flat and other.is_flat:
            return True
        if self.is_flat != other.is_flat:
            return False
        return bool(np.array_equal(self.a, other.a) and np.array_equal(self.b, other.b))

    def __hash__(self):
        # hash(0.0) == hash(-0.0) for the constants, and values_hash folds
        # -0.0 in the samples
        if self.is_flat:
            return hash((self.a0, self.b0))
        return hash((self.a0, self.b0, self.grid, values_hash(self.a), values_hash(self.b)))

    def unitarity_residual(self):
        """max over samples of | |A|^2 - |B|^2 - 1 | (flat: uses a0, b0)."""
        if self.is_flat:
            return abs(abs(self.a0) ** 2 - abs(self.b0) ** 2 - 1.0)
        res = np.abs(np.abs(self.a) ** 2 - np.abs(self.b) ** 2 - 1.0)
        return float(res.max())

    def symmetry_residual(self):
        """max over conjugate pairs of |A(w)B(w_p-w) - B(w)A(w_p-w)|."""
        if self.is_flat:
            return 0.0
        rev_a = self.a[::-1]
        rev_b = self.b[::-1]
        return float(np.abs(self.a * rev_b - self.b * rev_a).max())


def _compose(x, y):
    """(I + X)(I + Y) - I for 2x2 matrices of the form [[p, q], [conj q, conj p]].

    Each matrix is held by its small part: I + X is stored as the pair
    (p - 1, q) of arrays over conjugate pairs. Composing the small parts,
    never the full p, keeps the digits of an increment near the identity.
    """
    a, f = x
    b, g = y
    return (a + b + a * b + f * np.conj(g), f + g + a * g + f * np.conj(b))


def propagate_envelopes(profile: CrystalProfile, grid: FrequencyGrid,
                        steps: int = DEFAULT_STEPS) -> SpectralAmplitudes:
    """Amplitudes at z=L of ``steps`` fixed steps of classical RK4 from z=0.

    Each conjugate pair (w, w_p - w) evolves under a 2x2 system whose
    fundamental solution starts at the identity (A=1, B=0). With
    u = (alpha, conj beta) it reads u' = M(z) u, M(z) = [[0, c], [conj c, 0]],
    c = i kappa exp(i delta_k z). RK4 evaluates the mismatch exponential at
    the substep midpoints, so the z-dependent coefficient does not degrade
    its fourth-order accuracy. Every pair is solved once and both grid
    entries filled, which makes the cross-symmetry constraint exact by
    construction.

    The premise is that kappa and delta_k depend on frequency only, so the
    coefficients of each pair are constant in z apart from the phase. Then
    M(z) = D(z) M(0) D(-z) with D(z) = diag(exp(i delta_k z/2),
    exp(-i delta_k z/2)), the RK4 step map from z is P(z) = D(z) P(0) D(-z),
    and the ``steps`` steps multiply out to u_N = D(L) (D(-h) P(0))^N e1.
    P(0) - I is one step of the RK4 stage arithmetic from (1, 0), and the
    power is taken by repeated squaring, O(log2 steps) array operations in
    place of ``steps`` RK4 steps. Every factor has the form
    [[p, q], [conj q, conj p]] and is held as I + E, with D(-h) - I from
    ``expm1``; squaring the full matrices instead drifts by about 1e-13.
    Against the step-by-step loop the amplitudes agree within 4e-15 at 256
    steps and within 2e-14 at 1000 and 4096 steps on the 401-point
    reference crystal, the size of the loop's own unitarity residual there.
    At 256 steps, 2201 points take 0.6-0.75 ms instead of the loop's
    27-45 ms (shared 2-vCPU x86-64 host, best of 30 calls, several runs).

    Raises ConfigurationError for unpaired grids or asymmetric profiles,
    DomainError when the amplitudes overflow or are large enough that
    rounding alone (about 4 eps max|A|^2) exceeds the unitarity limit 1e-6
    and a bound on the exact solution allows that, and ConvergenceError
    when the unitarity residual after integration exceeds that limit
    otherwise (increase ``steps``).
    """
    if steps < 16:
        raise ConfigurationError("propagation needs at least 16 RK4 steps")
    n = grid.points
    if len(profile.kappa) != n:
        raise ConfigurationError("profile sample count does not match grid")

    kap = profile.kappa
    dk = profile.delta_k
    scale_k = max(1.0, float(np.abs(kap).max()))
    scale_d = max(1.0, float(np.abs(dk).max()))
    if (np.abs(kap - kap[::-1]).max() > _SYMMETRY_RTOL * scale_k
            or np.abs(dk - dk[::-1]).max() > _SYMMETRY_RTOL * scale_d):
        raise ConfigurationError(
            "kappa and delta_k must be symmetric under w -> w_p - w "
            "(a single interaction term couples each conjugate pair)")

    half = (n + 1) // 2
    idx = np.arange(half)
    i_kap = 1j * kap[idx]
    i_dk = 1j * dk[idx]
    h = profile.length / steps

    def derivative(c, y):
        # rows (alpha, beta): alpha' = c conj(beta), beta' = c conj(alpha)
        return c * np.conj(y[::-1])

    with np.errstate(over="ignore", invalid="ignore"):
        y = np.zeros((2, half), dtype=complex)
        y[0] = 1.0
        c_mid = i_kap * np.exp(i_dk * (0.5 * h))
        k1 = derivative(i_kap, y)
        k2 = derivative(c_mid, y + 0.5 * h * k1)
        k3 = derivative(c_mid, y + 0.5 * h * k2)
        k4 = derivative(i_kap * np.exp(i_dk * h), y + h * k3)
        e, f = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)   # P(0) - I
        d = np.expm1(-0.5 * h * i_dk)                        # D(-h) - I
        factor = (d + e + d * e, f + d * f)                  # D(-h) P(0) - I
        power = None
        remaining = steps
        while True:
            if remaining & 1:
                power = factor if power is None else _compose(power, factor)
            remaining >>= 1
            if not remaining:
                break
            factor = _compose(factor, factor)
        phase = np.exp(0.5 * profile.length * i_dk)          # D(L)
        alpha = phase * (1.0 + power[0])
        beta = phase * power[1]

        a = np.empty(n, dtype=complex)
        b = np.empty(n, dtype=complex)
        a[idx] = alpha
        a[n - 1 - idx] = alpha
        b[idx] = beta
        b[n - 1 - idx] = beta

        finite = bool(np.isfinite(a).all() and np.isfinite(b).all())
        a_sq = np.abs(a) ** 2
        peak = float(a_sq.max())
        rounding = 4.0 * np.finfo(float).eps
        if not finite or rounding * peak > _UNITARITY_HARD_LIMIT:
            # |B| <= |kappa| L cosh(g L), g^2 = |kappa|^2 - (delta_k/2)^2 clipped
            # at 0, bounds the constant-coefficient solution on both branches;
            # below the limit, the blow-up is RK4's, not the crystal's
            length = profile.length
            g = np.sqrt(np.maximum(np.abs(kap) ** 2 - 0.25 * dk ** 2, 0.0))
            bound = float((1.0 + (np.abs(kap) * length * np.cosh(g * length)) ** 2).max())
            reached = f"|A|^2 reaches {peak:.3e}" if finite else "the amplitudes overflow"
            if rounding * bound <= _UNITARITY_HARD_LIMIT:
                raise ConvergenceError(
                    f"{reached} after integration, where the exact solution stays "
                    f"below {bound:.3e}; increase steps")
            gain = float(np.abs(kap).max()) * length
            raise DomainError(
                f"{reached} at max |kappa|*L = {gain:.4g}, where rounding alone "
                f"exceeds the unitarity limit {_UNITARITY_HARD_LIMIT:.0e}")
        residual = np.abs(a_sq - np.abs(b) ** 2 - 1.0).max()
    if residual > _UNITARITY_HARD_LIMIT:
        raise ConvergenceError(
            f"unitarity residual {residual:.3e} after integration; increase steps")

    mid = n // 2
    return SpectralAmplitudes(a0=a[mid], b0=b[mid], grid=grid, a=a, b=b)


def analytic_amplitudes(kappa0, delta_k0, length):
    """Closed-form (A0, B0) for constant coupling and mismatch.

    The gain parameter is g = sqrt(|kappa0|^2 - (delta_k/2)^2); the solution
    switches continuously between the hyperbolic and trigonometric branches
    as g^2 changes sign, with the g -> 0 limit taken by series. Serves as
    the regression oracle for ``propagate_envelopes``.
    """
    kappa0 = complex(kappa0)
    delta_k0 = float(delta_k0)
    length = float(length)
    g_sq = abs(kappa0) ** 2 - 0.25 * delta_k0 ** 2
    g = np.sqrt(complex(g_sq))
    gl = g * length
    if abs(gl) < 1e-8:
        # sinh(gL)/g and cosh(gL) by series; keeps the g -> 0 limit smooth
        sinhc = length * (1.0 + gl * gl / 6.0)
        cosh_gl = 1.0 + gl * gl / 2.0
    else:
        sinhc = np.sinh(gl) / g
        cosh_gl = np.cosh(gl)
    phase = np.exp(0.5j * delta_k0 * length)
    a0 = phase * (cosh_gl - 0.5j * delta_k0 * sinhc)
    b0 = phase * (1j * kappa0 * sinhc)
    return complex(a0), complex(b0)


def amplitudes_from_rate(r2_measured, filter2):
    """Back out flat-band (A0, B0) from a measured singles rate in channel 2.

    Inverts the flat-band singles-rate expression
    ``R2 = |B0|^2 / (4 pi) * integral |H2|^2`` for |B0| and applies the
    commutator-preserving condition |A0|^2 - |B0|^2 = 1 for |A0|. Phases are
    set to zero: the coincidence model only involves |A0 B0|^2 and |B0|^2.
    """
    if r2_measured <= 0:
        raise DomainError("measured rate must be positive")
    h2_integral = filter2.intensity_integral()
    if h2_integral <= 0:
        raise DomainError("filter 2 must have positive transmission (alpha > 0)")
    b0_sq = 4.0 * np.pi * float(r2_measured) / h2_integral
    b0 = np.sqrt(b0_sq)
    # a0 from the rounded b0 keeps |A0|^2-|B0|^2 = 1 exact under serialization
    a0 = np.sqrt(1.0 + b0 * b0)
    return complex(a0), complex(b0)
