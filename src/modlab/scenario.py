"""Experiment parameter bundles, figure presets, synthetic data and fitting.

The four preset cases reproduce the nonlocal-modulation measurement: both
modulators off, one sinusoidal modulator at depth 1.5 rad, and two equal
modulators driven in phase or in phase opposition. Instrument defaults
follow the reference apparatus: 30 GHz drive, 8.5 GHz monochromator FWHM,
210 GHz/mm dispersion, 1.25 ns coincidence gate, 532 nm pump. The
flat-band constants come
from a stand-in average channel-2 singles rate, inverted exactly the way
the experiment calibrates them, and put the unmodulated correlation peak
near 1000 counts per 20 s dwell.

Synthetic measurements are independent Poisson draws per delta sample from
a seeded PCG64 generator. Fitting mirrors the reference analysis: only
the two transmission scales and a horizontal offset are free. The scale
enters linearly, so ``fit_scale`` solves for it in closed form at each
offset and searches the offset alone (variable projection: Golub and
Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)): a coarse scan, then a
fixed number of golden-section steps (Brent, *Algorithms for Minimization
without Derivatives*, 1973) on the bracket around the best coarse point. The
coincidence model constrains the transmissions solely through the product
alpha1^2 * alpha2^2 (both the paired and accidental terms carry exactly
that factor), so the fit holds the configured ratio fixed and reports
effective per-channel scales; |B0| likewise stays at its configured value.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import stages
from .correlator import GaussianFilter, SidebandModel
from .errors import ConfigurationError, DomainError
from .modulation import ModulatorSpectrum, sinusoidal_coeffs
from .spdc_core import SpectralAmplitudes, amplitudes_from_rate

# 532 nm cw pump, ordinary frequency
REFERENCE_PUMP_FREQUENCY = 299792458.0 / 532e-9 / 1e9   # GHz
REFERENCE_OMEGA_M = 30.0                                # GHz
REFERENCE_FILTER_FWHM = 8.5                             # GHz
REFERENCE_DISPERSION = 210.0                            # GHz/mm
REFERENCE_GATE_NS = 1.25
REFERENCE_ALPHA1_SQ = 1.20e-2
REFERENCE_ALPHA2_SQ = 5.59e-4
REFERENCE_DEPTH = 1.5                                   # rad
# stand-in average channel-2 singles rate used to set |B0| (counts/s);
# chosen so the unmodulated peak lands near 1e3 counts per 20 s dwell
PRESET_R2_RATE = 2.18

FIGURE_CASES = ("fig3a", "fig3b", "fig4a", "fig4b")

# fit_scale's coarse offsets, and the golden-section steps that shrink the
# bracket of two coarse spacings, 2 * 0.99 w_m / (_COARSE_POINTS - 1), to 1e-12 w_m
_COARSE_POINTS = 121
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = math.ceil(math.log(2 * 0.99 / (_COARSE_POINTS - 1) / 1e-12)
                          / math.log(1.0 / _GOLDEN))


@dataclass(frozen=True)
class ExperimentScenario:
    """Immutable bundle of everything a trace computation needs.

    ``model`` is the scenario's closed-form ``SidebandModel``, built on first
    use and then kept, so both trace tiers, the CLI and the fit share one
    pair of singles integrals. The arrays of the value types it holds
    (amplitudes, modulator coefficients) are read-only copies of their
    inputs, so nothing can change what the cached model was built from;
    ``dataclasses.replace`` gives a new scenario with a model of its own.
    Sampled amplitudes must have been made for the scenario's own pump: the
    full tier reads B at the pump's conjugate frequency, so a grid made for
    another pump is a ``ConfigurationError``.
    """

    pump_frequency: float
    amplitudes: SpectralAmplitudes
    mod1: ModulatorSpectrum
    mod2: ModulatorSpectrum
    filter1: GaussianFilter
    filter2: GaussianFilter
    gate_ns: float
    dispersion: float

    def __post_init__(self):
        if self.mod1.omega_m != self.mod2.omega_m:
            raise ConfigurationError(
                "modulators must share one synchronous drive frequency")
        grid = self.amplitudes.grid
        if grid is not None and grid.pump_frequency != self.pump_frequency:
            raise ConfigurationError(
                f"sampled amplitudes were made for a {grid.pump_frequency!r} GHz pump, "
                f"not the scenario's {self.pump_frequency!r} GHz")
        if not self.gate_ns >= 0:
            raise ConfigurationError("gate width must be nonnegative")
        if not self.dispersion > 0:
            raise ConfigurationError("dispersion must be positive")
        for name, filt in (("filter1", self.filter1), ("filter2", self.filter2)):
            if filt.dispersion != self.dispersion:
                raise ConfigurationError(
                    f"{name} dispersion must match the scenario dispersion")

    @property
    def omega_m(self) -> float:
        return self.mod1.omega_m

    @cached_property
    def model(self) -> SidebandModel:
        return SidebandModel(self)


def reference_scenario(depth1: float = 0.0, depth2: float = 0.0,
                       phase1: float = 0.0, phase2: float = 0.0) -> ExperimentScenario:
    """Scenario with the reference instrument parameters and given drives."""
    # slit at the degenerate spectrum center, mm
    slit = (0.5 * REFERENCE_PUMP_FREQUENCY) / REFERENCE_DISPERSION
    filter1 = GaussianFilter(fwhm=REFERENCE_FILTER_FWHM,
                             alpha=math.sqrt(REFERENCE_ALPHA1_SQ),
                             slit=slit, dispersion=REFERENCE_DISPERSION)
    filter2 = GaussianFilter(fwhm=REFERENCE_FILTER_FWHM,
                             alpha=math.sqrt(REFERENCE_ALPHA2_SQ),
                             slit=slit, dispersion=REFERENCE_DISPERSION)
    a0, b0 = amplitudes_from_rate(PRESET_R2_RATE, filter2)
    return ExperimentScenario(
        pump_frequency=REFERENCE_PUMP_FREQUENCY,
        amplitudes=SpectralAmplitudes.flat(a0, b0),
        mod1=sinusoidal_coeffs(depth1, phase1, REFERENCE_OMEGA_M),
        mod2=sinusoidal_coeffs(depth2, phase2, REFERENCE_OMEGA_M),
        filter1=filter1, filter2=filter2,
        gate_ns=REFERENCE_GATE_NS, dispersion=REFERENCE_DISPERSION)


def figure_preset(case: str) -> ExperimentScenario:
    """One of the four measured configurations.

    fig3a: both modulators off. fig3b: channel 1 at depth 1.5 rad.
    fig4a: both at 1.5 rad, same phase. fig4b: both at 1.5 rad, opposite
    phase.
    """
    if case == "fig3a":
        return reference_scenario(0.0, 0.0)
    if case == "fig3b":
        return reference_scenario(REFERENCE_DEPTH, 0.0)
    if case == "fig4a":
        return reference_scenario(REFERENCE_DEPTH, REFERENCE_DEPTH, 0.0, 0.0)
    if case == "fig4b":
        return reference_scenario(REFERENCE_DEPTH, REFERENCE_DEPTH, 0.0, math.pi)
    raise ConfigurationError(f"unknown figure case {case!r}; expected one of {FIGURE_CASES}")


def synthesize_counts(trace, dwell: float, seed: int) -> np.ndarray:
    """Poisson counts per delta sample for the given dwell time in seconds.

    Independent draws with mean rate*dwell from numpy's seeded PCG64
    generator; a fixed seed reproduces the data bit for bit. A rate and
    dwell whose product passes numpy's Poisson limit raise ``DomainError``,
    which names the peak rate and the dwell.
    """
    if not 0 < dwell < math.inf:
        raise DomainError("dwell time must be positive and finite")
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):   # an infinite mean is refused below
        means = np.maximum(trace.total, 0.0) * float(dwell)
    try:
        return rng.poisson(means)
    except ValueError as exc:
        raise DomainError(
            f"peak coincidence rate {np.max(trace.total):.2g} /s over a dwell of {dwell!r} s "
            f"puts a Poisson mean beyond numpy's limit ({exc})") from exc


@dataclass(frozen=True)
class RegimeReport:
    """Validity margins of the closed-form sideband model."""

    mod_to_filter: float     # drive frequency over intensity FWHM; want > 3
    filter_gate: float       # intensity FWHM (cycles/ns) times gate (ns); want > 10

    @property
    def valid(self) -> bool:
        return self.mod_to_filter > 3.0 and self.filter_gate > 10.0


def regime_report(scenario: ExperimentScenario) -> RegimeReport:
    """Dimensionless ratios behind the narrow-filter / long-gate assumptions."""
    gamma = min(scenario.filter1.fwhm, scenario.filter2.fwhm)
    return RegimeReport(mod_to_filter=scenario.omega_m / gamma,
                        filter_gate=gamma * scenario.gate_ns)


@dataclass(frozen=True)
class FitResult:
    """Scale/offset fit of ``fit_scale``.

    alpha1_sq and alpha2_sq are effective transmissions: the model fixes
    only their product, so the configured ratio between channels is held
    during the fit (and |B0| stays at its configured value).
    """

    alpha1_sq: float
    alpha2_sq: float
    delta_offset: float
    residual_rms: float
    iterations: int
    objective_history: tuple = field(default=(), repr=False)

    @property
    def scale_product(self) -> float:
        return self.alpha1_sq * self.alpha2_sq


@stages.timed("fit")
def fit_scale(delta_axis, counts, scenario: ExperimentScenario, dwell: float) -> FitResult:
    """Least-squares fit of transmission scales and horizontal offset.

    Minimizes sum((dwell * scale * unit_rate(delta - offset) - counts)^2).
    The scale enters linearly, so at each offset its optimum is closed-form
    (clipped at zero), and the objective becomes a profile of the offset
    alone (variable projection). ``_COARSE_POINTS`` offsets spanning 0.99 of
    half a sideband spacing, w_m/2, pick the best coarse point; golden
    section then searches the bracket one coarse step either side of it,
    clipped to +-w_m/2, where the offset is confined to avoid relabeling
    degeneracy. The search runs ``_GOLDEN_STEPS`` steps, a count fixed
    from the bracket's ratio to w_m so that the bracket shrinks to 1e-12 w_m
    whatever w_m is, subnormal included, and keeps the best point it sees.
    On the noiseless fig3b trace at offsets from -2.5 to 14.8 GHz the fit
    recovered the offset to 4.5e-12 GHz and the transmission product to
    3.3e-16 relative. ``iterations`` is the step count and
    ``objective_history`` the best objective after the coarse scan and
    after each step that improved it.
    """
    delta = np.asarray(delta_axis, dtype=float)
    y = np.asarray(counts, dtype=float)
    if len(delta) != len(y):
        raise ConfigurationError("delta axis and counts must have equal length")
    if len(y) < 10:
        raise DomainError("fit needs at least 10 data points")
    if np.any(y < 0):
        raise DomainError("counts must be nonnegative")
    if not 0 < dwell < math.inf:
        raise DomainError("dwell time must be positive and finite")
    a1_sq = scenario.filter1.alpha ** 2
    a2_sq = scenario.filter2.alpha ** 2
    if a1_sq <= 0 or a2_sq <= 0:
        raise DomainError("fit needs positive configured transmissions to split the product")
    ratio = a1_sq / a2_sq

    # the model with the transmission product divided out
    model = replace(scenario, filter1=replace(scenario.filter1, alpha=1.0),
                    filter2=replace(scenario.filter2, alpha=1.0)).model
    off_bound = 0.5 * scenario.omega_m
    seen = []   # (objective, scale, offset) of every offset profiled

    def profile(off):
        """The objective at offset ``off`` with the scale that minimizes it there."""
        r = model.evaluate(delta - off).total
        m = r * dwell
        denom = float(m @ m)
        scale = max(float(m @ y) / denom, 0.0) if denom > 0 else 0.0
        resid = dwell * scale * r - y
        seen.append((float(resid @ resid), scale, off))
        return seen[-1][0]

    grid = np.linspace(-off_bound * 0.99, off_bound * 0.99, _COARSE_POINTS)
    for off in grid:
        profile(off)
    best = min(seen, key=lambda point: point[0])
    spacing = grid[1] - grid[0]
    lo, hi = max(best[2] - spacing, -off_bound), min(best[2] + spacing, off_bound)
    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f1, f2 = profile(x1), profile(x2)
    for _ in range(_GOLDEN_STEPS):
        # keep the part of [lo, hi] on the lower inner point's side
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = profile(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = profile(x2)
    history = [best[0]]
    for point in seen[len(grid):]:
        if point[0] < best[0]:
            best = point
            history.append(best[0])
    f_best, scale, off = best

    return FitResult(
        alpha1_sq=float(np.sqrt(scale * ratio)),
        alpha2_sq=float(np.sqrt(scale / ratio)) if ratio > 0 else 0.0,
        delta_offset=float(off),
        residual_rms=float(np.sqrt(f_best / len(y))),
        iterations=_GOLDEN_STEPS,
        objective_history=tuple(history))
