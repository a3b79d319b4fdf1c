"""Experiment parameter bundles, figure presets, synthetic data and fitting.

The four preset cases reproduce the nonlocal-modulation measurement: both
modulators off, one sinusoidal modulator at depth 1.5 rad, and two equal
modulators driven in phase or in phase opposition. Instrument defaults
follow the reference apparatus: 30 GHz drive, 8.5 GHz monochromator FWHM,
210 GHz/mm dispersion, 1.25 ns coincidence gate, 532 nm pump. The
flat-band constants come
from a stand-in average channel-2 singles rate, inverted exactly the way
the experiment calibrates them, and put the unmodulated correlation peak
near 1000 counts per 20 s dwell. ``build_scenario`` is the one builder
of a scenario from ``[scenario]`` values: each preset is a table of them,
and ``figure_preset``, ``reference_scenario`` and every config file build
through it.

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
from .correlator import GaussianFilter, SidebandModel, intensity_filter
from .errors import ConfigurationError, DomainError
from .modulation import ModulatorSpectrum, coeffs_from_waveform, sinusoidal_coeffs
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


# slit at the degenerate spectrum center, mm
_REFERENCE_SLIT = (0.5 * REFERENCE_PUMP_FREQUENCY) / REFERENCE_DISPERSION
# the reference instrument's [scenario] values, in config-file order: the keys
# an explicit scenario must give
_REFERENCE_VALUES = {
    "pump_frequency": REFERENCE_PUMP_FREQUENCY, "modulation_frequency": REFERENCE_OMEGA_M,
    "gate": REFERENCE_GATE_NS, "dispersion": REFERENCE_DISPERSION,
    "b0": amplitudes_from_rate(PRESET_R2_RATE, GaussianFilter(
        fwhm=REFERENCE_FILTER_FWHM, alpha=math.sqrt(REFERENCE_ALPHA2_SQ),
        slit=_REFERENCE_SLIT, dispersion=REFERENCE_DISPERSION))[1].real,
    "filter1_fwhm": REFERENCE_FILTER_FWHM, "filter1_alpha_sq": REFERENCE_ALPHA1_SQ,
    "filter2_fwhm": REFERENCE_FILTER_FWHM, "filter2_alpha_sq": REFERENCE_ALPHA2_SQ,
}
# the values an explicit scenario may leave out: intensity FWHMs and
# undriven modulators; a slit left out sits at the degenerate spectrum center
SCENARIO_DEFAULTS = {"fwhm_convention": "intensity", "mod1_depth": 0.0, "mod1_phase": 0.0,
                     "mod2_depth": 0.0, "mod2_phase": 0.0}
# each measured case's drives; fig4b drives fig4a's modulators in opposition
_CASE_DRIVES = {"fig3a": {}, "fig3b": {"mod1_depth": REFERENCE_DEPTH},
                "fig4a": {"mod1_depth": REFERENCE_DEPTH, "mod2_depth": REFERENCE_DEPTH}}
_CASE_DRIVES["fig4b"] = {**_CASE_DRIVES["fig4a"], "mod2_phase": math.pi}
FIGURE_CASES = tuple(_CASE_DRIVES)
# a preset's values hold its slits, in mm, so that a dispersion or pump given
# over it keeps them
_PRESETS = {case: {**SCENARIO_DEFAULTS, **_REFERENCE_VALUES, "filter1_slit": _REFERENCE_SLIT,
                   "filter2_slit": _REFERENCE_SLIT, **drives}
            for case, drives in _CASE_DRIVES.items()}


def build_scenario(items) -> ExperimentScenario:
    """The scenario of the ``[scenario]`` values ``items``, keyed as in a
    config file, with a waveform given as its phase samples.

    With ``preset``, the values start from the preset's (the reference
    instrument, the case's drives and the slits at its center, in mm) and
    ``items`` replace them; without it, ``items`` must give every key of
    ``_REFERENCE_VALUES`` and ``SCENARIO_DEFAULTS`` fill what it leaves out.
    This is the one place that states how values become a scenario: a slit
    left out sits at the degenerate frequency, (pump / 2) / dispersion; a
    filter's alpha is the square root of its ``alpha_sq``; |A0| is
    sqrt(1 + |B0|^2), both phases zero; ``fwhm_convention`` applies to the
    widths ``items`` gives, while a preset's own widths are intensity
    FWHMs; and a modulator with a waveform is driven by it, not by its
    depth. Every error is a ``ValueError`` of the package, and one of the
    filters or of the scenario as a whole reads ``invalid scenario: ...``.
    """
    if "preset" in items:
        if items["preset"] not in _PRESETS:
            raise ConfigurationError(
                f"unknown figure case {items['preset']!r}; expected one of {FIGURE_CASES}")
        params = {**_PRESETS[items["preset"]], **items}
    else:
        missing = [key for key in _REFERENCE_VALUES if key not in items]
        if missing:
            raise ConfigurationError(
                "explicit scenario is missing required keys: " + ", ".join(missing))
        params = {**SCENARIO_DEFAULTS, **items}
    pump, dispersion = params["pump_frequency"], params["dispersion"]
    # a zero dispersion, like a negative one, is refused when the filters are built
    center_slit = (0.5 * pump) / dispersion if dispersion else 0.0
    omega_m = params["modulation_frequency"]
    mod1, mod2 = (
        coeffs_from_waveform(params[f"{ch}_waveform"], omega_m) if f"{ch}_waveform" in params
        else sinusoidal_coeffs(params[f"{ch}_depth"], params[f"{ch}_phase"], omega_m)
        for ch in ("mod1", "mod2"))
    b0 = params["b0"]
    try:
        filter1, filter2 = (intensity_filter(
            GaussianFilter(fwhm=params[f"{ch}_fwhm"], alpha=math.sqrt(params[f"{ch}_alpha_sq"]),
                           slit=params.get(f"{ch}_slit", center_slit), dispersion=dispersion),
            params["fwhm_convention"] if f"{ch}_fwhm" in items else "intensity")
            for ch in ("filter1", "filter2"))
        return ExperimentScenario(
            pump_frequency=pump, amplitudes=SpectralAmplitudes.flat(math.sqrt(1.0 + b0 * b0), b0),
            mod1=mod1, mod2=mod2, filter1=filter1, filter2=filter2,
            gate_ns=params["gate"], dispersion=dispersion)
    except ValueError as exc:
        raise ConfigurationError(f"invalid scenario: {exc}") from exc


def scenario_params(scenario: ExperimentScenario) -> dict:
    """The ``[scenario]`` values of a flat-band scenario with sinusoidal
    drives, in config-file order, that ``build_scenario`` rebuilds it from."""
    return {
        "pump_frequency": scenario.pump_frequency,
        "modulation_frequency": scenario.omega_m,
        "gate": scenario.gate_ns,
        "dispersion": scenario.dispersion,
        # every GaussianFilter holds an intensity FWHM
        "fwhm_convention": "intensity",
        "b0": abs(scenario.amplitudes.b0),
        "mod1_depth": scenario.mod1.depth, "mod1_phase": scenario.mod1.drive_phase,
        "mod2_depth": scenario.mod2.depth, "mod2_phase": scenario.mod2.drive_phase,
        "filter1_fwhm": scenario.filter1.fwhm,
        "filter1_alpha_sq": scenario.filter1.alpha ** 2,
        "filter1_slit": scenario.filter1.slit,
        "filter2_fwhm": scenario.filter2.fwhm,
        "filter2_alpha_sq": scenario.filter2.alpha ** 2,
        "filter2_slit": scenario.filter2.slit,
    }


def reference_scenario(depth1: float, depth2: float,
                       phase1: float = 0.0, phase2: float = 0.0) -> ExperimentScenario:
    """Scenario with the reference instrument parameters and given drives."""
    return build_scenario({**_REFERENCE_VALUES, "mod1_depth": depth1, "mod1_phase": phase1,
                           "mod2_depth": depth2, "mod2_phase": phase2})


def figure_preset(case: str) -> ExperimentScenario:
    """One of the four measured configurations.

    fig3a: both modulators off. fig3b: channel 1 at depth 1.5 rad.
    fig4a: both at 1.5 rad, same phase. fig4b: both at 1.5 rad, opposite
    phase.
    """
    return build_scenario({"preset": case})


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
    objective_history: tuple = field(repr=False)

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

    A dwell and counts whose products overflow, or whose model products all
    underflow to zero, raise ``DomainError`` naming the dwell and the
    largest count, instead of a fit of nan or zero scales. So does a
    positive, finite product that the configured ratio alpha1^2 / alpha2^2
    splits into a per-channel scale of 0 or inf; the error names both
    configured transmissions.
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
        try:
            # an overflow raises here instead of warning; so does a model
            # whose every squared product underflowed to zero
            with np.errstate(over="raise", invalid="raise"):
                m = r * dwell
                denom = float(m @ m)
                if denom == 0 and np.any(r):
                    raise FloatingPointError("underflow")
                scale = max(float(m @ y) / denom, 0.0) if denom > 0 else 0.0
                resid = dwell * scale * r - y
                seen.append((float(resid @ resid), scale, off))
        except FloatingPointError as exc:
            raise DomainError(f"fit leaves the floating-point range: dwell {dwell!r} s, "
                              f"largest count {float(y.max())!r}") from exc
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
    split = (float(np.sqrt(scale * ratio)), float(np.sqrt(scale / ratio)) if ratio > 0 else 0.0)
    if 0 < scale < math.inf and not all(0 < a < math.inf for a in split):
        raise DomainError(f"fitted product {scale!r} splits into a per-channel scale of 0 or "
                          f"inf at configured alpha1^2 = {a1_sq!r} and alpha2^2 = {a2_sq!r}")

    return FitResult(
        *split,
        delta_offset=float(off),
        residual_rms=float(np.sqrt(f_best / len(y))),
        iterations=_GOLDEN_STEPS,
        objective_history=tuple(history))
