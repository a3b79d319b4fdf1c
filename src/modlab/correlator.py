"""Singles rates and frequency-domain coincidence traces.

Two model tiers are provided. ``coincidence_trace`` samples the
closed-form ``SidebandModel``, which ``LazyTrace`` pairs with an axis for
evaluation a slice at a time: within the window around the n-th sideband
the paired rate is ``c_n * H2(n w_m - delta)``, where ``H2`` is the
convolution of the two monochromators' intensity responses and ``c_n``
weighs the composed modulator coefficient ``s_n``. ``coincidence_full``
rebuilds the paired rate from the pair amplitude on a frequency-offset
grid: one k-sum over the channel-1 sidebands k of q_k r_{n-k} A B serves
sampled and flat-band amplitudes alike, so it composes the two
modulators itself instead of reading ``s_n``. It is not yet an independent
oracle for the closed form: both tiers keep only the nearest sideband
window, so on flat-band scenarios they agree to round-off (``modlab
validate`` reports a relative RMS of 6.4e-15 on fig4a). With sampled
amplitudes the gain varies across sidebands and the tiers differ, by at
most a percent on the reference crystal. The closed form assumes filters
narrow compared to the modulation frequency and wide compared to the
inverse gate; the reference parameters exceed those margins by factors of
about 3.5 and 11.

Both tiers share the accidental floor ``R1 * R2 * T`` from uncorrelated
detections inside the gate. Absolute rates inherit an arbitrary source
normalization; only the fitted transmission scales make them counts per
second, exactly as in an experiment.

Frequencies are ordinary GHz. The paired rate is the delay integral of the
squared pair kernel, which ``coincidence_full`` evaluates as the equivalent
frequency sum (Parseval's theorem), so no delay grid is built. The gate
width is quoted in ns and enters only the accidental term.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import stages
from .errors import ConfigurationError, DomainError, ResolutionError
from .modulation import compose_nonlocal
from .numerics import adaptive_simpson

_TWO_SQRT_2LN2 = 2.0 * np.sqrt(2.0 * np.log(2.0))
_PASSBAND_FWHMS = 4.0        # integration half-width in units of intensity FWHM
_NEGLIGIBLE_WEIGHT = 1e-30
# 3-point Gauss-Legendre rule on [-1, 1]: exact for polynomials up to degree 5
_GL3_NODES = np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
_GL3_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 9.0
_INT64_LIMIT = 2.0 ** 63
_MIN_WINDOW_SAMPLES = 24     # samples an interior window needs in sideband_areas
# points of the full tier's offset grid; a kernel block of the full tier
# holds at most _KERNEL_BLOCK_POINTS floats (128 kB), so at this limit one
# distinct row offset, and its (offset x window) table one float per
# distinct row offset and window
MAX_OFFSET_POINTS = 2 ** 14
_KERNEL_BLOCK_POINTS = 2 ** 14

FWHM_CONVENTIONS = ("intensity", "field")
CLIPPING_MESSAGE = ("delta samples beyond the modulator truncation support; "
                    "paired term set to zero")


def _square(x) -> float:
    """``x ** 2`` as a Python float, inf where Python's ``**`` would raise
    ``OverflowError``; numpy calls the same C ``pow``, so the bits agree."""
    with np.errstate(over="ignore"):
        return float(np.float64(x) ** 2)


def _gaussian(offset, peak, d):
    """``peak * exp(-offset**2 / d)``, formed in one new buffer.

    The square, negation, division, exp and product run in place, in the
    order of the plain expression, so the bits are the expression's. Only
    the square's overflow is silenced: a far-tail offset squares to inf and
    gives exactly 0, while the caller's error state still covers the rest.
    """
    offset = np.asarray(offset, dtype=float)
    with np.errstate(over="ignore"):
        h = np.square(offset, out=np.empty(offset.shape))
    np.negative(h, out=h)
    np.divide(h, d, out=h)
    np.exp(h, out=h)
    np.multiply(peak, h, out=h)
    return h[()]


@dataclass(frozen=True)
class GaussianFilter:
    """Monochromator response H = alpha*exp[-2 ln2 w^2 / fwhm^2] at offset w.

    ``fwhm`` is the FWHM of the intensity response |H|^2; ``intensity_filter``
    converts a width quoted for H itself. ``slit`` is the output slit
    position in mm, selecting the center frequency ``dispersion * slit``.
    ``alpha`` is the dimensionless field transmission scale absorbing losses
    and detector efficiency.

    Each field is held as a Python float, so numpy scalars behave as floats
    do. ``ConfigurationError`` refuses a FWHM that is not positive, whose
    squared passband half-width overflows or whose squared intensity sigma
    is subnormal (below about 3.5e-154 GHz, where the squared offsets of
    the responses are a staircase), a negative alpha or one whose square
    overflows, a dispersion that is not positive, and a slit whose center
    frequency does not resolve the passband.
    """

    fwhm: float
    alpha: float
    slit: float
    dispersion: float

    def __post_init__(self):
        # Python floats, which square and multiply to inf without an overflow warning
        for name in ("fwhm", "alpha", "slit", "dispersion"):
            object.__setattr__(self, name, float(getattr(self, name)))
        # negated comparisons so that NaN fails them too
        if not self.fwhm > 0:
            raise ConfigurationError("filter FWHM must be positive")
        if not self.alpha >= 0:
            raise ConfigurationError("filter transmission scale must be nonnegative")
        if not self.alpha * self.alpha < math.inf:
            raise ConfigurationError(f"filter transmission scale alpha = {self.alpha!r} is "
                                     "too large: its square overflows")
        if not self.dispersion > 0:
            raise ConfigurationError("dispersion must be positive")
        halfwidth = self.passband_halfwidth()
        if not halfwidth * halfwidth < math.inf:
            raise ConfigurationError(
                f"filter FWHM {self.fwhm!r} is too large: its squared passband "
                "half-width overflows")
        # below the normal range the squared offsets of the responses are a staircase
        if not self.intensity_sigma() ** 2 >= np.finfo(float).smallest_normal:
            raise ConfigurationError(
                f"filter FWHM {self.fwhm:g} GHz is too narrow: its squared width is subnormal")
        center = self.center
        if not (math.isfinite(center) and center - halfwidth != center
                and center + halfwidth != center):
            raise ConfigurationError(
                f"filter slit {self.slit!r} mm is off scale: its center frequency "
                f"{center:g} GHz does not resolve the {halfwidth:g} GHz passband half-width")

    @property
    def center(self) -> float:
        return self.dispersion * self.slit

    def intensity_sigma(self) -> float:
        return self.fwhm / _TWO_SQRT_2LN2

    def field_response(self, offset):
        """H at ``offset`` from the slit center frequency."""
        return _gaussian(offset, self.alpha, 4.0 * self.intensity_sigma() ** 2)

    def intensity_response(self, offset):
        """|H|^2 at ``offset`` from the slit center frequency."""
        return _gaussian(offset, self.alpha ** 2, 2.0 * self.intensity_sigma() ** 2)

    def intensity_integral(self) -> float:
        """integral of |H|^2 over frequency, closed form."""
        return self.alpha ** 2 * self.intensity_sigma() * np.sqrt(2.0 * np.pi)

    def passband_halfwidth(self) -> float:
        return _PASSBAND_FWHMS * self.fwhm


def intensity_filter(filt: GaussianFilter, convention: str) -> GaussianFilter:
    """``filt`` with its quoted FWHM read per ``convention``, the one place that
    knows what a convention means: "intensity" (the FWHM of |H|^2, as
    ``GaussianFilter.fwhm`` holds it) returns ``filt``, "field" (the FWHM of
    H, sqrt(2) wider) returns it narrowed by sqrt(2)."""
    if convention not in FWHM_CONVENTIONS:
        raise ConfigurationError(
            f"unknown FWHM convention {convention!r}; expected one of {FWHM_CONVENTIONS}")
    if convention == "field":
        return replace(filt, fwhm=filt.fwhm / math.sqrt(2.0))
    return filt


@dataclass(frozen=True)
class H2Profile:
    """Convolution of two filters' intensity responses: a Gaussian lineshape."""

    peak: float
    sigma: float

    def __call__(self, offset):
        return _gaussian(offset, self.peak, 2.0 * self.sigma ** 2)

    @property
    def fwhm(self) -> float:
        return _TWO_SQRT_2LN2 * self.sigma


def h2_profile(filter1: GaussianFilter, filter2: GaussianFilter) -> H2Profile:
    """Sideband lineshape |H1|^2 * |H2|^2 (Gaussian convolution, analytic).

    Variances add, so for two equal filters the result's FWHM is sqrt(2)
    times the individual intensity FWHM; the peak equals the zero-shift
    overlap integral of the two intensity responses.
    """
    s1, s2 = filter1.intensity_sigma(), filter2.intensity_sigma()
    sigma = np.sqrt(s1 ** 2 + s2 ** 2)
    peak = (filter1.alpha ** 2 * filter2.alpha ** 2
            * np.sqrt(2.0 * np.pi) * s1 * s2 / sigma)
    return H2Profile(peak=peak, sigma=sigma)


@dataclass(frozen=True)
class CorrelationTrace:
    """Sampled coincidence rate versus relative frequency delta.

    ``total`` is ``paired + accidental`` pointwise; ``n_index`` is the sideband
    window each sample falls in. Samples whose |n_index| lies beyond the
    truncated sideband support have a paired term of zero.
    """

    delta_axis: np.ndarray
    paired: np.ndarray
    accidental: np.ndarray
    n_index: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.paired + self.accidental

    def chunk(self, start, stop):
        """Rows ``start:stop`` as a trace of their own (views, not copies)."""
        return CorrelationTrace(
            delta_axis=self.delta_axis[start:stop], paired=self.paired[start:stop],
            accidental=self.accidental[start:stop], n_index=self.n_index[start:stop])


def sideband_index(delta, omega_m):
    """Window index n = floor(delta/w_m + 1/2); exact half-points round up.

    Raises ``DomainError`` when n is not finite or |n| reaches 2^63, where
    the cast to int64 would wrap.
    """
    delta = np.asarray(delta, dtype=float)
    with np.errstate(over="ignore"):   # an infinite quotient is refused below
        n = np.floor(delta / omega_m + 0.5)
    if n.size and not (-_INT64_LIMIT < n.min() and n.max() < _INT64_LIMIT):
        raise DomainError(
            f"delta axis [{delta.min():g}, {delta.max():g}] GHz is beyond the range of "
            f"sideband indices at modulation frequency {omega_m:g} GHz")
    return n.astype(int)


def _kept_sidebands(mod):
    """Mask of the sidebands k of ``mod`` that the singles rates and the
    full tier sum over: those with |q_k|^2 not below ``_NEGLIGIBLE_WEIGHT``."""
    return ~(np.abs(mod.coeffs) ** 2 < _NEGLIGIBLE_WEIGHT)


@stages.timed("singles")
def singles_rate(amps, mod, filt: GaussianFilter, convention: str = "intensity") -> float:
    """Monochromator count rate: (1/4pi) sum_k |q_k|^2 int |B(w-k w_m)|^2 |H|^2 dw.

    Integrals run over the filter passband, center +- 4 intensity FWHM.

    Sampled amplitudes: every kept sideband k is integrated over offsets y
    from its shifted center c_k = center - k w_m, so the abscissae of |H|^2
    do not carry the 2.8e5 GHz center, where one ulp is 5.8e-11 GHz. The
    offsets lie on one regular lattice of step h = step / ceil(3 step /
    FWHM), at most FWHM/3 and a whole fraction of the grid step, through
    the offset of the first grid node inside the passband (+4 FWHM when
    there is none), and so through every node in it; clipped to the
    passband, each piece gets a 3-point Gauss-Legendre rule. ``b_at``
    interpolates linearly, so |B|^2 is a quadratic between nodes, and the
    lattice must break at them. It must also be regular: a composite Gauss
    rule on a Gaussian reaches round-off only on a regular lattice, the
    effect that makes the trapezoid rule exponentially convergent there
    (L. N. Trefethen and J. A. C. Weideman, SIAM Rev. 56, 385 (2014)). With
    constant B on the 0.5 GHz grid the error against the closed form is at
    most 8.9e-16 for 200 FWHMs from 1e-3 to 30 GHz at 4 slit offsets; on
    the propagated test crystal it is at most 6.6e-13 against the exact
    Gaussian moments of the interpolant, at FWHM 0.5 GHz with the slit on a
    node. The lattices of all sidebands are rows of one array, looked up in
    a single ``b_at`` call and summed in one product over sidebands. Only
    a passband off the grid, or a grid step whose ratio to the FWHM
    overflows, raises ``DomainError``.

    Flat-band amplitudes: the sideband shifts drop out and the rate reduces
    to |B0|^2/(4pi) times the filter's intensity integral (the coefficients
    sum to one). That integral is adaptive Simpson over offsets from the
    filter center, -4 FWHM to +4 FWHM, refined breadth-first with one
    vectorised ``intensity_response`` call per level. The abscissae do not
    carry the center frequency, so the rate depends on the width and
    transmission alone, bit for bit, whatever the slit, dispersion or pump,
    and no passband is too narrow against its center for the rule's
    tolerance. The rule's floats are those of the scalar recursion over
    the same offsets. A transmission scale so large that the rule
    overflows raises ``DomainError``; a |B0| whose square overflows gives
    inf.

    ``convention`` goes to ``intensity_filter`` on entry; modlab itself
    passes intensity FWHMs, and the parameter stays because the benchmark's
    tracer reads it by name.
    """
    filt = intensity_filter(filt, convention)
    width = filt.passband_halfwidth()
    powers = np.abs(mod.coeffs) ** 2

    if amps.is_flat:
        b0_sq = _square(abs(amps.b0))
        peak = filt.alpha ** 2
        atol = 1e-12 * max(peak, 1e-300) * 2.0 * width
        try:
            # an overflow anywhere in the rule raises here instead of warning
            with np.errstate(over="raise", invalid="raise"):
                integral = adaptive_simpson(filt.intensity_response, -width, width, atol)
        except FloatingPointError as exc:
            raise DomainError(
                f"singles rate overflows: transmission scale alpha^2 = {peak:g} "
                "is too large") from exc
        return b0_sq / (4.0 * np.pi) * integral * float(powers.sum())

    keep = _kept_sidebands(mod)
    ks, ps = mod.k_values[keep], powers[keep]
    if not len(ks):
        return 0.0
    step = amps.grid.step
    # an overflow to inf is harmless: that passband is off the grid, or that
    # lattice step is 0, and both are refused below
    with np.errstate(over="ignore"):
        centers = filt.center - ks * mod.omega_m
        h = step / np.ceil(3.0 * step / filt.fwhm)
    nodes = amps.grid.omegas
    uncovered = ~((nodes[0] <= centers - width) & (centers + width <= nodes[-1]))
    if uncovered.any():
        raise DomainError(
            f"filter passband shifted by sideband k={ks[uncovered.argmax()]} lies outside "
            "the amplitude grid")
    if not h > 0:
        raise DomainError(f"amplitude-grid step {step:g} GHz is too coarse for filter FWHM "
                          f"{filt.fwhm:g} GHz: their ratio overflows")
    # row j holds the breaks of sideband j: offsets from its shifted center on
    # the lattice through its first node inside the passband, clipped to it
    anchor = np.minimum(nodes[np.searchsorted(nodes, centers - width)] - centers, width)
    below, above = np.ceil((anchor + width) / h), np.ceil((width - anchor) / h)
    y = np.clip(anchor[:, None] + h * np.arange(-below.max(), above.max() + 1), -width, width)
    half = 0.5 * np.diff(y)
    x = (y[:, :-1] + half)[..., None] + half[..., None] * _GL3_NODES
    f = np.abs(amps.b_at(centers[:, None, None] + x)) ** 2 * filt.intensity_response(x)
    return float(ps @ (half * (f @ _GL3_WEIGHTS)).sum(axis=1)) / (4.0 * np.pi)


class SidebandModel:
    """Closed-form sideband model of one scenario.

    Within the window around the n-th sideband the paired rate is
    ``c_n * H2(n w_m - delta)`` with ``c_n = |A0 B0 s_n|^2 / (8 pi)``, where
    ``s_n`` are the composed modulator coefficients and ``H2`` the two
    filters' lineshape; the accidental floor ``R1 * R2 * T`` is constant.
    Samples with |n| beyond the composed support (see ``clips``) get
    ``c_n = 0``. A floor, peak paired rate or sum that is not finite raises
    ``DomainError`` naming |B0|, the gate or the transmission scales. Both
    trace tiers take the coefficients, the floor and the window lookup
    from here, and the fit takes the trace.

    There is one model per scenario: ``ExperimentScenario.model`` builds it
    on first use and keeps it, so the two singles rates of a scenario are
    integrated once however many traces are taken from it.
    """

    @stages.timed("model")
    def __init__(self, scenario):
        amps = scenario.amplitudes
        self.s = compose_nonlocal(scenario.mod1, scenario.mod2)
        self.n_max = self.s.k_max
        self.omega_m = scenario.omega_m
        r1 = singles_rate(amps, scenario.mod1, scenario.filter1)
        r2 = singles_rate(amps, scenario.mod2, scenario.filter2)
        self.accidental = r1 * r2 * scenario.gate_ns * 1e-9
        self.h2 = h2_profile(scenario.filter1, scenario.filter2)
        # checked once here for both trace tiers and the fit, in Python floats
        # (which overflow to inf without a warning); an infinite floor or peak
        # would otherwise be written as inf in every row
        amp_factor = _square(abs(amps.a0 * amps.b0)) / (8.0 * np.pi)
        if not amp_factor < np.inf:
            raise DomainError(
                f"coincidence rates overflow: |B0| = {abs(amps.b0):g} is too large")
        self.c_table = amp_factor * np.abs(self.s.coeffs) ** 2
        if math.isfinite(float(r1) * float(r2)) and not math.isfinite(self.accidental):
            raise DomainError(
                f"coincidence rates overflow: gate {scenario.gate_ns:g} ns is too large "
                "for the accidental floor R1 * R2 * T")
        peak = float(self.c_table.max()) * float(self.h2.peak)
        if not math.isfinite(float(self.accidental) + peak):
            raise DomainError(
                "coincidence rates overflow: transmission scales alpha1^2 = "
                f"{scenario.filter1.alpha ** 2:g} and alpha2^2 = "
                f"{scenario.filter2.alpha ** 2:g} with |B0| = "
                f"{abs(amps.b0):g} are too large")

    def window(self, delta):
        """Per sample: window index n, clipped mask, weight c_n and offset n w_m - delta."""
        delta = np.asarray(delta, dtype=float)
        n = sideband_index(delta, self.omega_m)
        clipped = np.abs(n) > self.n_max
        c = np.where(clipped, 0.0, self.c_table[np.clip(n + self.n_max, 0, 2 * self.n_max)])
        return n, clipped, c, n * self.omega_m - delta

    def clips(self, delta):
        """Whether any sample of ``delta`` lies beyond the composed support.

        n = floor(delta/w_m + 1/2) is monotone in delta, so the smallest and
        the largest sample decide; a ``UniformAxis`` is monotone too, so its
        two end samples are read without building it. ``sideband_index``
        raises ``DomainError`` for them when n does not fit in int64.
        """
        if not len(delta):
            return False
        if isinstance(delta, UniformAxis):
            ends = [delta[0], delta[-1]]
        else:
            delta = np.asarray(delta, dtype=float)
            ends = [delta.min(), delta.max()]
        n = sideband_index(np.array(ends), self.omega_m)
        return bool((np.abs(n) > self.n_max).any())

    @stages.timed("trace")
    def evaluate(self, delta) -> CorrelationTrace:
        """The closed-form trace at the samples ``delta``.

        Every column is computed sample by sample, so evaluating a slice of
        an axis gives the same slice of the whole axis's trace, bit for bit.
        """
        delta = np.asarray(delta, dtype=float)
        n_idx, _, c, u = self.window(delta)
        paired = c * self.h2(u)
        accidental = np.full_like(delta, self.accidental)
        return CorrelationTrace(delta_axis=delta, paired=paired, accidental=accidental,
                                n_index=n_idx)


def coincidence_trace(scenario, delta_axis) -> CorrelationTrace:
    """Closed-form coincidence rate versus delta (the flat-band model).

    ``SidebandModel.evaluate`` over the whole axis at once. Samples beyond
    the composed coefficients' support get a zero paired term, not an
    error; ``scenario.model.clips(delta_axis)`` tells whether any do, and
    ``n_index`` which.
    """
    return scenario.model.evaluate(delta_axis)


@dataclass(frozen=True)
class UniformAxis:
    """The axis ``start + step * i`` for ``i`` in ``range(length)``, never held whole.

    Indexing builds only what it is asked for, with the float operation of
    the materialised axis ``start + step * np.arange(length)``, so it gives
    the same bits: a slice ``[lo:hi]`` is ``start + step * np.arange(lo, hi)``
    and an integer index, negative ones included, the matching float.
    ``np.asarray`` builds the whole axis.
    """

    start: float
    step: float
    length: int

    def __len__(self):
        return self.length

    def __getitem__(self, index):
        # range resolves negative indices and slices, and raises IndexError
        picked = range(self.length)[index]
        if isinstance(picked, int):
            return self.start + self.step * picked
        return self.start + self.step * np.arange(picked.start, picked.stop, picked.step)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self[:], dtype=dtype)


@dataclass(frozen=True)
class LazyTrace:
    """The closed-form trace of ``model`` on ``delta_axis``, evaluated on demand.

    Only the model and the axis are held, and a ``UniformAxis`` is three
    numbers. ``chunk(start, stop)`` builds rows ``start:stop`` of the axis
    and evaluates them with ``SidebandModel.evaluate``, the evaluator behind
    ``coincidence_trace``, so each chunk equals the same rows of the full
    trace bit for bit and no full-length column, the axis included, is ever
    built. Memory therefore does not depend on the row count: under
    ``tracemalloc`` an in-process 2*10^5-row ``scan`` peaks within 0.01 MB
    of a 2*10^4-row one, and read with ``os.wait4`` a 10^7-row ``scan``
    peaks at 35.67 MB of RSS, a 10^5-row one at 36.28 MB.
    """

    model: SidebandModel
    delta_axis: UniformAxis

    def chunk(self, start, stop) -> CorrelationTrace:
        return self.model.evaluate(self.delta_axis[start:stop])


def _omega_offsets(scenario):
    """Frequency-offset grid of the full tier: filter 1's support at a step
    that resolves both filters.

    Every term of g carries H1(u), so the grid spans +-8 sigma_1 (intensity
    sigma of filter 1), whatever the modulation frequency. Beyond it
    |H1|^2 <= alpha_1^2 e^-32, so the dropped tail of |g|^2 is at most
    e^-32 ~ 1.3e-14 of its peak. The step is FWHM_min/40, which gives 273
    points for equal filters. On the sampled-amplitude test crystal this
    grid and the former +-(w_m/2 + 8 sigma_max) one, both discretizations
    of the same sum, give paired rates within 1.02e-9 of the peak (3.0e-16
    on the flat-band presets).

    Raises ``DomainError`` when the grid would need more than
    ``MAX_OFFSET_POINTS`` points: the count grows as 272 FWHM_1/FWHM_min.
    """
    fwhm1, fwhm2 = scenario.filter1.fwhm, scenario.filter2.fwhm
    half = 8.0 * float(scenario.filter1.intensity_sigma())
    step = min(fwhm1, fwhm2) / 40.0
    intervals = 2.0 * half / step       # Python floats: inf, not an error, on overflow
    count = math.ceil(intervals) + 1 if math.isfinite(intervals) else math.inf
    if count > MAX_OFFSET_POINTS:
        raise DomainError(
            f"filter FWHMs {fwhm1:g} and {fwhm2:g} GHz need a full-tier offset grid of "
            f"{count:.0f} points, more than the limit of {MAX_OFFSET_POINTS}")
    return np.linspace(-half, half, count)


@stages.timed("full_tier")
def coincidence_full(scenario, delta_axis) -> CorrelationTrace:
    """Full-model coincidence rate from the pair amplitude, by Parseval's theorem.

    For each sample in window n, the weighted pair amplitude
    g(u) = summed_n(u) H1(u) H2(n w_m - delta - u), with
    summed_n(u) = sum_k q_k r_{n-k} A(c1 + u - k w_m) B(w_p - c1 - u + k w_m),
    is built on the internal frequency-offset grid of spacing du. ``summed``
    holds one row per distinct window n of the unclipped samples: one
    product of the (n, k) weights q_k r_{n-k} with the (k, u) amplitude
    grid, over the sidebands k that channel 1's singles rate keeps
    (|q_k|^2 >= 1e-30). Building the model runs that singles rate, which
    checks that the amplitude grid holds each kept sideband's passband,
    c1 - k w_m +- 4 FWHM_1. That contains the A lookups at +-8 sigma_1, and
    the grid's symmetry about half its pump mirrors them onto the B
    lookups when the scenario has the grid's pump; a lookup off the grid
    still raises ``DomainError`` in ``a_at`` or ``b_at``. Sampled and
    flat-band amplitudes take the same product, since ``a_at`` and ``b_at``
    give flat amplitudes as constant samples; the k-sum then equals
    A0 B0 s_n to round-off.

    H2 is real, so |g(u)|^2 = |W_n(u)|^2 |H2(xi - u)|^2 exactly, with
    W_n = summed_n H1 and xi = n w_m - delta. |W_n|^2 is formed once per
    window, and the real kernel |H2(xi - u)|^2 (``intensity_response`` of
    filter 2) once per distinct row offset xi, found with ``np.unique``. The
    kernel is built in blocks of at most ``_KERNEL_BLOCK_POINTS`` (2^14)
    floats, and each block goes through one real matrix product with the
    |W_n|^2 rows into an (offset x window) table of row sums, whose
    (xi, n) entry each kept row reads. An axis whose step divides w_m
    repeats its offsets: ``checks.TIER_AXIS`` has 30 in 301 rows, so the
    kernel takes a tenth of the points of one row per sample. Against the
    row-by-row sum of the complex |g|^2, the paired column differs by at
    most 4.3e-16 of its peak on the four presets, ``out_of_regime.cfg``
    and the sampled-amplitude test crystal, on that axis and on a
    1201-row axis whose offsets do not repeat.

    No (rows x u) array is held for the whole axis, and the kernel's memory
    does not grow with the axis. Under ``tracemalloc`` a first call on the
    sampled-amplitude test crystal, model build included, peaks at
    0.52 MiB over 301 rows and 0.65 MiB over 1201 rows of repeating
    offsets, and at 0.75 MiB over 1201 and 1.97 MiB over 10^4 rows whose
    offsets do not repeat. Building the complex g one window at a time
    instead peaks at 0.81, 1.78, 1.78 and 11.28 MiB, and a kernel built
    without blocks at 5.39 and 43.3 MiB on the two non-repeating axes.

    Samples beyond the composed support get a zero paired term, as in
    ``coincidence_trace``; ``scenario.model.clips`` reports them.

    The delay kernel F(tau) = du/(4 pi) sum_u g(u) exp(i u tau) is periodic
    with period 2 pi/du, so the delay integral of |F|^2 over one period is
    exactly du/(8 pi) sum_u |g(u)|^2, which is the paired rate. The gate is
    long compared to the kernel decay, so the paired integral is ungated;
    the gate enters only the accidental floor. The sum matches the former
    4096-point delay transform integrated by the trapezoid rule to 6.5e-15
    relative on flat-band scenarios and 1.3e-13 on sampled amplitudes.
    """
    delta = np.asarray(delta_axis, dtype=float)
    amps = scenario.amplitudes
    c1 = scenario.filter1.center

    model = scenario.model
    n_idx, clipped, _, offset = model.window(delta)
    rows = np.flatnonzero(~clipped)
    distinct, which = np.unique(n_idx[rows], return_inverse=True)
    xi, at = np.unique(offset[rows], return_inverse=True)

    u = _omega_offsets(scenario)
    du = u[1] - u[0]

    q, r = scenario.mod1, scenario.mod2
    keep = _kept_sidebands(q)
    ks = q.k_values[keep]
    # an overflow to inf is harmless: flat amplitudes never read the
    # frequencies, and a_at/b_at raise DomainError for an infinite one
    with np.errstate(over="ignore"):
        shift = ks[:, None] * scenario.omega_m
    a_freq = c1 + u - shift
    b_freq = scenario.pump_frequency - c1 - u + shift
    # r_{n-k}, zero beyond channel 2's support
    j = distinct[:, None] - ks + r.k_max
    r_nk = np.where((j >= 0) & (j < len(r.coeffs)),
                    r.coeffs[np.clip(j, 0, len(r.coeffs) - 1)], 0.0)
    summed = (q.coeffs[keep] * r_nk) @ (amps.a_at(a_freq) * amps.b_at(b_freq))

    # |W_n(u)|^2 per window; H2 is real, so |g|^2 = |W_n(u)|^2 |H2(xi - u)|^2
    power = np.square(np.abs(summed * scenario.filter1.field_response(u)))
    table = np.empty((len(xi), len(distinct)))
    block = max(1, _KERNEL_BLOCK_POINTS // len(u))
    for lo in range(0, len(xi), block):
        kernel = scenario.filter2.intensity_response(xi[lo:lo + block, None] - u)
        np.matmul(kernel, power.T, out=table[lo:lo + block])
    paired = np.zeros_like(delta)
    paired[rows] = (du / (8.0 * np.pi)) * table[at, which]
    return CorrelationTrace(delta_axis=delta, paired=paired,
                            accidental=np.full_like(delta, model.accidental), n_index=n_idx)


def sideband_areas(trace: CorrelationTrace) -> dict:
    """Integrated paired rate per sideband window, keyed by the index n.

    Windows are the half-open intervals [(n-1/2) w_m, (n+1/2) w_m) already
    encoded in ``n_index``. Every fully covered window sees a congruent set
    of sample offsets, so area ratios between windows are free of
    quadrature bias. Requires a uniform, sufficiently dense delta axis.
    """
    delta = trace.delta_axis
    if len(delta) < 2:
        raise ResolutionError("trace too short to integrate")
    steps = np.diff(delta)
    step = float(steps[0])
    if step <= 0 or (steps.max() - steps.min()) > 1e-9 * abs(step):
        raise ResolutionError("sideband areas need a uniform increasing delta axis")

    n_idx = trace.n_index
    # interior windows must contain enough samples to resolve the lineshape
    boundaries = np.flatnonzero(np.diff(n_idx)) + 1
    if len(boundaries) >= 2:
        run_lengths = np.diff(boundaries)
        if len(run_lengths) and run_lengths.min() < _MIN_WINDOW_SAMPLES:
            raise ResolutionError(
                f"fewer than {_MIN_WINDOW_SAMPLES} samples per sideband window")
    elif len(delta) < _MIN_WINDOW_SAMPLES:
        raise ResolutionError(
            f"fewer than {_MIN_WINDOW_SAMPLES} samples per sideband window")

    # the distinct indices, ascending, by sorting and comparing neighbours:
    # np.unique would import numpy.ma (11-16 ms and 1.3 MB in `validate`)
    ordered = np.sort(n_idx)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    areas = {}
    for n in distinct:
        areas[int(n)] = step * float(trace.paired[n_idx == n].sum())
    return areas
