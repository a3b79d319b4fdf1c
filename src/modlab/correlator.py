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
validate`` reports a relative RMS of 6.6e-15 on fig4a). With sampled
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

FWHM_CONVENTIONS = ("intensity", "field")
CLIPPING_MESSAGE = ("delta samples beyond the modulator truncation support; "
                    "paired term set to zero")


def _square(x) -> float:
    """``x ** 2`` as a Python float, inf where Python's ``**`` would raise
    ``OverflowError``; numpy calls the same C ``pow``, so the bits agree."""
    with np.errstate(over="ignore"):
        return float(np.float64(x) ** 2)


@dataclass(frozen=True)
class GaussianFilter:
    """Monochromator response H = alpha*exp[-2 ln2 w^2 / fwhm^2] at offset w.

    ``fwhm`` is the FWHM of the intensity response |H|^2; ``intensity_filter``
    converts a width quoted for H itself. ``slit`` is the output slit
    position in mm, selecting the center frequency ``dispersion * slit``.
    ``alpha`` is the dimensionless field transmission scale absorbing losses
    and detector efficiency.
    """

    fwhm: float
    alpha: float
    slit: float
    dispersion: float

    def __post_init__(self):
        # negated comparisons so that NaN fails them too
        if not self.fwhm > 0:
            raise ConfigurationError("filter FWHM must be positive")
        if not self.alpha >= 0:
            raise ConfigurationError("filter transmission scale must be nonnegative")
        if not self.dispersion > 0:
            raise ConfigurationError("dispersion must be positive")
        # Python floats square to inf without an overflow warning
        sigma = float(self.intensity_sigma())
        halfwidth = float(self.passband_halfwidth())
        if not (sigma * sigma < np.inf and halfwidth * halfwidth < np.inf):
            raise ConfigurationError(
                f"filter FWHM {self.fwhm!r} is too large: its squared passband "
                "half-width overflows")
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
        """H at ``offset`` from the slit center frequency, formed in one new buffer."""
        offset = np.asarray(offset, dtype=float)
        # One buffer, not alpha * exp(-offset**2 / (4 sigma^2)) as an
        # expression, which holds the offsets, their square and the exp result
        # at once. With the expression (same bits) the sampled_tier benchmark
        # peaked at 39.29-39.43 MB of RSS against 38.86-39.00 MB (4 runs each,
        # 2-vCPU x86-64 host).
        h = np.square(offset, out=np.empty(offset.shape))
        np.negative(h, out=h)
        np.divide(h, 4.0 * self.intensity_sigma() ** 2, out=h)
        np.exp(h, out=h)
        np.multiply(self.alpha, h, out=h)
        return h[()]

    def intensity_response(self, offset):
        sig = self.intensity_sigma()
        return self.alpha ** 2 * np.exp(-np.asarray(offset, dtype=float) ** 2 / (2.0 * sig ** 2))

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
        return self.peak * np.exp(-np.asarray(offset, dtype=float) ** 2 / (2.0 * self.sigma ** 2))

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

    ``total = paired + accidental`` pointwise; ``n_index`` is the sideband
    window each sample falls in. Samples whose |n_index| lies beyond the
    truncated sideband support have a paired term of zero.
    """

    delta_axis: np.ndarray
    paired: np.ndarray
    accidental: np.ndarray
    total: np.ndarray
    n_index: np.ndarray

    def chunk(self, start, stop):
        """Rows ``start:stop`` as a trace of their own (views, not copies)."""
        return CorrelationTrace(
            delta_axis=self.delta_axis[start:stop], paired=self.paired[start:stop],
            accidental=self.accidental[start:stop], total=self.total[start:stop],
            n_index=self.n_index[start:stop])


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


@stages.timed("singles")
def singles_rate(amps, mod, filt: GaussianFilter, convention: str = "intensity") -> float:
    """Monochromator count rate: (1/4pi) sum_k |q_k|^2 int |B(w-k w_m)|^2 |H|^2 dw.

    Integrals run over the filter passband, center +- 4 intensity FWHM.

    Sampled amplitudes: for each sideband k the passband, shifted into B's
    frequency, is split at the amplitude-grid nodes inside it, and every
    piece gets a 3-point Gauss-Legendre rule. ``b_at`` interpolates
    linearly, so |B|^2 is a quadratic on each piece and the Gaussian |H|^2
    is smooth across it; the rule then converges to round-off. The pieces
    of all sidebands are built at once and looked up in a single ``b_at``
    call; each sideband's rule is then summed over its own pieces, in k
    order.

    Flat-band amplitudes: the sideband shifts drop out and the rate reduces
    to |B0|^2/(4pi) times the filter's intensity integral (the coefficients
    sum to one). That integral stays on adaptive Simpson, refined
    breadth-first with one vectorised ``intensity_response`` call per
    level: the written traces print the accidental floor to 15 digits, and
    the rule's floats are those of the former scalar recursion, so every
    CSV stays byte-identical. A transmission scale so large that the rule
    overflows raises ``DomainError``; a |B0| whose square overflows gives inf.

    ``convention`` goes to ``intensity_filter`` on entry; modlab itself
    passes intensity FWHMs, and the parameter stays because the benchmark's
    tracer reads it by name.
    """
    filt = intensity_filter(filt, convention)
    center = filt.center
    width = filt.passband_halfwidth()
    powers = np.abs(mod.coeffs) ** 2

    if amps.is_flat:
        b0_sq = _square(abs(amps.b0))
        peak = _square(filt.alpha)
        atol = 1e-12 * max(peak, 1e-300) * 2.0 * width
        try:
            # an overflow anywhere in the rule raises here instead of warning
            with np.errstate(over="raise", invalid="raise"):
                integral = adaptive_simpson(
                    lambda w: filt.intensity_response(w - center),
                    center - width, center + width, atol)
        except FloatingPointError as exc:
            raise DomainError(
                f"singles rate overflows: transmission scale alpha^2 = {peak:g} "
                "is too large") from exc
        return b0_sq / (4.0 * np.pi) * integral * float(powers.sum())

    keep = ~(powers < _NEGLIGIBLE_WEIGHT)
    ks, ps = mod.k_values[keep], powers[keep]
    if not len(ks):
        return 0.0
    shifts = ks * mod.omega_m
    los, his = center - width - shifts, center + width - shifts
    nodes = amps.grid.omegas
    uncovered = ~((nodes[0] <= los) & (his <= nodes[-1]))
    if uncovered.any():
        raise DomainError(
            f"filter passband shifted by sideband k={ks[uncovered.argmax()]} lies outside "
            "the amplitude grid")
    # the passband of sideband j is split at nodes first[j]..stop[j]-1, the
    # nodes strictly inside it, into counts[j] pieces; piece i of sideband j
    # runs from node first[j]+i-1 (lo for i = 0) to node first[j]+i (hi last)
    first = np.searchsorted(nodes, los, side="right")
    stop = np.searchsorted(nodes, his, side="left")
    counts = stop - first + 1
    ends = np.cumsum(counts)
    owner = np.repeat(np.arange(len(ks)), counts)
    piece = np.arange(ends[-1]) - (ends - counts)[owner]
    node = first[owner] + piece
    left = np.where(piece == 0, los[owner], nodes[node - 1])
    right = np.where(piece == counts[owner] - 1, his[owner], nodes[node])
    half = 0.5 * (right - left)
    x = (left + half)[:, None] + half[:, None] * _GL3_NODES
    f = (np.abs(amps.b_at(x)) ** 2
         * filt.intensity_response(x + shifts[owner][:, None] - center))
    total = 0.0
    for p, start, end in zip(ps, ends - counts, ends):
        total += p * float(half[start:end] @ (f[start:end] @ _GL3_WEIGHTS))
    return total / (4.0 * np.pi)


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
    from here; the fit takes the trace and its slope.

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
                                total=paired + accidental, n_index=n_idx)

    def slope(self, delta):
        """d(paired)/d(delta) inside the windows (the floor is constant)."""
        _, _, c, u = self.window(delta)
        return c * self.h2(u) * u / self.h2.sigma ** 2


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
    of a 2*10^4-row one, and a 10^7-row ``scan`` peaks at 38.2 MB of RSS,
    a 10^5-row one at 37.5 MB.
    """

    model: SidebandModel
    delta_axis: UniformAxis

    def chunk(self, start, stop) -> CorrelationTrace:
        return self.model.evaluate(self.delta_axis[start:stop])


def _omega_offsets(scenario):
    """Frequency-offset grid of the full tier: resolves both filters."""
    f_min = min(scenario.filter1.fwhm, scenario.filter2.fwhm)
    sigma_max = max(scenario.filter1.intensity_sigma(), scenario.filter2.intensity_sigma())
    half = 0.5 * scenario.omega_m + 8.0 * sigma_max
    step = f_min / 40.0
    n = int(np.ceil(2.0 * half / step)) + 1
    return np.linspace(-half, half, n)


@stages.timed("full_tier")
def coincidence_full(scenario, delta_axis) -> CorrelationTrace:
    """Full-model coincidence rate from the pair amplitude, by Parseval's theorem.

    For each sample in window n, the weighted pair amplitude
    g(u) = summed_n(u) H1(u) H2(n w_m - delta - u), with
    summed_n(u) = sum_k q_k r_{n-k} A(c1 + u - k w_m) B(w_p - c1 - u + k w_m),
    is built on the internal frequency-offset grid of spacing du. ``summed``
    holds one row per distinct window n of the unclipped samples: one
    product of the (n, k) weights q_k r_{n-k} with the (k, u) amplitude
    grid. Sampled and flat-band amplitudes take the same product, since
    ``a_at`` and ``b_at`` give flat amplitudes as constant samples; the
    k-sum then equals A0 B0 s_n to round-off. ``summed`` times H1 is formed
    once; g is then built one window at a time, for that window's samples
    only, and reduced to its row sums before the next window. Every row
    goes through the floating-point operations of a row-by-row evaluation,
    so the paired column keeps its bits, and no (rows x u) array is held for
    the whole axis. Under ``tracemalloc`` a first call on the
    sampled-amplitude test crystal, model build included, peaks at 1.14 MB
    over 301 rows and 2.65 MB over 1201 rows; built for all rows at once, g
    took these to 3.42 and 12.4 MB.

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
    omega_m = scenario.omega_m
    amps = scenario.amplitudes
    c1 = scenario.filter1.center

    model = scenario.model
    n_idx, clipped, _, _ = model.window(delta)
    kept = ~clipped
    distinct, which = np.unique(n_idx[kept], return_inverse=True)

    u = _omega_offsets(scenario)
    du = u[1] - u[0]

    q, r = scenario.mod1, scenario.mod2
    shift = q.k_values[:, None] * omega_m
    a_freq = c1 + u - shift
    b_freq = scenario.pump_frequency - c1 - u + shift
    if not (amps.covers(a_freq.min(), a_freq.max())
            and amps.covers(b_freq.min(), b_freq.max())):
        raise DomainError(
            f"sidebands k=-{q.k_max}..{q.k_max} need amplitudes outside the sampled grid")
    # r_{n-k}, zero beyond channel 2's support
    j = distinct[:, None] - q.k_values + r.k_max
    r_nk = np.where((j >= 0) & (j < len(r.coeffs)),
                    r.coeffs[np.clip(j, 0, len(r.coeffs) - 1)], 0.0)
    summed = (q.coeffs * r_nk) @ (amps.a_at(a_freq) * amps.b_at(b_freq))

    weighted = summed * scenario.filter1.field_response(u)
    rows = np.flatnonzero(kept)
    paired = np.zeros_like(delta)
    for w, (n, weighted_n) in enumerate(zip(distinct, weighted)):
        at = rows[which == w]
        xi = n * omega_m - delta[at]
        g = weighted_n * scenario.filter2.field_response(xi[:, None] - u)
        paired[at] = (du / (8.0 * np.pi)) * np.sum(np.square(np.abs(g)), axis=1)
    accidental_arr = np.full_like(delta, model.accidental)
    return CorrelationTrace(delta_axis=delta, paired=paired,
                            accidental=accidental_arr, total=paired + accidental_arr,
                            n_index=n_idx)


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

    areas = {}
    for n in np.unique(n_idx):
        areas[int(n)] = step * float(trace.paired[n_idx == n].sum())
    return areas
