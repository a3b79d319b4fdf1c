"""Breadth-first adaptive Simpson against the recursive scalar rule.

``adaptive_simpson`` promises the very floats of the depth-first
recursion in ``simpson_reference``, so every comparison here is ``==``.
"""

import math
import time

import numpy as np
import pytest

from modlab import GaussianFilter, SpectralAmplitudes, figure_preset, singles_rate
from modlab.correlator import intensity_filter
from modlab.errors import ConvergenceError
from modlab.numerics import adaptive_simpson

from simpson_reference import recursive_simpson


def _both(f, a, b, atol):
    """(breadth-first on arrays, recursive on scalars) for the array integrand f."""
    return adaptive_simpson(f, a, b, atol), recursive_simpson(lambda x: float(f(x)), a, b, atol)


def test_seeded_gaussian_passbands_match_recursion():
    rng = np.random.default_rng(20081)
    for i in range(24):
        filt = GaussianFilter(fwhm=10 ** rng.uniform(-2.0, 3.0), alpha=rng.uniform(0.1, 2.0),
                              slit=rng.uniform(-5.0, 5.0), dispersion=210.0)
        filt = intensity_filter(filt, ("intensity", "field")[i % 2])
        center = filt.center
        width = filt.passband_halfwidth()
        atol = 10 ** rng.uniform(-13.0, -6.0) * filt.alpha ** 2 * 2.0 * width
        lo = center - width * rng.uniform(0.2, 1.0)
        new, old = _both(lambda w: filt.intensity_response(w - center),
                         lo, center + width, atol)
        assert new == old


@pytest.mark.parametrize("case", ["fig3a", "fig4a"])
@pytest.mark.parametrize("convention", ["intensity", "field"])
def test_flat_singles_rate_matches_recursion(case, convention):
    scn = figure_preset(case)
    amps = SpectralAmplitudes.flat(math.sqrt(2.0), 1.0)
    for quoted, mod in ((scn.filter1, scn.mod1), (scn.filter2, scn.mod2)):
        # the rule runs over offsets from the filter center
        filt = intensity_filter(quoted, convention)
        width = filt.passband_halfwidth()
        atol = 1e-12 * max(filt.alpha ** 2, 1e-300) * 2.0 * width
        integral = recursive_simpson(
            lambda w: float(filt.intensity_response(w)), -width, width, atol)
        expected = (abs(amps.b0) ** 2 / (4.0 * np.pi) * integral
                    * float((np.abs(mod.coeffs) ** 2).sum()))
        assert singles_rate(amps, mod, quoted, convention) == expected


def test_h2_overlap_integrand_matches_recursion():
    f1 = GaussianFilter(fwhm=8.5, alpha=1.0, slit=100.0, dispersion=210.0)
    f2 = GaussianFilter(fwhm=8.5, alpha=1.0, slit=100.0, dispersion=210.0)
    new, old = _both(lambda w: f1.intensity_response(w) * f2.intensity_response(w),
                     -60.0, 60.0, 1e-14)
    assert new == old


def test_kink_refines_deep_at_one_point():
    edge = 1.0 / math.pi
    calls = []

    def kink(x):
        calls.append(np.size(x))
        return np.abs(x - edge)

    new, old = _both(kink, 0.0, 1.0, 1e-12)
    assert new == old
    assert new == pytest.approx(0.5 * edge ** 2 + 0.5 * (1.0 - edge) ** 2, abs=1e-12)
    # one call for the top panels, then one per level with a few open panels
    assert len(calls) > 25
    assert max(calls[1:]) <= 16


def test_step_hits_the_depth_limit_like_the_recursion():
    # a jump's error shrinks with the panel, as fast as the halved tolerance
    # does, so neither rule ever accepts the panel that holds it
    def step(x):
        return np.where(x < 1.0 / 3.0, 0.0, 1.0)

    for rule in (adaptive_simpson, lambda f, *a: recursive_simpson(lambda x: float(f(x)), *a)):
        with pytest.raises(ConvergenceError, match="maximum recursion depth"):
            rule(step, 0.0, 1.0, 1e-9)


def test_empty_or_reversed_interval_is_zero():
    assert adaptive_simpson(np.exp, 1.0, 1.0, 1e-12) == 0.0
    assert adaptive_simpson(np.exp, 2.0, 1.0, 1e-12) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_integrand_fails_fast(bad):
    def f(x):
        return np.where(np.abs(x - 0.3) < 0.05, bad, 1.0)

    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="non-finite"):
        adaptive_simpson(f, 0.0, 1.0, 1e-12)
    # breadth-first refinement of a panel that can never be accepted would
    # double the open panels at each of 48 levels
    assert time.perf_counter() - start < 0.5


def test_panel_cap_stops_an_integrand_that_never_settles():
    # a sawtooth with about 10^7 teeth keeps nearly every panel open until
    # the open count passes the cap, long before the depth limit
    with pytest.raises(ConvergenceError, match="panels"):
        adaptive_simpson(lambda x: np.modf(7654321.123 * x)[0], 0.0, 1.0, 1e-12)
