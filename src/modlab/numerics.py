"""Small numerical helpers: adaptive Simpson quadrature and read-only copies.

The integrands in this package are smooth Gaussian-type profiles for
which adaptive Simpson converges quickly. Its one caller is the flat-band
branch of ``correlator.singles_rate`` (the filter's truncated intensity
integral, over offsets from the filter center). The sampled amplitudes'
singles rate uses a fixed Gauss-Legendre rule instead, and
``checks.h2_errors`` a uniform sum.

The integrand takes and returns float64 arrays. The rule is refined
breadth-first: the new midpoints of all panels still open at one level
are evaluated in a single integrand call, and the accepted panels are
folded back in the order the classic recursion adds them, so the result
is bit-identical to recursive scalar Simpson with the same acceptance
test. A non-finite integrand value fails at once instead of refining
until the depth limit.
"""

import numpy as np

from .errors import ConvergenceError

_MAX_DEPTH = 48
_MAX_PANELS = 1 << 18     # panels per level; bounds memory where nothing converges
_CHILD_POINTS = np.array([[0, 2], [1, 3], [2, 4]])    # [point of child, left/right]


def adaptive_simpson(f, a, b, atol):
    """Integrate ``f`` over [a, b] to absolute tolerance ``atol``.

    ``f`` takes a 1-D float64 array of abscissae and returns the integrand
    at each of them, as an array of the same shape. Simpson panels with
    Richardson acceptance: [a, b] starts as eight panels, so narrow
    features near the midpoint are not missed by the first test, each with
    tolerance ``atol / 8``. A panel of width h with end and mid values f0,
    fm, f1 has ``whole = h*(f0 + 4*fm + f1)/6``; its halves ``left`` and
    ``right`` use 0.5*h. It is accepted when
    ``|left + right - whole| <= 15*tol`` and is then worth
    ``left + right + err/15``; otherwise it splits into two panels with
    half the tolerance.

    Every level evaluates the new midpoints of all open panels in one call
    of ``f``. The sum is formed bottom-up as the recursion forms it (two
    children add to their parent, the eight top panels add left to right
    from 0.0), so the value is bit-identical to the recursive rule.

    Raises ConvergenceError when a panel is still open after 48 halvings,
    when the next level would hold more than 2^18 panels, or at once when any
    integrand value is not finite (such a panel could never be accepted).
    Returns 0.0 when ``b <= a``.
    """
    if b <= a:
        return 0.0
    n0 = 8
    h = (b - a) / n0
    x0 = a + np.arange(n0) * h
    x1 = x0 + h
    x = np.stack((x0, 0.5 * (x0 + x1), x1))
    # panel state: [abscissae, values] x [start, middle, end] x panel
    panels = np.stack((x, _evaluate(f, x.ravel()).reshape(x.shape)))
    tol = atol / n0
    levels = []         # (accepted mask, accepted values) per level
    for depth in range(_MAX_DEPTH + 1):
        (x0, xm, x1), (f0, fm, f1) = panels
        quarters = 0.5 * (panels[0, :2] + panels[0, 1:])
        f_quarters = _evaluate(f, quarters.ravel()).reshape(quarters.shape)
        fl, fr = f_quarters
        h = x1 - x0
        whole = h * (f0 + 4.0 * fm + f1) / 6.0
        left = 0.5 * h * (f0 + 4.0 * fl + fm) / 6.0
        right = 0.5 * h * (fm + 4.0 * fr + f1) / 6.0
        err = left + right - whole
        done = np.abs(err) <= 15.0 * tol
        levels.append((done, left + right + err / 15.0))
        if done.all():
            break
        if depth == _MAX_DEPTH:
            raise ConvergenceError("adaptive Simpson quadrature hit maximum recursion depth")
        open_ = ~done
        if 2 * np.count_nonzero(open_) > _MAX_PANELS:
            raise ConvergenceError(
                f"adaptive Simpson quadrature needs more than {_MAX_PANELS} panels at one level")
        # five points per open panel, then each panel becomes its left child
        # (points 0, 1, 2) followed by its right child (points 2, 3, 4)
        five = np.empty((2, 5, np.count_nonzero(open_)))
        five[:, 0::2] = panels[..., open_]
        five[0, 1::2] = quarters[:, open_]
        five[1, 1::2] = f_quarters[:, open_]
        panels = five[:, _CHILD_POINTS].swapaxes(2, 3).reshape(2, 3, -1)
        tol = 0.5 * tol

    values = None
    for done, accepted in reversed(levels):
        if values is not None:
            accepted[~done] = values[0::2] + values[1::2]
        values = accepted
    total = 0.0
    for value in values.tolist():
        total += value
    return total


def _evaluate(f, x):
    y = np.asarray(f(x), dtype=float)
    if not np.isfinite(y).all():
        raise ConvergenceError("adaptive Simpson quadrature met a non-finite integrand value")
    return y


def read_only_copy(values, dtype):
    """A read-only copy of ``values`` as ``dtype``. The frozen value types
    hold their arrays this way, so neither a holder nor the caller who
    passed the array in can change one in place."""
    copy = np.array(values, dtype=dtype)
    copy.flags.writeable = False
    return copy


def values_hash(values):
    """A hash of an array's shape and values that agrees with
    ``np.array_equal``: adding 0.0 turns every -0.0 into 0.0 before the
    bytes are hashed, so arrays equal by value hash equal. Arrays holding
    NaN are unequal even to themselves and need no agreement."""
    return hash((values.shape, (values + 0.0).tobytes()))
