"""Small numerical helpers: adaptive Simpson quadrature.

Kept dependency-free on purpose; the integrands in this package are smooth
Gaussian-type profiles for which recursive Simpson converges quickly.
The remaining callers are the flat-band branch of
``correlator.singles_rate`` (the filter's truncated intensity integral)
and ``cli._validate_h2`` (the numeric lineshape oracle). The sampled
amplitudes' singles rate uses a fixed Gauss-Legendre rule instead.
"""

from .errors import ConvergenceError

_MAX_DEPTH = 48


def adaptive_simpson(f, a, b, atol):
    """Integrate ``f`` over [a, b] to absolute tolerance ``atol``.

    ``f`` must accept a float and return a float. Classic recursive
    Simpson with Richardson acceptance; the initial interval is split
    into eight panels so narrow features near the midpoint are not
    missed by the first acceptance test.
    """
    if b <= a:
        return 0.0
    n0 = 8
    h = (b - a) / n0
    total = 0.0
    for i in range(n0):
        x0 = a + i * h
        x1 = x0 + h
        xm = 0.5 * (x0 + x1)
        total += _simpson_panel(f, x0, xm, x1, f(x0), f(xm), f(x1), atol / n0, _MAX_DEPTH)
    return total


def _simpson_rule(h, f0, fm, f1):
    return h * (f0 + 4.0 * fm + f1) / 6.0


def _simpson_panel(f, x0, xm, x1, f0, fm, f1, atol, depth):
    h = x1 - x0
    whole = _simpson_rule(h, f0, fm, f1)
    xl = 0.5 * (x0 + xm)
    xr = 0.5 * (xm + x1)
    fl = f(xl)
    fr = f(xr)
    left = _simpson_rule(0.5 * h, f0, fl, fm)
    right = _simpson_rule(0.5 * h, fm, fr, f1)
    err = left + right - whole
    if abs(err) <= 15.0 * atol:
        return left + right + err / 15.0
    if depth <= 0:
        raise ConvergenceError("adaptive Simpson quadrature hit maximum recursion depth")
    return (_simpson_panel(f, x0, xl, xm, f0, fl, fm, 0.5 * atol, depth - 1)
            + _simpson_panel(f, xm, xr, x1, fm, fr, f1, 0.5 * atol, depth - 1))
