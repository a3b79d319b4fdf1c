"""The recursive scalar adaptive Simpson rule, kept as a test oracle.

``modlab.numerics.adaptive_simpson`` refines breadth-first over arrays and
promises the same floats as this depth-first recursion, one scalar
integrand evaluation at a time.
"""

from modlab.errors import ConvergenceError

MAX_DEPTH = 48


def recursive_simpson(f, a, b, atol):
    """Integrate scalar ``f`` over [a, b] to absolute tolerance ``atol``."""
    if b <= a:
        return 0.0
    n0 = 8
    h = (b - a) / n0
    total = 0.0
    for i in range(n0):
        x0 = a + i * h
        x1 = x0 + h
        xm = 0.5 * (x0 + x1)
        total += _panel(f, x0, xm, x1, f(x0), f(xm), f(x1), atol / n0, MAX_DEPTH)
    return total


def _rule(h, f0, fm, f1):
    return h * (f0 + 4.0 * fm + f1) / 6.0


def _panel(f, x0, xm, x1, f0, fm, f1, atol, depth):
    h = x1 - x0
    whole = _rule(h, f0, fm, f1)
    xl = 0.5 * (x0 + xm)
    xr = 0.5 * (xm + x1)
    fl = f(xl)
    fr = f(xr)
    left = _rule(0.5 * h, f0, fl, fm)
    right = _rule(0.5 * h, fm, fr, f1)
    err = left + right - whole
    if abs(err) <= 15.0 * atol:
        return left + right + err / 15.0
    if depth <= 0:
        raise ConvergenceError("adaptive Simpson quadrature hit maximum recursion depth")
    return (_panel(f, x0, xl, xm, f0, fl, fm, 0.5 * atol, depth - 1)
            + _panel(f, xm, xr, x1, fm, fr, f1, 0.5 * atol, depth - 1))
