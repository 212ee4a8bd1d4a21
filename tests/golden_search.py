"""Golden-section search: the derivative-free oracle of the tests.

The package finds each distance's optimal mean photon number as the root
of the rate's derivative; the tests check it, and the minimized phase
bounds, against this search, which needs only function values.
"""

import math

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_minimize(fun, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section search for the minimum of a unimodal function on
    [a, b], shrinking the bracket until b - a <= tol.  Returns (x_min,
    fun(x_min)), and that is the last call to `fun`."""
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fun(d)
    x = (a + b) / 2
    return x, fun(x)
