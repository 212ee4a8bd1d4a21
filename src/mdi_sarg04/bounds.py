"""Closed-form phase-error bounds and the 1-D minimizations over them.

Implements the binary entropy, the Type1 bound intercept f(s1), the Type2
intercept g(s2) defined as the maximal real root of a cubic, and the
minimized phase-error bounds for the mixed photon-number cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)

# slope window [0, S_MAX]; both objectives are convex in s.  The minimum is on
# S_MAX for e_bit < 7.8e-4 (Type1) or < 1.7e-3 (Type2), as for the QND (1,2)
# rates of about 3e-4, and on 0 for e_bit >= (2 + sqrt(3))/6 ~ 0.622 (Type1)
# or >= 0.5 (Type2).  At e_bit = 0 the infimum over s >= 0 is (1 - sqrt(2)/2)/2
# ~ 0.1464 (Type1), against 0.1534 (Type1) and 0.1610 (Type2) at S_MAX.
S_MAX = 10.0
_REFINE_TOL = 1e-6
_CUBIC_RESIDUAL_TOL = 1e-10
_SOLVER_AGREE_TOL = 1e-9

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class CubicRootError(RuntimeError):
    """The intercept cubic unexpectedly has no real root, or the two root
    solvers disagree."""


@dataclass(frozen=True)
class BoundResult:
    """Minimized phase-error bound with the minimizing slope."""

    e_ph: float
    s_star: float


def _entropy(x: float) -> float:
    x = min(max(x, 0.0), 1.0)
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def binary_entropy(x: float | np.ndarray) -> float | np.ndarray:
    """Binary Shannon entropy h(x), with h(0) = h(1) = 0 by continuity.

    Elementwise on arrays; a float for a float.  Each element goes through
    libm's log2, so an array gives bit for bit the values of its elements
    (numpy's log2 differs from it in the last bit for some arguments).
    """
    arr = np.asarray(x, dtype=float)
    values = arr.ravel().tolist()
    if any(v < -1e-12 or v > 1 + 1e-12 for v in values):
        raise ValueError(f"entropy argument {x} outside [0, 1]")
    if arr.ndim == 0:
        return _entropy(values[0])
    return np.array([_entropy(v) for v in values]).reshape(arr.shape)


def f_type1(s1: float) -> float:
    """Intercept of the Type1 (1,2) phase-error bound e_ph <= s1*e_bit + f(s1).

    The discriminant 6 - 6*sqrt(2)*s1 + 4*s1^2 is positive for all real s1
    (its minimum value is 3/2 at s1 = 3*sqrt(2)/4).
    """
    return (3 - 2 * s1 + math.sqrt(6 - 6 * SQRT2 * s1 + 4 * s1 * s1)) / 6


def _cubic_coeffs(s2: float) -> tuple[float, float, float, float]:
    return (
        4 * SQRT2,
        2 * (1 - 3 * SQRT2 + 3 * SQRT2 * s2),
        2 * (-1 + SQRT2 + (1 - 3 * SQRT2) * s2 + SQRT2 * s2 * s2),
        (SQRT2 - 1) * s2 + (1 - SQRT2) * s2 * s2,
    )


def cubic_value(s2: float, x: float) -> float:
    a3, a2, a1, a0 = _cubic_coeffs(s2)
    return ((a3 * x + a2) * x + a1) * x + a0


def _max_real_root_companion(coeffs) -> float:
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-8].real
    if real.size == 0:
        raise CubicRootError("companion-matrix solve found no real root")
    return float(real.max())


def _max_real_root_cardano(coeffs) -> float:
    a3, a2, a1, a0 = coeffs
    b, c, d = a2 / a3, a1 / a3, a0 / a3
    # depressed cubic t^3 + p t + q with x = t - b/3
    p = c - b * b / 3
    q = 2 * b**3 / 27 - b * c / 3 + d
    shift = -b / 3
    disc = (q / 2) ** 2 + (p / 3) ** 3
    if disc > 0:
        u = np.cbrt(-q / 2 + math.sqrt(disc))
        v = np.cbrt(-q / 2 - math.sqrt(disc))
        return float(u + v + shift)
    if p == 0:  # triple root
        return float(shift)
    r = math.sqrt(-p / 3)
    arg = min(max(3 * q / (2 * p * r), -1.0), 1.0)
    theta = math.acos(arg) / 3
    ts = [2 * r * math.cos(theta - 2 * math.pi * j / 3) for j in range(3)]
    return float(max(ts) + shift)


def g_type2(s2: float) -> float:
    """Intercept of the Type2 (1,2) bound: maximal real root of the cubic.

    Solved by companion-matrix eigenvalues with a Cardano cross-check; the
    two must agree to 1e-9 and the residual must stay below 1e-10.
    """
    if s2 < 0:
        raise ValueError(f"slope must be nonnegative, got {s2}")
    coeffs = _cubic_coeffs(s2)
    root = _max_real_root_companion(coeffs)
    alt = _max_real_root_cardano(coeffs)
    if abs(root - alt) > _SOLVER_AGREE_TOL:
        raise CubicRootError(f"root solvers disagree at s2={s2}: {root} vs {alt}")
    if abs(cubic_value(s2, root)) > _CUBIC_RESIDUAL_TOL:
        raise CubicRootError(f"cubic residual too large at s2={s2}")
    return root


def golden_section_minimize(fun, a: float, b: float, tol: float):
    """Golden-section search for the minimum of a unimodal function on [a, b].

    Returns (x_min, f(x_min)); the bracket is shrunk until b - a <= tol.
    """
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


def phase_bound(case: tuple[int, int], announcement_type: int, e_bit: float) -> BoundResult:
    """Upper bound on the phase error rate from the bit error rate.

    (1,1) has the closed forms 1.5*e and 3*e for Type1/Type2; (1,2) and
    its role-swapped twin (2,1) minimize the convex s*e + f(s) or s*e + g(s)
    on [0, S_MAX], at an edge or by golden-section search.  The result
    is clamped to [0, 1]; values above 0.5 are kept (they mean "no key").
    """
    if not -1e-12 <= e_bit <= 1 + 1e-12:
        raise ValueError(f"bit error rate {e_bit} outside [0, 1]")
    e_bit = min(max(e_bit, 0.0), 1.0)
    if announcement_type not in (1, 2):
        raise ValueError(f"announcement type must be 1 or 2, got {announcement_type}")
    if case == (1, 1):
        factor = 1.5 if announcement_type == 1 else 3.0
        return BoundResult(e_ph=min(factor * e_bit, 1.0), s_star=factor)
    if case not in ((1, 2), (2, 1)):
        raise ValueError(f"no phase-error bound for case {case}")
    intercept = f_type1 if announcement_type == 1 else g_type2

    def objective(s: float) -> float:
        return s * e_bit + intercept(s)

    # convexity: an edge no worse than its inner neighbour is the minimum (to _REFINE_TOL)
    if objective(S_MAX) <= objective(S_MAX - _REFINE_TOL):
        s_star, e_ph = S_MAX, objective(S_MAX)
    elif objective(0.0) <= objective(_REFINE_TOL):
        s_star, e_ph = 0.0, objective(0.0)
    else:
        s_star, e_ph = golden_section_minimize(objective, 0.0, S_MAX, _REFINE_TOL)
    return BoundResult(e_ph=min(max(e_ph, 0.0), 1.0), s_star=s_star)
