"""Closed-form phase-error bounds and the golden-section search.

Implements the binary entropy, the Type1 bound intercept f(s1), the Type2
intercept g(s2) defined as the maximal real root of a cubic, and the mixed
photon-number cases' phase-error bounds at their stationary slope.  The
cubic has three real roots for every slope; the largest is solved in
closed form (Cardano's trigonometric form, one Newton step) and each root
is certified by its residual relative to the cubic's term scale and as the
largest, so no eigenvalue solve runs on the rate path.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

SQRT2 = math.sqrt(2.0)

# slope window [0, S_MAX]; both objectives are convex in s.  The minimum is on
# S_MAX for e_bit <= 7.79e-4 (Type1, by the closed form) or < 1.7e-3 (Type2),
# as for the QND (1,2) rates of about 3e-4, and on 0 for e_bit >= 0.622 (Type1)
# or >= 0.5 (Type2).  At e_bit = 0 the infimum over s >= 0 is (1 - sqrt(2)/2)/2
# ~ 0.1464 (Type1), against 0.1534 (Type1) and 0.1610 (Type2) at S_MAX.
S_MAX = 10.0
# Newton steps to the Type2 slope: 6 leave |x - g(s)| <= 2.1e-15, 4 leave 3.5e-8
_NEWTON_STEPS = 6
_CUBIC_RESIDUAL_REL_TOL = 1e-14

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class CubicRootError(RuntimeError):
    """A root of the intercept cubic failed its certificate: its residual is
    too large, or a larger real root exists."""


class BoundResult(NamedTuple):
    """Minimized phase-error bound with the minimizing slope (arrays for an
    array of bit error rates)."""

    e_ph: float | np.ndarray
    s_star: float | np.ndarray


def binary_entropy(x: float | np.ndarray) -> float | np.ndarray:
    """Binary Shannon entropy h(x), with h(0) = h(1) = 0 by continuity.

    Elementwise on arrays; a float for a float.
    """
    arr = np.asarray(x, dtype=float)
    if ((arr < -1e-12) | (arr > 1 + 1e-12)).any():
        raise ValueError(f"entropy argument {x} outside [0, 1]")
    edge = (arr <= 0.0) | (arr >= 1.0)
    # -y log2(y) - (1 - y) log2(1 - y), with at most three arrays of x's size
    y = np.where(edge, 0.5, arr)
    h = np.log2(y)
    h *= -y
    np.subtract(1.0, y, out=y)
    y *= np.log2(y)
    h -= y
    h = np.where(edge, 0.0, h)
    return float(h) if h.ndim == 0 else h


def f_type1(s1: float | np.ndarray) -> float | np.ndarray:
    """Intercept of the Type1 (1,2) phase-error bound e_ph <= s1*e_bit + f(s1),
    elementwise on arrays.

    The discriminant 6 - 6*sqrt(2)*s1 + 4*s1^2 is positive for all real s1
    (its minimum value is 3/2 at s1 = 3*sqrt(2)/4).
    """
    return (3 - 2 * s1 + np.sqrt(6 - 6 * SQRT2 * s1 + 4 * s1 * s1)) / 6


def _cubic_coeffs(s2: float | np.ndarray) -> tuple:
    return (
        4 * SQRT2,
        2 * (1 - 3 * SQRT2 + 3 * SQRT2 * s2),
        2 * (-1 + SQRT2 + (1 - 3 * SQRT2) * s2 + SQRT2 * s2 * s2),
        (SQRT2 - 1) * s2 + (1 - SQRT2) * s2 * s2,
    )


def cubic_value(s2: float | np.ndarray, x: float | np.ndarray) -> float | np.ndarray:
    a3, a2, a1, a0 = _cubic_coeffs(s2)
    return ((a3 * x + a2) * x + a1) * x + a0


def _depressed_cubic(a3, a2, a1, a0) -> tuple:
    """(b, p, q) with P(x) / a3 = t^3 + p t + q at x = t - b/3."""
    b, c, d = a2 / a3, a1 / a3, a0 / a3
    return b, c - b * b / 3, 2 * b**3 / 27 - b * c / 3 + d


def _max_real_root_cardano(coeffs) -> np.ndarray:
    a3, a2, a1, a0 = coeffs
    b, p, q = _depressed_cubic(*coeffs)
    # (q/2)^2 + (p/3)^3 = -(4 s^6 - 10 s^4 + 39 s^2 + 1)/6912 < 0 for every real s: three
    # real roots 2 r cos(theta - 2 pi j / 3), r > 0, theta in [0, pi/3], j = 0 the largest
    r = np.sqrt(-p / 3)
    x = 2 * r * np.cos(np.arccos(np.clip(3 * q / (2 * p * r), -1.0, 1.0)) / 3) - b / 3
    # one Newton step on P itself
    return x - (((a3 * x + a2) * x + a1) * x + a0) / ((3 * a3 * x + 2 * a2) * x + a1)


def g_type2(s2: float | np.ndarray) -> float | np.ndarray:
    """Intercept of the Type2 (1,2) bound: maximal real root of the cubic,
    elementwise on arrays (a float for a float).

    Solved by Cardano's formula and one Newton step, every element the same
    way whatever the array's shape.  Each root is certified: |P(g)| must
    stay below 1e-14 sum |a_i| |g|^i, and the quadratic P(x) / (x - g) must
    have no real root above g, so that g is the largest root.
    """
    s = np.asarray(s2, dtype=float)
    if not (s >= 0).all():
        raise ValueError(f"slope must be nonnegative, got {s2}")
    # a 0-d slope takes the array path too: numpy's scalar arithmetic rounds differently
    flat = s.reshape(-1)
    a3, a2, a1, a0 = coeffs = _cubic_coeffs(flat)
    root = _max_real_root_cardano(coeffs)
    g_abs = np.abs(root)  # |P(g)| against the term scale sum |a_i| |g|^i, which grows as s^2
    scale = ((a3 * g_abs + np.abs(a2)) * g_abs + np.abs(a1)) * g_abs + np.abs(a0)
    residual = ~(np.abs(cubic_value(flat, root)) <= _CUBIC_RESIDUAL_REL_TOL * scale)
    if residual.any():
        raise CubicRootError(f"cubic residual too large at s2={s.flat[np.argmax(residual)]}")
    # P(x) = (x - g)(a3 x^2 + b1 x + b0) + P(g), a3 > 0
    b1 = a2 + a3 * root
    b0 = a1 + root * b1
    disc = b1 * b1 - 4 * a3 * b0
    above = (disc >= 0) & (np.sqrt(np.maximum(disc, 0.0)) - b1 > 2 * a3 * root)
    if above.any():
        i = np.argmax(above)
        raise CubicRootError(f"root {root[i]} at s2={s.flat[i]} is not the largest")
    return float(root[0]) if s.ndim == 0 else root.reshape(s.shape)


def golden_section_minimize(fun, a, b, tol: float):
    """Golden-section search for the minimum of a unimodal function on [a, b].

    Elementwise over 1-D arrays of brackets: `fun` maps an array of points,
    one per bracket, to their values, and every bracket is shrunk until
    b - a <= tol through the iterates its scalar search would take; a
    bracket that reaches the tolerance is frozen while the others go on.
    Returns the arrays (x_min, f(x_min)).
    """
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    active = b - a > tol
    while active.any():
        left = active & (fc < fd)
        right = active ^ left
        # left: b, d, fd = d, c, fc and a new c; right: a, c, fc = c, d, fd and a new d
        a, b = np.where(right, c, a), np.where(left, d, b)
        c, d = np.where(right, d, c), np.where(left, c, d)
        fc, fd = np.where(right, fd, fc), np.where(left, fc, fd)
        x = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fx = fun(x)
        c, d = np.where(left, x, c), np.where(right, x, d)
        fc, fd = np.where(left, fx, fc), np.where(right, fx, fd)
        active = b - a > tol
    x = (a + b) / 2
    return x, fun(x)


def _cubic_partials(s: np.ndarray, x: np.ndarray) -> tuple:
    """P, P_s, P_x, P_ss, P_sx, P_xx of the cubic P(s, x) whose largest root is g(s)."""
    a3, a2, a1, _ = _cubic_coeffs(s)
    p_sx = 12 * SQRT2 * x + 2 - 6 * SQRT2 + 4 * SQRT2 * s
    p_s = (p_sx - 6 * SQRT2 * x) * x + SQRT2 - 1 + 2 * (1 - SQRT2) * s
    p_x, p_xx = (3 * a3 * x + 2 * a2) * x + a1, 6 * a3 * x + 2 * a2
    return cubic_value(s, x), p_s, p_x, 4 * SQRT2 * x + 2 * (1 - SQRT2), p_sx, p_xx


def _type1_slope(e: np.ndarray) -> np.ndarray:
    """argmin over [0, S_MAX] of s*e + f(s): with c = 1 - 3e, f'(s) = -e is
    (4s - 3 sqrt2)^2 (1 - c^2) = 6 c^2, the root with the sign of c."""
    c = np.clip(1 - 3 * e, -1.0, 1.0)
    with np.errstate(divide="ignore"):  # c = +-1: s = +-inf
        s = (c * np.sqrt(6 / (1 - c * c)) + 3 * SQRT2) / 4
    return np.clip(s, 0.0, S_MAX)


def _type2_slope(e: np.ndarray) -> np.ndarray:
    """argmin over [0, S_MAX] of s*e + g(s), with g' = -P_s / P_x: an edge
    where the objective's slope e + g' keeps its sign across the window, else
    Newton steps on P = 0, P_s = e P_x in (s, x) from the Type1 slope.  They
    run on e clipped to the range between the edges, where they converge."""
    edges = np.array([0.0, S_MAX])
    _, p_s, p_x, *_ = _cubic_partials(edges, g_type2(edges))
    top, bottom = p_s[1] / p_x[1], p_s[0] / p_x[0]  # e + g' = 0 at S_MAX, at 0
    e_in = np.clip(e, top, bottom)
    s = _type1_slope(e_in)
    x = g_type2(s)
    for _ in range(_NEWTON_STEPS):
        p, p_s, p_x, p_ss, p_sx, p_xx = _cubic_partials(s, x)
        r, r_s, r_x = p_s - e_in * p_x, p_ss - e_in * p_sx, p_sx - e_in * p_xx
        det = p_s * r_x - p_x * r_s
        s, x = s - (p * r_x - p_x * r) / det, x - (p_s * r - r_s * p) / det
    return np.where(e <= top, S_MAX, np.where(e >= bottom, 0.0, np.clip(s, 0.0, S_MAX)))


def phase_bound(
    case: tuple[int, int], announcement_type: int, e_bit: float | np.ndarray
) -> BoundResult:
    """Upper bound on the phase error rate from the bit error rate,
    elementwise on arrays (floats for a float).

    (1,1) has the closed forms 1.5*e and 3*e for Type1/Type2; (1,2) and
    its role-swapped twin (2,1) minimize the convex s*e + f(s) or s*e + g(s)
    on [0, S_MAX] at its stationary slope s*.  The bound is the objective
    at s*, a feasible slope, so it is valid whatever the accuracy of s*,
    clamped to [0, 1]; values above 0.5 are kept (they mean "no key").
    """
    e = np.asarray(e_bit, dtype=float)
    if not ((e >= -1e-12) & (e <= 1 + 1e-12)).all():
        raise ValueError(f"bit error rate {e_bit} outside [0, 1]")
    e = np.clip(e, 0.0, 1.0)
    if announcement_type not in (1, 2):
        raise ValueError(f"announcement type must be 1 or 2, got {announcement_type}")
    type1 = announcement_type == 1
    if case == (1, 1):
        s_star, intercept = np.full(e.shape, 1.5 if type1 else 3.0), np.zeros_like
    elif case in ((1, 2), (2, 1)):
        s_star = _type1_slope(e) if type1 else _type2_slope(e)
        intercept = f_type1 if type1 else g_type2
    else:
        raise ValueError(f"no phase-error bound for case {case}")
    e_ph = np.clip(s_star * e + intercept(s_star), 0.0, 1.0)
    return BoundResult(e_ph, s_star) if e.ndim else BoundResult(float(e_ph), float(s_star))
