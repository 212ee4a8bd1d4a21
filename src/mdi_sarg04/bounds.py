"""Closed-form phase-error bounds.

Implements the binary entropy, the Type1 bound intercept f(s1), the Type2
intercept g(s2) defined as the maximal real root of a cubic, and the mixed
photon-number cases' phase-error bounds at their stationary slope.  The
cubic has three real roots for every slope; the largest is solved in
closed form (Cardano's trigonometric form, one Newton step) and each root
is certified by its residual relative to the cubic's term scale and as the
largest, so no eigenvalue solve runs on the rate path.  Every function
takes and returns plain floats, one slope or error rate at a time.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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


class CubicRootError(RuntimeError):
    """A root of the intercept cubic failed its certificate: its residual is
    too large, or a larger real root exists."""


class BoundResult(NamedTuple):
    """Minimized phase-error bound with the minimizing slope."""

    e_ph: float
    s_star: float


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy h(x), with h(0) = h(1) = 0 by continuity;
    arguments within 1e-12 of [0, 1] are taken as its ends."""
    if not -1e-12 <= x <= 1 + 1e-12:
        raise ValueError(f"entropy argument {x} outside [0, 1]")
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def f_type1(s1: float) -> float:
    """Intercept of the Type1 (1,2) phase-error bound e_ph <= s1*e_bit + f(s1).

    The discriminant 6 - 6*sqrt(2)*s1 + 4*s1^2 is positive for all real s1
    (its minimum value is 3/2 at s1 = 3*sqrt(2)/4).
    """
    return (3 - 2 * s1 + math.sqrt(6 - 6 * SQRT2 * s1 + 4 * s1 * s1)) / 6


def _cubic_coeffs(s2):
    """(a3, a2, a1, a0) of the cubic whose largest root is g(s2); plain
    arithmetic, so it also maps an array of slopes."""
    return (
        4 * SQRT2,
        2 * (1 - 3 * SQRT2 + 3 * SQRT2 * s2),
        2 * (-1 + SQRT2 + (1 - 3 * SQRT2) * s2 + SQRT2 * s2 * s2),
        (SQRT2 - 1) * s2 + (1 - SQRT2) * s2 * s2,
    )


def cubic_value(s2, x):
    """The cubic at x, by Horner's rule; plain arithmetic, like `_cubic_coeffs`."""
    a3, a2, a1, a0 = _cubic_coeffs(s2)
    return ((a3 * x + a2) * x + a1) * x + a0


def _depressed_cubic(a3, a2, a1, a0) -> tuple:
    """(b, p, q) with P(x) / a3 = t^3 + p t + q at x = t - b/3."""
    b, c, d = a2 / a3, a1 / a3, a0 / a3
    return b, c - b * b / 3, 2 * b**3 / 27 - b * c / 3 + d


def _max_real_root_cardano(coeffs) -> float:
    a3, a2, a1, a0 = coeffs
    b, p, q = _depressed_cubic(*coeffs)
    # (q/2)^2 + (p/3)^3 = -(4 s^6 - 10 s^4 + 39 s^2 + 1)/6912 < 0 for every real s: three
    # real roots 2 r cos(theta - 2 pi j / 3), r > 0, theta in [0, pi/3], j = 0 the largest
    r = math.sqrt(-p / 3)
    x = 2 * r * math.cos(math.acos(min(max(3 * q / (2 * p * r), -1.0), 1.0)) / 3) - b / 3
    # one Newton step on P itself
    return x - (((a3 * x + a2) * x + a1) * x + a0) / ((3 * a3 * x + 2 * a2) * x + a1)


def g_type2(s2: float) -> float:
    """Intercept of the Type2 (1,2) bound: maximal real root of the cubic.

    Solved by Cardano's formula and one Newton step.  The root is
    certified: |P(g)| must stay below 1e-14 sum |a_i| |g|^i, and the
    quadratic P(x) / (x - g) must have no real root above g, so that g is
    the largest root.
    """
    if not s2 >= 0:
        raise ValueError(f"slope must be nonnegative, got {s2}")
    a3, a2, a1, a0 = coeffs = _cubic_coeffs(s2)
    root = _max_real_root_cardano(coeffs)
    g_abs = abs(root)  # |P(g)| against the term scale sum |a_i| |g|^i, which grows as s^2
    scale = ((a3 * g_abs + abs(a2)) * g_abs + abs(a1)) * g_abs + abs(a0)
    if not abs(cubic_value(s2, root)) <= _CUBIC_RESIDUAL_REL_TOL * scale:
        raise CubicRootError(f"cubic residual too large at s2={s2}")
    # P(x) = (x - g)(a3 x^2 + b1 x + b0) + P(g), a3 > 0
    b1 = a2 + a3 * root
    b0 = a1 + root * b1
    disc = b1 * b1 - 4 * a3 * b0
    if disc >= 0 and math.sqrt(disc) - b1 > 2 * a3 * root:
        raise CubicRootError(f"root {root} at s2={s2} is not the largest")
    return root


def _cubic_partials(s: float, x: float) -> tuple:
    """P, P_s, P_x, P_ss, P_sx, P_xx of the cubic P(s, x) whose largest root is g(s)."""
    a3, a2, a1, a0 = _cubic_coeffs(s)
    p_sx = 12 * SQRT2 * x + 2 - 6 * SQRT2 + 4 * SQRT2 * s
    p_s = (p_sx - 6 * SQRT2 * x) * x + SQRT2 - 1 + 2 * (1 - SQRT2) * s
    p_x, p_xx = (3 * a3 * x + 2 * a2) * x + a1, 6 * a3 * x + 2 * a2
    p = ((a3 * x + a2) * x + a1) * x + a0  # cubic_value(s, x)
    return p, p_s, p_x, 4 * SQRT2 * x + 2 * (1 - SQRT2), p_sx, p_xx


def _type1_slope(e: float) -> float:
    """argmin over [0, S_MAX] of s*e + f(s): with c = 1 - 3e, f'(s) = -e is
    (4s - 3 sqrt2)^2 (1 - c^2) = 6 c^2, the root with the sign of c; at
    c = +-1 that root is +-infinity, so the window edge S_MAX or 0."""
    c = min(max(1 - 3 * e, -1.0), 1.0)
    if c * c == 1.0:
        return S_MAX if c > 0 else 0.0
    s = (c * math.sqrt(6 / (1 - c * c)) + 3 * SQRT2) / 4
    return min(max(s, 0.0), S_MAX)


def _edge_slopes() -> tuple[dict[float, float], float, float]:
    """The certified intercepts g(S_MAX) and g(0) of the window edges, and
    the bit error rates at which the Type2 objective's slope e + g' is zero
    at S_MAX and at 0."""
    intercepts, slopes = {}, []
    for s in (S_MAX, 0.0):
        intercepts[s] = g_type2(s)
        _, p_s, p_x, *_ = _cubic_partials(s, intercepts[s])
        slopes.append(p_s / p_x)
    return intercepts, slopes[0], slopes[1]


_TYPE2_EDGES, _TYPE2_TOP, _TYPE2_BOTTOM = _edge_slopes()


def _type2_slope(e: float) -> float:
    """argmin over [0, S_MAX] of s*e + g(s), with g' = -P_s / P_x: an edge
    where the objective's slope e + g' keeps its sign across the window, else
    Newton steps on P = 0, P_s = e P_x in (s, x) from the Type1 slope."""
    if e <= _TYPE2_TOP:
        return S_MAX
    if e >= _TYPE2_BOTTOM:
        return 0.0
    s = _type1_slope(e)
    x = g_type2(s)
    for _ in range(_NEWTON_STEPS):
        p, p_s, p_x, p_ss, p_sx, p_xx = _cubic_partials(s, x)
        r, r_s, r_x = p_s - e * p_x, p_ss - e * p_sx, p_sx - e * p_xx
        det = p_s * r_x - p_x * r_s
        s, x = s - (p * r_x - p_x * r) / det, x - (p_s * r - r_s * p) / det
    return min(max(s, 0.0), S_MAX)


def phase_bound(case: tuple[int, int], announcement_type: int, e_bit: float) -> BoundResult:
    """Upper bound on the phase error rate from the bit error rate.

    (1,1) has the closed forms 1.5*e and 3*e for Type1/Type2; (1,2) and
    its role-swapped twin (2,1) minimize the convex s*e + f(s) or s*e + g(s)
    on [0, S_MAX] at its stationary slope s*.  The bound is the objective
    at s*, a feasible slope, so it is valid whatever the accuracy of s*,
    clamped to [0, 1]; values above 0.5 are kept (they mean "no key").
    """
    if not -1e-12 <= e_bit <= 1 + 1e-12:
        raise ValueError(f"bit error rate {e_bit} outside [0, 1]")
    e = min(max(e_bit, 0.0), 1.0)
    if announcement_type not in (1, 2):
        raise ValueError(f"announcement type must be 1 or 2, got {announcement_type}")
    type1 = announcement_type == 1
    if case == (1, 1):
        s_star, intercept = (1.5 if type1 else 3.0), 0.0
    elif case in ((1, 2), (2, 1)):
        s_star = _type1_slope(e) if type1 else _type2_slope(e)
        if type1:
            intercept = f_type1(s_star)
        elif s_star in _TYPE2_EDGES:  # a window edge: the intercept certified at import
            intercept = _TYPE2_EDGES[s_star]
        else:
            intercept = g_type2(s_star)
    else:
        raise ValueError(f"no phase-error bound for case {case}")
    return BoundResult(min(max(s_star * e + intercept, 0.0), 1.0), s_star)
