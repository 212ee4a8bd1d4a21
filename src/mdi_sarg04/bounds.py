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
    y = np.where(edge, 0.5, arr)
    h = np.where(edge, 0.0, -y * np.log2(y) - (1 - y) * np.log2(1 - y))
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


def _max_real_root_companion(coeffs) -> np.ndarray:
    # the companion matrices of np.roots, stacked: one eigvals call for all of them
    a3, a2, a1, a0 = (np.asarray(c, dtype=float) for c in coeffs)
    companion = np.zeros(a2.shape + (3, 3))
    companion[..., 0, :] = np.stack([-a2 / a3, -a1 / a3, -a0 / a3], axis=-1)
    companion[..., 1, 0] = companion[..., 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)
    real = np.where(np.abs(roots.imag) < 1e-8, roots.real, -np.inf).max(axis=-1)
    if np.isneginf(real).any():
        raise CubicRootError("companion-matrix solve found no real root")
    return real


def _max_real_root_cardano(coeffs) -> np.ndarray:
    a3, a2, a1, a0 = coeffs
    b, c, d = a2 / a3, a1 / a3, a0 / a3
    # depressed cubic t^3 + p t + q with x = t - b/3
    p = c - b * b / 3
    q = 2 * b**3 / 27 - b * c / 3 + d
    # three real roots 2 r cos(theta - 2 pi j / 3) where disc <= 0 (then p <= 0),
    # as everywhere on [0, S_MAX]: theta is in [0, pi/3], so j = 0 is the
    # largest; r = 0 is the triple root
    r = np.sqrt(np.maximum(-p / 3, 0.0))
    cos_arg = np.divide(3 * q, 2 * p * r, out=np.zeros(np.shape(r)), where=r > 0)
    t = 2 * r * np.cos(np.arccos(np.clip(cos_arg, -1.0, 1.0)) / 3)
    disc = (q / 2) ** 2 + (p / 3) ** 3
    one_real = disc > 0
    if one_real.any():
        root_disc = np.sqrt(np.where(one_real, disc, 0.0))
        t = np.where(one_real, np.cbrt(-q / 2 + root_disc) + np.cbrt(-q / 2 - root_disc), t)
    return t - b / 3


def g_type2(s2: float | np.ndarray) -> float | np.ndarray:
    """Intercept of the Type2 (1,2) bound: maximal real root of the cubic,
    elementwise on arrays (a float for a float).

    Solved by companion-matrix eigenvalues, one stacked solve for the whole
    array, with a Cardano cross-check; at every element the two must agree
    to 1e-9 and the residual must stay below 1e-10.
    """
    s = np.asarray(s2, dtype=float)
    if (s < 0).any():
        raise ValueError(f"slope must be nonnegative, got {s2}")
    coeffs = _cubic_coeffs(s)
    root = _max_real_root_companion(coeffs)
    alt = _max_real_root_cardano(coeffs)
    disagree = np.abs(root - alt) > _SOLVER_AGREE_TOL
    if disagree.any():
        i = np.argmax(disagree)
        raise CubicRootError(
            f"root solvers disagree at s2={s.flat[i]}: {root.flat[i]} vs {alt.flat[i]}"
        )
    residual = np.abs(cubic_value(s, root)) > _CUBIC_RESIDUAL_TOL
    if residual.any():
        raise CubicRootError(f"cubic residual too large at s2={s.flat[np.argmax(residual)]}")
    return float(root) if root.ndim == 0 else root


def golden_section_minimize(fun, a, b, tol: float):
    """Golden-section search for the minimum of a unimodal function on [a, b].

    Elementwise over arrays of brackets: `fun` maps an array of points, one
    per bracket, to their values, and every bracket is shrunk until
    b - a <= tol through the iterates its scalar search would take; a
    bracket that reaches the tolerance is frozen while the others go on.
    Returns (x_min, f(x_min)), floats for float brackets.
    """
    scalar = np.ndim(a) == np.ndim(b) == 0
    a, b = (np.array(v, dtype=float, ndmin=1) for v in np.broadcast_arrays(a, b))
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
    fx = fun(x)
    return (float(x[0]), float(fx[0])) if scalar else (x, fx)


def phase_bound(
    case: tuple[int, int], announcement_type: int, e_bit: float | np.ndarray
) -> BoundResult:
    """Upper bound on the phase error rate from the bit error rate,
    elementwise on arrays (floats for a float).

    (1,1) has the closed forms 1.5*e and 3*e for Type1/Type2; (1,2) and
    its role-swapped twin (2,1) minimize the convex s*e + f(s) or s*e + g(s)
    on [0, S_MAX], at an edge or by golden-section search, one search for
    all the bit error rates whose minimum is inside the window.  The result
    is clamped to [0, 1]; values above 0.5 are kept (they mean "no key").
    """
    e = np.asarray(e_bit, dtype=float)
    if not ((e >= -1e-12) & (e <= 1 + 1e-12)).all():
        raise ValueError(f"bit error rate {e_bit} outside [0, 1]")
    e = np.clip(e, 0.0, 1.0).ravel()
    if announcement_type not in (1, 2):
        raise ValueError(f"announcement type must be 1 or 2, got {announcement_type}")
    if case == (1, 1):
        factor = 1.5 if announcement_type == 1 else 3.0
        e_ph, s_star = np.minimum(factor * e, 1.0), np.full(e.shape, factor)
    elif case in ((1, 2), (2, 1)):
        e_ph, s_star = _minimize_mixed(f_type1 if announcement_type == 1 else g_type2, e)
    else:
        raise ValueError(f"no phase-error bound for case {case}")
    shape = np.shape(e_bit)
    if not shape:
        return BoundResult(e_ph=float(e_ph[0]), s_star=float(s_star[0]))
    return BoundResult(e_ph=e_ph.reshape(shape), s_star=s_star.reshape(shape))


def _minimize_mixed(intercept, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """min over s in [0, S_MAX] of s*e + intercept(s), clamped to [0, 1],
    and its s, for the 1-D array of bit error rates e."""
    # convexity: an edge no worse than its inner neighbour is the minimum (to _REFINE_TOL)
    edges = np.array([S_MAX, S_MAX - _REFINE_TOL, 0.0, _REFINE_TOL])
    at_edges = edges[:, None] * e + intercept(edges)[:, None]
    top = at_edges[0] <= at_edges[1]
    bottom = ~top & (at_edges[2] <= at_edges[3])
    s_star = np.where(top, S_MAX, 0.0)
    e_ph = np.where(top, at_edges[0], at_edges[2])
    inner = ~(top | bottom)
    if inner.any():
        e_in = e[inner]
        lo, hi = np.zeros(e_in.size), np.full(e_in.size, S_MAX)
        s_star[inner], e_ph[inner] = golden_section_minimize(
            lambda s: s * e_in + intercept(s), lo, hi, _REFINE_TOL
        )
    return np.clip(e_ph, 0.0, 1.0), s_star
