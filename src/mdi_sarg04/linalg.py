"""Dense real linear algebra on small qubit spaces.

Every vector and matrix in this package lives in the x-product basis:
|0x> = (1, 0), |1x> = (0, 1), and multi-qubit components are indexed in
tensor (row-major) order of the factors as listed in the constructor call.
All transposes are taken in this basis, which is the basis in which
|phi+> = (|0x 0x> + |1x 1x>)/sqrt(2) is defined, so the ket-transpose
identity (I (x) M)|phi+> = (M^T (x) I)|phi+> holds exactly.  Every ket,
filter, rotation and Bell state of the protocol is real in this basis, so
they are float64 arrays; the helpers keep the dtype of their input, so a
complex state stays complex.  Contractions are unoptimized `einsum`s,
which never dispatch to BLAS, and `min_eigenvalue` needs no LAPACK: it
reduces each matrix to tridiagonal form by Householder reflections and
brackets the smallest eigenvalue by Sturm counts (Barth, Martin &
Wilkinson, Numer. Math. 9 (1967)), in elementwise numpy.  The import-time
constants come from `math`, and the kets from the floats of
`optics.SIGNAL_STATES` and `optics.BASIS_KETS`: numpy's scalar ufuncs at
import raised every process's peak memory by up to about 190 KB.
"""

from __future__ import annotations

import math

import numpy as np

from .optics import BASIS_KETS, SIGNAL_STATES

# a float64 array (complex only where a caller passes one); a plain alias,
# since numpy.typing costs about 1 ms to import
Array = np.ndarray

HERMITIAN_TOL = 1e-10

_BASIS_KETS = {label: np.array(ket) for label, ket in BASIS_KETS.items()}


def basis_ket(label: str) -> Array:
    """Single-qubit basis ket for label in {0z, 1z, 0x, 1x}."""
    try:
        return _BASIS_KETS[label].copy()
    except KeyError:
        raise ValueError(f"unknown basis label {label!r}") from None


def phi_state(i: int) -> Array:
    """SARG04 signal state: cos(pi/8)|0x> +/- sin(pi/8)|1x> and the
    sin-leading pair, indexed i = 0..3."""
    if i not in (0, 1, 2, 3):
        raise ValueError(f"signal-state index must be 0..3, got {i}")
    return np.array(SIGNAL_STATES[i])


# (cos, sin) of k pi/4 for k = 0..3, with exact zeros
_HALF_SQRT2 = math.sqrt(0.5)
_COS_SIN = ((1.0, 0.0), (_HALF_SQRT2, _HALF_SQRT2), (0.0, 1.0), (-_HALF_SQRT2, _HALF_SQRT2))


def rotation(k: int) -> Array:
    """k-th power of the signal-state cycling rotation, k = 0..3: the real
    orthogonal R^k = [[cos(k pi/4), sin(k pi/4)], [-sin(k pi/4), cos(k pi/4)]],
    with R|phi_i> = +/- |phi_{i+1 mod 4}> and R|phi_0> = |phi_1>."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"rotation power must be 0..3, got {k}")
    c, s = _COS_SIN[k]
    return np.array([[c, s], [-s, c]])


def filter1(angle: float = np.pi / 8) -> Array:
    """Single-qubit filter success operator diag(cos a, sin a)."""
    return np.diag([np.cos(angle), np.sin(angle)])


def filter2(angle: float = np.pi / 8) -> Array:
    """Two-qubit filter success operator for the two-photon emission part.

    cos^2|0x0x><0x0x| + sin^2|0x0x><1x1x| + sqrt(2) cos sin |1x0x><psi+|,
    on the x (x) x product basis.
    """
    c, s = np.cos(angle), np.sin(angle)
    e = np.eye(4)
    psi_plus = bell_state("psi_plus")
    return (
        c**2 * np.outer(e[0], e[0])
        + s**2 * np.outer(e[0], e[3])
        + np.sqrt(2) * c * s * np.outer(e[2], psi_plus)
    )


def bell_state(label: str) -> Array:
    """Two-qubit Bell state in the x-product basis."""
    v = np.zeros(4)
    if label == "psi_plus":
        v[1] = v[2] = 1 / np.sqrt(2)
    elif label == "psi_minus":
        v[1], v[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    elif label == "phi_plus":
        v[0] = v[3] = 1 / np.sqrt(2)
    else:
        raise ValueError(f"unknown Bell-state label {label!r}")
    return v


def kron(*factors: Array) -> Array:
    """Tensor product of vectors or matrices in declared order."""
    out = np.asarray(factors[0])
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def projector(v: Array) -> Array:
    """Rank-1 projector |v><v| (unnormalized if v is)."""
    v = np.asarray(v)
    return np.outer(v, v.conj())


def is_hermitian(h: Array, tol: float = HERMITIAN_TOL) -> bool:
    """Whether h, or every matrix of a stack h (..., n, n), is Hermitian within tol."""
    h = np.asarray(h)
    return bool(np.abs(h - np.swapaxes(h, -1, -2).conj()).max() <= tol)


# entries of a stack that `min_eigenvalue` checks and reduces at once: the
# working copies of one block bound the memory of a solve
_BLOCK_ENTRIES = 8192


def min_eigenvalue(h: Array, tol: float = HERMITIAN_TOL) -> float | np.ndarray:
    """Smallest eigenvalue of a Hermitian matrix, or of each one of a stack
    (..., n, n), with no LAPACK call: each matrix, or the real symmetric
    embedding of a complex one, is reduced to tridiagonal form, whose
    smallest eigenvalue Sturm counts bracket."""
    h = np.asarray(h)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2] or h.shape[-1] == 0:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {h.shape}")
    stack = h.reshape((-1,) + h.shape[-2:])
    b, n = len(stack), h.shape[-1] * (2 if np.iscomplexobj(h) else 1)
    d, e2, scale = np.empty((n, b)), np.empty((max(n - 1, 0), b)), np.empty(b)
    step = max(1, _BLOCK_ENTRIES // (n * n))
    for start in range(0, b, step):
        block = slice(start, start + step)
        d[:, block], e2[:, block], scale[block] = _tridiagonal(stack[block], tol)
    low = (_lowest_eigenvalue(d, e2) / scale).reshape(h.shape[:-2])
    return float(low) if low.ndim == 0 else low


def _tridiagonal(h: Array, tol: float) -> tuple[Array, Array, Array]:
    """Diagonal d (n, B) and squared off-diagonal e² (n - 1, B) of a
    tridiagonal matrix similar to each Hermitian h (B, n, n) times its
    scale (B), by Householder reflections.  A complex h is taken as its real
    symmetric embedding [[Re h, -Im h], [Im h, Re h]], which has the same
    eigenvalues, each twice."""
    if not is_hermitian(h, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    if np.iscomplexobj(h):
        re, im = h.real, h.imag
        h = np.concatenate([np.concatenate([re, -im], -1), np.concatenate([im, re], -1)], -2)
    b, n = h.shape[:2]
    # the power of two that takes each largest entry m = f 2^e, f in [1/2, 1),
    # to f: scaling by it is exact, and no square below overflows or loses
    # digits to underflow
    m = np.maximum(np.maximum(h.max(axis=(1, 2)), -h.min(axis=(1, 2))), np.finfo(float).tiny)
    scale = np.frexp(m)[0] / m
    # the scaled symmetric part, row by row: a whole-stack operation on the
    # transpose, or one that broadcasts the scale, would allocate a buffer
    a = np.empty(h.shape)
    half = 0.5 * scale[:, None]
    for i in range(n):
        np.multiply(h[:, i] + h[:, :, i], half, out=a[:, i])
    e2 = np.empty((max(n - 1, 0), b))
    for k in range(n - 2):
        x = a[:, k + 1 :, k]
        # the reflection maps x to -sign(x_0)|x| e_1, so e_k² = |x|²
        e2[k] = norm2 = np.einsum("bi,bi->b", x, x)
        v = x.copy()
        v[:, 0] += np.where(x[:, 0] < 0, -1.0, 1.0) * np.sqrt(norm2)
        vv = np.einsum("bi,bi->b", v, v)
        # unit v, and v = 0 (no reflection) where x is already 0
        v /= np.sqrt(np.maximum(vv, np.finfo(float).tiny))[:, None]
        sub = a[:, k + 1 :, k + 1 :]
        # (I - 2vvᵀ) A (I - 2vvᵀ) = A - v wᵀ - w vᵀ, with p = 2Av and w = p - (vᵀp) v,
        # row by row; entry (i, j) loses v_i w_j + w_i v_j and (j, i) the
        # same sum, so A stays symmetric
        w = 2.0 * np.einsum("bij,bj->bi", sub, v)
        w -= np.einsum("bi,bi->b", v, w)[:, None] * v
        for i in range(n - 1 - k):
            sub[:, i] -= v[:, i, None] * w + w[:, i, None] * v
    if n > 1:
        e2[-1] = a[:, -1, -2] ** 2
    return np.einsum("bii->ib", a), e2, scale


# interior points of each multisection step: the bracket shrinks 8-fold
_SHIFTS = np.array([[j / 8] for j in range(1, 8)])


def _lowest_eigenvalue(d: Array, e2: Array) -> Array:
    """Smallest eigenvalue of each symmetric tridiagonal (d, e²), d (n, B)
    and e² (n - 1, B), to about one ulp of the matrix's scale (of order 1
    here), by Sturm-count multisection.  A zero e² is raised to the smallest
    normal float, so a zero pivot gives an infinite next pivot, which keeps
    the count right, and never 0/0.  A converged matrix leaves the active
    set, so each result is that of the matrix alone, bit for bit."""
    e2 = np.maximum(e2, np.finfo(float).tiny)
    # Gershgorin below, the smallest diagonal entry above
    e = np.sqrt(e2)
    lo = d.copy()
    lo[1:] -= e
    lo[:-1] -= e
    lo, hi = lo.min(axis=0), d.min(axis=0)
    tol = np.finfo(float).eps * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    low = np.empty(d.shape[1])
    active = np.arange(d.shape[1])
    with np.errstate(divide="ignore", over="ignore"):
        while True:
            done = hi - lo <= tol
            if done.any():
                low[active[done]] = 0.5 * (lo[done] + hi[done])
                keep = ~done
                active, lo, hi, tol, d, e2 = active[keep], lo[keep], hi[keep], tol[keep], d[:, keep], e2[:, keep]
            if not active.size:
                return low
            lo, hi = _multisection_step(d, e2, lo, hi)


def _multisection_step(d: Array, e2: Array, lo: Array, hi: Array) -> tuple[Array, Array]:
    """The bracket [lo, hi] narrowed to the step between the last shift x in
    it with no eigenvalue below it and the first with one.  T - xI has as
    many negative pivots q_i = d_i - x - e²_(i-1) / q_(i-1) as T has
    eigenvalues below x."""
    x = lo + (hi - lo) * _SHIFTS
    q = d[0] - x
    below = np.signbit(q)
    for i in range(1, len(d)):
        np.divide(e2[i - 1], q, out=q)
        np.subtract(d[i] - x, q, out=q)
        below |= np.signbit(q)
    j = _SHIFTS.size - below.sum(axis=0)
    edges = np.concatenate([lo[None], x, hi[None]])
    rows = np.arange(len(lo))
    return edges[j, rows], edges[j + 1, rows]


def permute_qubits(v: Array, order: list) -> Array:
    """Reorder the tensor factors of a state vector.

    `order` lists the current qubit labels of `v` in tensor order; the
    result has the factors in sorted-label order.
    """
    n = len(order)
    v = np.asarray(v)
    if v.size != 2**n:
        raise ValueError("state dimension does not match qubit label count")
    perm = [order.index(lab) for lab in sorted(order)]
    return v.reshape((2,) * n).transpose(perm).reshape(-1)


def partial_project(bra: Array, bra_modes: list[int], state: Array) -> Array:
    """Contract <bra| against the designated tensor factors of `state`.

    `bra_modes` are 0-based qubit indices of `state`, matched positionally
    to the tensor factors of `bra`.  The remaining factors keep their
    original relative order; the result is sub-normalized in general.
    """
    state = np.asarray(state)
    n = int(round(np.log2(state.size)))
    if 2**n != state.size:
        raise ValueError("state length is not a power of two")
    bra = np.asarray(bra)
    nb = int(round(np.log2(bra.size)))
    if 2**nb != bra.size or len(bra_modes) != nb:
        raise ValueError("bra dimension does not match declared mode count")
    if any(m < 0 or m >= n for m in bra_modes) or len(set(bra_modes)) != nb:
        raise ValueError("invalid mode declaration")
    rest = [m for m in range(n) if m not in bra_modes]
    bra, state = bra.conj().reshape((2,) * nb), state.reshape((2,) * n)
    return np.einsum(bra, list(bra_modes), state, list(range(n)), rest).reshape(-1)
