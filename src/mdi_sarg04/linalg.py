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
which never dispatch to BLAS, and `block_min_eigenvalue` needs no LAPACK:
every matrix whose eigenvalues the package takes reduces to symmetric
blocks of order at most 3 (see `povm.block_basis`), whose smallest
eigenvalue has a closed form in elementwise numpy.  The import-time
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


def block_min_eigenvalue(h: Array, tol: float = HERMITIAN_TOL) -> float | np.ndarray:
    """Smallest eigenvalue of a real symmetric matrix of order k <= 3, or of
    each one of a stack (..., k, k), in closed form: the entry (k = 1), the
    quadratic formula (k = 2), or O. K. Smith's trigonometric form (CACM
    4(4):168, 1961) (k = 3).  Each matrix is first scaled exactly by the
    power of two that takes its largest entry m = f 2^e, f in [1/2, 1), to
    f, so no square overflows or loses digits to underflow."""
    h = np.asarray(h)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2] or not 1 <= h.shape[-1] <= 3:
        raise ValueError(f"expected a matrix of order 1 to 3, or a stack of them, got shape {h.shape}")
    if np.iscomplexobj(h) or not is_hermitian(h, tol):
        raise ValueError("matrix is not real symmetric within tolerance")
    m = np.maximum(np.abs(h).max(axis=(-2, -1)), np.finfo(float).tiny)
    scale = np.frexp(m)[0] / m
    # the scaled symmetric part, one array per entry: no (..., k, k) temporaries
    k = h.shape[-1]
    a = [[0.5 * (h[..., i, j] * scale + h[..., j, i] * scale) for j in range(k)] for i in range(k)]
    if k == 1:
        low = a[0][0]
    elif k == 2:
        low = 0.5 * (a[0][0] + a[1][1]) - np.hypot(0.5 * (a[0][0] - a[1][1]), a[0][1])
    else:
        low = _smallest_of_three(a)
    low = low / scale
    return float(low) if low.ndim == 0 else low


def _smallest_of_three(a: list[list[Array]]) -> Array:
    """Smallest eigenvalue of the symmetric 3 x 3 matrices of entries a[i][j].
    B = (a - qI)/p, q = tr(a)/3, p = |a - qI|_F / sqrt(6), has the
    eigenvalues 2 cos(phi + 2 pi j/3), phi = acos(det(B)/2)/3 (Smith).  Where
    det(B) <= 0 the smallest, j = 1, is isolated; where det(B) > 0 it may be
    double, and acos near 1 loses half the digits, so the isolated largest,
    beta = 2 cos phi, is deflated: with its unit eigenvector v and
    m = -beta/2, the other two are m -/+ |B - mI - (beta - m) vvᵀ|_F / sqrt(2)."""
    q = (a[0][0] + a[1][1] + a[2][2]) / 3
    b = [[x - q if i == j else x for j, x in enumerate(row)] for i, row in enumerate(a)]
    p = np.sqrt(sum(x * x for row in b for x in row) / 6)
    # p = 0 (a = qI) leaves B = 0, whose eigenvalue times p adds 0
    nonzero_p = np.where(p > 0, p, 1.0)
    b = [[x / nonzero_p for x in row] for row in b]
    (b00, b01, b02), (_, b11, b12), (_, _, b22) = b
    det = b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02) + b02 * (b01 * b12 - b11 * b02)
    r = np.clip(0.5 * det, -1.0, 1.0)
    phi = np.arccos(r) / 3
    beta = 2 * np.cos(phi)
    # v: the longest cross product of two rows of B - beta I, of rank 2
    rows = [[x - beta if i == j else x for j, x in enumerate(row)] for i, row in enumerate(b)]
    crosses = [_cross(rows[i], rows[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    norm2 = [sum(c * c for c in cross) for cross in crosses]
    longest = np.argmax(norm2, axis=0)
    norm = np.sqrt(np.maximum(np.choose(longest, norm2), np.finfo(float).tiny))
    v = [np.choose(longest, [cross[c] for cross in crosses]) / norm for c in range(3)]
    mid = -0.5 * beta
    rest = [
        [x - (beta - mid) * v[i] * v[j] - (mid if i == j else 0.0) for j, x in enumerate(row)]
        for i, row in enumerate(b)
    ]
    deflated = mid - np.sqrt(0.5 * sum(x * x for row in rest for x in row))
    return q + p * np.where(r > 0, deflated, 2 * np.cos(phi + 2 * math.pi / 3))


def _cross(u: list[Array], w: list[Array]) -> tuple[Array, Array, Array]:
    return u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0]


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
