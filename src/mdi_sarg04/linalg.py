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
which never dispatch to BLAS; the one LAPACK call is the eigenvalue solve
of `min_eigenvalue`.
"""

from __future__ import annotations

import numpy as np

# a float64 array (complex only where a caller passes one); a plain alias,
# since numpy.typing costs about 1 ms to import
Array = np.ndarray

HERMITIAN_TOL = 1e-10

# x-basis single-qubit kets
_KET_0X = np.array([1.0, 0.0])
_KET_1X = np.array([0.0, 1.0])
_KET_0Z = (_KET_0X + _KET_1X) / np.sqrt(2)
_KET_1Z = (_KET_0X - _KET_1X) / np.sqrt(2)

_BASIS_KETS = {"0x": _KET_0X, "1x": _KET_1X, "0z": _KET_0Z, "1z": _KET_1Z}

_COS8 = np.cos(np.pi / 8)
_SIN8 = np.sin(np.pi / 8)


def basis_ket(label: str) -> Array:
    """Single-qubit basis ket for label in {0z, 1z, 0x, 1x}."""
    try:
        return _BASIS_KETS[label].copy()
    except KeyError:
        raise ValueError(f"unknown basis label {label!r}") from None


def phi_state(i: int) -> Array:
    """SARG04 signal state: cos(pi/8)|0x> +/- sin(pi/8)|1x> and the
    sin-leading pair, indexed i = 0..3."""
    if i == 0:
        return _COS8 * _KET_0X + _SIN8 * _KET_1X
    if i == 1:
        return _COS8 * _KET_0X - _SIN8 * _KET_1X
    if i == 2:
        return _SIN8 * _KET_0X - _COS8 * _KET_1X
    if i == 3:
        return _SIN8 * _KET_0X + _COS8 * _KET_1X
    raise ValueError(f"signal-state index must be 0..3, got {i}")


# (cos, sin) of k pi/4 for k = 0..3, with exact zeros
_HALF_SQRT2 = np.sqrt(0.5)
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


def min_eigenvalue(h: Array, tol: float = HERMITIAN_TOL) -> float | np.ndarray:
    """Smallest eigenvalue of a Hermitian matrix, or of each one of a stack
    (..., n, n): a real symmetric solve for a real h, a complex one otherwise."""
    h = np.asarray(h)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {h.shape}")
    if not is_hermitian(h, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    low = np.linalg.eigvalsh(h)[..., 0]
    return float(low) if low.ndim == 0 else low


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
