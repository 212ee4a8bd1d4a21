"""Dense real linear algebra on small qubit spaces, in plain Python.

Every vector and matrix in this package lives in the x-product basis:
|0x> = (1, 0), |1x> = (0, 1), and multi-qubit components are indexed in
tensor (row-major) order of the factors as listed in the constructor call.
All transposes are taken in this basis, which is the basis in which
|phi+> = (|0x 0x> + |1x 1x>)/sqrt(2) is defined, so the ket-transpose
identity (I (x) M)|phi+> = (M^T (x) I)|phi+> holds exactly.  Every ket,
filter, rotation and Bell state of the protocol is real in this basis, so
a ket is a list of floats and a matrix a list of rows; `kron`,
`projector` and `partial_project` also take complex entries, and a
memoized operator may be a tuple of tuples.  Every sum runs term by term
in a fixed order.  `block_min_eigenvalue` is the one eigenvalue routine:
every matrix whose eigenvalues the package takes reduces to symmetric
blocks of order at most 3 (see `povm.block_basis`), whose smallest
eigenvalue has a closed form.  `sum_product` is the package's one dot
product.  The kets come from the floats of `optics.SIGNAL_STATES` and
`optics.BASIS_KETS`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from sys import float_info

from .optics import BASIS_KETS, SIGNAL_STATES

Vector = Sequence[float]
# a list of rows, or a tuple of tuples where the matrix is memoized
Matrix = Sequence[Sequence[float]]

HERMITIAN_TOL = 1e-10


def basis_ket(label: str) -> list[float]:
    """Single-qubit basis ket for label in {0z, 1z, 0x, 1x}."""
    try:
        return list(BASIS_KETS[label])
    except KeyError:
        raise ValueError(f"unknown basis label {label!r}") from None


def phi_state(i: int) -> list[float]:
    """SARG04 signal state: cos(pi/8)|0x> +/- sin(pi/8)|1x> and the
    sin-leading pair, indexed i = 0..3."""
    if i not in (0, 1, 2, 3):
        raise ValueError(f"signal-state index must be 0..3, got {i}")
    return list(SIGNAL_STATES[i])


# (cos, sin) of k pi/4 for k = 0..3, with exact zeros
_HALF_SQRT2 = math.sqrt(0.5)
_COS_SIN = ((1.0, 0.0), (_HALF_SQRT2, _HALF_SQRT2), (0.0, 1.0), (-_HALF_SQRT2, _HALF_SQRT2))


def rotation(k: int) -> list[list[float]]:
    """k-th power of the signal-state cycling rotation, k = 0..3: the real
    orthogonal R^k = [[cos(k pi/4), sin(k pi/4)], [-sin(k pi/4), cos(k pi/4)]],
    with R|phi_i> = +/- |phi_{i+1 mod 4}> and R|phi_0> = |phi_1>."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"rotation power must be 0..3, got {k}")
    c, s = _COS_SIN[k]
    return [[c, s], [-s, c]]


def filter1(angle: float = math.pi / 8) -> list[list[float]]:
    """Single-qubit filter success operator diag(cos a, sin a)."""
    return [[math.cos(angle), 0.0], [0.0, math.sin(angle)]]


def filter2(angle: float = math.pi / 8) -> list[list[float]]:
    """Two-qubit filter success operator for the two-photon emission part.

    cos^2|0x0x><0x0x| + sin^2|0x0x><1x1x| + sqrt(2) cos sin |1x0x><psi+|,
    on the x (x) x product basis.
    """
    c, s = math.cos(angle), math.sin(angle)
    cross = math.sqrt(2) * c * s
    out = [[0.0] * 4 for _ in range(4)]
    out[0][0], out[0][3] = c**2, s**2
    out[2] = [cross * x for x in bell_state("psi_plus")]
    return out


def bell_state(label: str) -> list[float]:
    """Two-qubit Bell state in the x-product basis."""
    h = 1 / math.sqrt(2)
    if label == "psi_plus":
        return [0.0, h, h, 0.0]
    if label == "psi_minus":
        return [0.0, h, -h, 0.0]
    if label == "phi_plus":
        return [h, 0.0, 0.0, h]
    raise ValueError(f"unknown Bell-state label {label!r}")


def kron(*factors: Sequence) -> list:
    """Tensor product of vectors, or of matrices (lists of rows), in
    declared order."""
    out = list(factors[0])
    matrices = hasattr(out[0], "__len__")
    for f in factors[1:]:
        if matrices:
            out = [[x * y for x in row for y in frow] for row in out for frow in f]
        else:
            out = [x * y for x in out for y in f]
    return out


def sum_product(u: Vector, w: Vector) -> float:
    """Sum of u_i w_i, term by term in order (no conjugation)."""
    acc = 0.0
    for x, y in zip(u, w):
        acc += x * y
    return acc


def projector(v: Vector) -> list[list[float]]:
    """Rank-1 projector |v><v| (unnormalized if v is)."""
    conj = [x.conjugate() for x in v]
    return [[x * y for y in conj] for x in v]


def block_min_eigenvalue(h: Matrix) -> float:
    """Smallest eigenvalue of a real symmetric matrix of order k <= 3 (rows
    of real numbers, taken as floats), in closed form: the entry (k = 1),
    the quadratic formula (k = 2), or O. K. Smith's trigonometric form
    (CACM 4(4):168, 1961) (k = 3).  The matrix is first scaled exactly by
    the power of two that takes its largest entry m = f 2^e, f in [1/2, 1),
    to f, so no square overflows or loses digits to underflow.  A complex
    or non-symmetric entry, or k = 0 or k > 3, raises ValueError."""
    try:
        flat = [float(x) for row in h for x in row]
    except TypeError:  # a complex entry, or a row that is not a sequence
        raise ValueError("expected a matrix of real numbers") from None
    k = len(h)
    if not 1 <= k <= 3 or any(len(row) != k for row in h):
        raise ValueError(f"expected a square matrix of order 1 to 3, got {k} rows")
    flat_t = [x for j in range(k) for x in flat[j::k]]
    if not all(abs(x - y) <= HERMITIAN_TOL for x, y in zip(flat, flat_t)):
        raise ValueError("matrix is not real symmetric within tolerance")
    if k == 1:
        return flat[0]
    m = max(max(map(abs, flat)), float_info.min)
    scale = math.frexp(m)[0] / m
    # the scaled symmetric part, row by row
    a = [0.5 * (x * scale + y * scale) for x, y in zip(flat, flat_t)]
    if k == 2:
        a00, a01, _, a11 = a
        low = 0.5 * (a00 + a11) - math.hypot(0.5 * (a00 - a11), a01)
    else:
        low = _smallest_of_three(a)
    return low / scale


def _smallest_of_three(a: list[float]) -> float:
    """Smallest eigenvalue of the symmetric 3 x 3 matrix of the entries a,
    row by row.
    B = (a - qI)/p, q = tr(a)/3, p = |a - qI|_F / sqrt(6), has the
    eigenvalues 2 cos(phi + 2 pi j/3), phi = acos(det(B)/2)/3 (Smith).  Where
    det(B) <= 0 the smallest, j = 1, is isolated; where det(B) > 0 it may be
    double, and acos near 1 loses half the digits, so the isolated largest,
    beta = 2 cos phi, is deflated: with its unit eigenvector v and
    m = -beta/2, the other two are m -/+ |B - mI - (beta - m) vvᵀ|_F / sqrt(2)."""
    a00, a01, a02, _, a11, a12, _, _, a22 = a
    q = (a00 + a11 + a22) / 3
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    p = math.sqrt(_frobenius2(b00, a01, a02, b11, a12, b22) / 6)
    if p == 0:  # a = qI
        return q
    b00, b01, b02, b11, b12, b22 = b00 / p, a01 / p, a02 / p, b11 / p, a12 / p, b22 / p
    det = b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02) + b02 * (b01 * b12 - b11 * b02)
    r = min(max(0.5 * det, -1.0), 1.0)
    phi = math.acos(r) / 3
    if not r > 0:
        return q + p * (2 * math.cos(phi + 2 * math.pi / 3))
    beta = 2 * math.cos(phi)
    # v: the longest cross product of two rows of B - beta I, of rank 2
    r0, r1, r2 = (b00 - beta, b01, b02), (b01, b11 - beta, b12), (b02, b12, b22 - beta)
    best, norm2 = None, -1.0
    for u, w in ((r0, r1), (r0, r2), (r1, r2)):
        cross = (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])
        size = cross[0] * cross[0] + cross[1] * cross[1] + cross[2] * cross[2]
        if size > norm2:
            best, norm2 = cross, size
    norm = math.sqrt(max(norm2, float_info.min))
    v0, v1, v2 = best[0] / norm, best[1] / norm, best[2] / norm
    mid = -0.5 * beta
    c = beta - mid
    d00, d01, d02 = b00 - c * v0 * v0 - mid, b01 - c * v0 * v1, b02 - c * v0 * v2
    d11, d12, d22 = b11 - c * v1 * v1 - mid, b12 - c * v1 * v2, b22 - c * v2 * v2 - mid
    return q + p * (mid - math.sqrt(0.5 * _frobenius2(d00, d01, d02, d11, d12, d22)))


def _frobenius2(b00, b01, b02, b11, b12, b22) -> float:
    """|B|_F^2 of the symmetric 3 x 3 matrix of the given upper entries,
    row by row, in the order of the nine entries."""
    acc = 0.0
    for x in (b00, b01, b02, b01, b11, b12, b02, b12, b22):
        acc += x * x
    return acc


def permute_qubits(v: Vector, order: list) -> list[float]:
    """Reorder the tensor factors of a state vector.

    `order` lists the current qubit labels of `v` in tensor order; the
    result has the factors in sorted-label order.
    """
    n = len(order)
    if len(v) != 2**n:
        raise ValueError("state dimension does not match qubit label count")
    # the bit that output axis i sets in the index of `v`
    bits = [1 << (n - 1 - order.index(lab)) for lab in sorted(order)]
    return [
        v[sum(bit for i, bit in enumerate(bits) if j >> (n - 1 - i) & 1)] for j in range(2**n)
    ]


def _qubits(size: int) -> int:
    n = size.bit_length() - 1
    if size < 1 or 2**n != size:
        raise ValueError("vector length is not a power of two")
    return n


def partial_project(bra: Vector, bra_modes: list[int], state: Vector) -> list[float]:
    """Contract <bra| against the designated tensor factors of `state`.

    `bra_modes` are 0-based qubit indices of `state`, matched positionally
    to the tensor factors of `bra`.  The remaining factors keep their
    original relative order; the result is sub-normalized in general.
    """
    n = _qubits(len(state))
    nb = _qubits(len(bra))
    if len(bra_modes) != nb:
        raise ValueError("bra dimension does not match declared mode count")
    if any(m < 0 or m >= n for m in bra_modes) or len(set(bra_modes)) != nb:
        raise ValueError("invalid mode declaration")
    rest = [m for m in range(n) if m not in bra_modes]
    conj = [x.conjugate() for x in bra]
    out = [0.0] * 2 ** len(rest)
    for index, amp in enumerate(state):
        if not amp:  # an exact zero adds nothing
            continue
        bits = [index >> (n - 1 - m) & 1 for m in range(n)]
        b = sum(bits[m] << (nb - 1 - i) for i, m in enumerate(bra_modes))
        r = sum(bits[m] << (len(rest) - 1 - i) for i, m in enumerate(rest))
        out[r] += conj[b] * amp
    return out
