"""POVM triples of the virtual filtering protocol and Eve's two-photon attack.

Constructs the (filter, bit-error, phase-error) POVM elements for the
photon-number cases (1,1), (1,2), (2,1) and (2,2) in both announcement
types, evaluates error rates of adversarial states, and builds the
explicit four-photon attack states for the (2,2) case.  The operators of
(1,1), (1,2) and (2,1) reduce to blocks of order at most 3 (`block_basis`).

Canonical qubit order is Alice's primed modes ascending, then Bob's
primed modes ascending; e.g. the (2,2) operators act on A1' A3' B1' B3'.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from . import linalg
from .linalg import Matrix, basis_ket, bell_state, filter1, filter2, kron, rotation, sum_product

Case = tuple[int, int]

CASES: tuple[Case, ...] = ((1, 1), (1, 2), (2, 1), (2, 2))

FILTER_TOL = 1e-12


class FilteredOutError(ValueError):
    """The state has (numerically) zero probability of passing the filter."""


class PovmSet(NamedTuple):
    """Filter / bit-error / phase-error POVM triple for one case and type,
    each a tuple of rows."""

    case: Case
    announcement_type: int
    fil: Matrix
    bit: Matrix
    ph: Matrix

    @property
    def dim(self) -> int:
        return len(self.fil)


class ErrorPair(NamedTuple):
    """Normalized bit and phase error rates with the filter probability."""

    e_bit: float
    e_ph: float
    p_fil: float


def _type_terms(announcement_type: int):
    if announcement_type == 1:
        return (0, 1, 2, 3), 0.25
    if announcement_type == 2:
        return (0, 2), 0.5
    raise ValueError(f"announcement type must be 1 or 2, got {announcement_type}")


def _party_ops(photons: int, ks: tuple[int, ...], angle: float):
    """A party's rotated transposed filters M[k] = R^k F^T over the rotations
    ks, and their images M[k] (|i b> (x) tail) of the bit values i in the
    bases b = z, x, indexed [b][k][i], where the tail is the ancillary ket
    |0x> of a second photon."""
    if photons == 1:
        rots, fil, tail = [rotation(k) for k in ks], filter1(angle), [1.0]
    elif photons == 2:
        rots = [kron(rotation(k), rotation(k)) for k in ks]
        fil, tail = filter2(angle), basis_ket("0x")
    else:
        raise ValueError(f"per-party photon number must be 1 or 2, got {photons}")
    m = [[[sum_product(r_row, f_row) for f_row in fil] for r_row in rot] for rot in rots]
    targets = [[kron(basis_ket(f"{i}{b}"), tail) for i in (0, 1)] for b in "zx"]
    return m, [[[[sum_product(row, t) for row in mk] for t in tb] for mk in m] for tb in targets]


def _gram(w: float, vectors: list[list[float]]) -> Matrix:
    """w sum_v |v><v| over the real vectors, term by term in order."""
    cols = list(zip(*vectors))
    return tuple(tuple(w * sum_product(x, y) for y in cols) for x in cols)


def build_povm(case: Case, announcement_type: int, angle: float = math.pi / 8) -> PovmSet:
    """POVM triple for the given case and announcement type at the filter
    angle (memoized per (case, type, angle), however the angle is passed;
    the operators are tuples of tuples, so no caller can change them).
    fil = w sum_k M_k M_k^T with M_k = M_A[k] (x) M_B[k], and bit (ph) =
    w sum_(k, i) |v><v| over the joint images v of Alice's and Bob's bit
    values i in the z (x) basis, where Bob's z bit is flipped for Type2."""
    return _build_povm(case, announcement_type, float(angle))


@lru_cache(maxsize=None)
def _build_povm(case: Case, announcement_type: int, angle: float) -> PovmSet:
    if case not in CASES:
        raise ValueError(f"unsupported photon-number case {case}")
    n, m = case
    ks, w = _type_terms(announcement_type)
    ma, va = _party_ops(n, ks, angle)
    mb, vb = _party_ops(m, ks, angle)
    if announcement_type == 2:
        vb[0] = [[one, zero] for zero, one in vb[0]]
    grams = [[[[sum_product(r, s) for s in mk] for r in mk] for mk in ops] for ops in (ma, mb)]
    # each party's Gram entries G[k][a][e] as [a][e], a tuple over k
    ga, gb = ([list(zip(*rows)) for rows in zip(*g)] for g in grams)
    fil = tuple(tuple(w * sum_product(x, y) for x in ra for y in rb) for ra in ga for rb in gb)
    # per basis, the joint images over (k, i)
    bit, ph = (
        _gram(w, [kron(a, b) for ka, kb in zip(*images) for a, b in zip(ka, kb)]) for images in zip(va, vb)
    )
    return PovmSet(case, announcement_type, fil, bit, ph)


def _trace_product(p: Matrix, cols: list) -> float:
    """Re Tr(P rho), given the columns of rho, term by term in order."""
    acc = 0.0
    for row, col in zip(p, cols):
        for x, y in zip(row, col):
            acc += x * y
    return acc.real


def error_rates(povms: PovmSet, rho: Matrix) -> ErrorPair:
    """Bit/phase error rates of a (density-operator) state under a triple:
    the real parts of the traces Tr(P rho), for a real or complex rho."""
    dim = povms.dim
    if len(rho) != dim or any(len(row) != dim for row in rho):
        raise ValueError(f"state dimension {len(rho)} does not match POVM dimension {dim}")
    cols = list(zip(*rho))
    p_fil, e_bit, e_ph = (_trace_product(op, cols) for op in (povms.fil, povms.bit, povms.ph))
    if p_fil <= FILTER_TOL:
        raise FilteredOutError(f"filter probability {p_fil:g} is numerically zero")
    return ErrorPair(e_bit=e_bit / p_fil, e_ph=e_ph / p_fil, p_fil=p_fil)


def attack_state_22(announcement_type: int, which: int) -> list[float]:
    """Eve's four-photon attack states on A1' A3' B1' B3' (canonical order).

    Type1 exposes the orthogonal pair mu_1, mu_2 (which = 1, 2); Type2 the
    four orthogonal states nu_1..nu_4 (which = 1..4).
    """
    psi_m = bell_state("psi_minus")
    psi_p = bell_state("psi_plus")
    x0, x1 = basis_ket("0x"), basis_ket("1x")
    z0, z1 = basis_ket("0z"), basis_ket("1z")
    if announcement_type == 1:
        if which == 1:
            # psi- on (A1', B3'), |0x> on A3', |1x> on B1'
            v = kron(psi_m, x0, x1)
            return linalg.permute_qubits(v, ["A1", "B3", "A3", "B1"])
        if which == 2:
            h = math.sqrt(2)
            return [(x + y) / h for x, y in zip(kron(z0, z0, z1, z0), kron(z1, z0, z0, z1))]
        raise ValueError(f"Type1 attack index must be 1 or 2, got {which}")
    if announcement_type == 2:
        tails = {1: (x0, x0), 2: (x0, x1), 3: (x1, x0), 4: (x0, x0)}
        if which not in tails:
            raise ValueError(f"Type2 attack index must be 1..4, got {which}")
        bell = psi_m if which == 4 else psi_p
        v = kron(bell, *tails[which])  # order A1' B1' A3' B3'
        return linalg.permute_qubits(v, ["A1", "B1", "A3", "B3"])
    raise ValueError(f"announcement type must be 1 or 2, got {announcement_type}")


def project_attack_from_bell_pairs(announcement_type: int, which: int) -> list[float]:
    """Post-measurement state (unnormalized) of the primed modes when Eve
    projects her four ancilla photons onto an attack state.

    Starting from |phi+> pairs (A1'A2)(B1'B2)(A3'A4)(B3'B4), contracting
    the attack bra against A2 B2 A4 B4 leaves the same attack state on the
    primed modes with amplitude 1/4 (success probability 1/16).
    """
    phi_p = bell_state("phi_plus")
    # qubit order: A1' A2 B1' B2 A3' A4 B3' B4 -> indices 0..7
    full = kron(phi_p, phi_p, phi_p, phi_p)
    mu = attack_state_22(announcement_type, which)
    # attack state is on (A1', A3', B1', B3'); Eve measures the partner
    # ancillas (A2, A4, B2, B4) in the same component order
    res = linalg.partial_project(mu, [1, 5, 3, 7], full)
    # surviving axes are A1' B1' A3' B3'; restore canonical order
    return linalg.permute_qubits(res, ["A1", "B1", "A3", "B3"])


@lru_cache(maxsize=None)
def block_basis(case: Case) -> tuple[tuple[Matrix, Matrix], Matrix]:
    """The orthonormal rows Q_b of the even and odd blocks (b = 0, 1), by
    Hamming-weight parity, of a case's operators, and the kernel rows they
    annihilate, as tuples.  In (1,2) and (2,1) the two photons of one party
    span |0x0x>, |1x1x> and |psi+> (k = 3 rows per block), and the kernel
    is their singlet |psi-> times the other photon's |0x> and |1x>.  The
    (1,1) blocks (k = 2) are those of any two-qubit operator, with no
    kernel.  The (2,2) case raises ValueError."""
    x0, x1 = basis_ket("0x"), basis_ket("1x")
    if case == (1, 1):
        q = [[kron(x0, x0), kron(x1, x1)], [kron(x0, x1), kron(x1, x0)]]
        kernel = []
    elif case in ((1, 2), (2, 1)):
        # the one photon's ket and the two photons' ket, in canonical order
        join = kron if case == (1, 2) else (lambda one, two: kron(two, one))
        zz, oo, plus, minus = kron(x0, x0), kron(x1, x1), bell_state("psi_plus"), bell_state("psi_minus")
        q = [[join(x0, zz), join(x0, oo), join(x1, plus)], [join(x1, zz), join(x1, oo), join(x0, plus)]]
        kernel = [join(x0, minus), join(x1, minus)]
    else:
        raise ValueError(f"no blocks of order 3 or less for case {case}")
    return tuple(tuple(map(tuple, rows)) for rows in q), tuple(map(tuple, kernel))


@lru_cache(maxsize=None)
def _sparse_blocks(case: Case):
    """The block rows of `block_basis`, each as its nonzero (index, value) pairs."""
    return tuple(
        tuple(tuple((i, x) for i, x in enumerate(row) if x) for row in rows)
        for rows in block_basis(case)[0]
    )


def _sandwich(u, op: Matrix, w) -> float:
    """u M wᵀ for the sparse rows u and w, term by term in order."""
    acc = 0.0
    for i, a in u:
        row = op[i]
        for j, b in w:
            acc += a * row[j] * b
    return acc


def to_blocks(case: Case, op: Matrix) -> list[list[list[float]]]:
    """The two blocks Q_b M Q_bᵀ of order k of an operator M of a case (see
    `block_basis`)."""
    return [[[_sandwich(u, op, w) for w in rows] for u in rows] for rows in _sparse_blocks(case)]


def block_residual(case: Case, ops: list[Matrix]) -> float:
    """The largest part of the operators ops of a case that `to_blocks`
    drops: the entries of Q_b M Q_(1-b)ᵀ between the two blocks, and the
    norm of M times each kernel vector.  The smallest eigenvalue of M is at
    least min(0, its blocks' smallest) minus dim times this residual."""
    even, odd = _sparse_blocks(case)
    kernel = block_basis(case)[1]
    worst = 0.0
    for op in ops:
        for rows, others in ((even, odd), (odd, even)):
            worst = max([worst] + [abs(_sandwich(u, op, w)) for u in rows for w in others])
        for v in kernel:
            image = [sum_product(row, v) for row in op]
            worst = max(worst, math.sqrt(sum_product(image, image)))
    return worst


@lru_cache(maxsize=None)
def _triple_blocks(case: Case, announcement_type: int, angle: float):
    """Per block of a case's triple, the rows of its bit, fil and ph blocks
    side by side, as tuples."""
    p = build_povm(case, announcement_type, angle)
    return tuple(tuple(zip(*ops)) for ops in zip(*(to_blocks(case, op) for op in (p.bit, p.fil, p.ph))))


def verify_bound_certificate(
    case: Case, announcement_type: int, s: float, t: float, angle: float = math.pi / 8
) -> float:
    """Minimum eigenvalue of s*bit + t*fil - ph on the case's blocks, the
    physical (symmetric) subspace, at the filter angle; >= -tol certifies
    the phase-error bound e_ph <= s*e_bit + t.  The (2,2) case raises
    ValueError."""
    return min(
        linalg.block_min_eigenvalue([[s * x + t * y - z for x, y, z in zip(*rows)] for rows in block])
        for block in _triple_blocks(case, announcement_type, angle)
    )
