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

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import linalg
from .linalg import Array, basis_ket, bell_state, filter1, filter2, kron, rotation

Case = tuple[int, int]

CASES: tuple[Case, ...] = ((1, 1), (1, 2), (2, 1), (2, 2))

FILTER_TOL = 1e-12


class FilteredOutError(ValueError):
    """The state has (numerically) zero probability of passing the filter."""


class PovmSet(NamedTuple):
    """Filter / bit-error / phase-error POVM triple for one case and type."""

    case: Case
    announcement_type: int
    fil: Array
    bit: Array
    ph: Array

    @property
    def dim(self) -> int:
        return self.fil.shape[0]


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


def _party_ops(photons: int, ks: tuple[int, ...], angle: float) -> tuple[Array, Array]:
    """A party's rotated transposed filters M[k] = R^k F^T, stacked over the
    rotations ks, and their images M[k] (|i b> (x) tail) of the bit values
    i in the bases b = z, x, shape (2, K, 2, dim), where the tail is the
    ancillary ket |0x> of a second photon."""
    rot = np.array([rotation(k) for k in ks])
    if photons == 1:
        fil, tail = filter1(angle), np.ones(1)
    elif photons == 2:
        rot = np.einsum("kac,kbd->kabcd", rot, rot).reshape(len(ks), 4, 4)
        fil, tail = filter2(angle), basis_ket("0x")
    else:
        raise ValueError(f"per-party photon number must be 1 or 2, got {photons}")
    m = np.einsum("kij,lj->kil", rot, fil)
    targets = np.array([[kron(basis_ket(f"{i}{b}"), tail) for i in (0, 1)] for b in "zx"])
    return m, np.einsum("kxy,biy->bkix", m, targets)


def _build(case: Case, announcement_type: int, angle: float) -> PovmSet:
    """fil = w sum_k M_k M_k^T with M_k = M_A[k] (x) M_B[k], and bit (ph) =
    w sum_(k, i) |v><v| over the joint images v of Alice's and Bob's bit
    values i in the z (x) basis, where Bob's z bit is flipped for Type2."""
    if case not in CASES:
        raise ValueError(f"unsupported photon-number case {case}")
    n, m = case
    ks, w = _type_terms(announcement_type)
    ma, va = _party_ops(n, ks, angle)
    mb, vb = _party_ops(m, ks, angle)
    if announcement_type == 2:
        vb[0] = vb[0][:, [1, 0]]
    dim = 2 ** (n + m)
    gram_a = np.einsum("kac,kec->kae", ma, ma)
    gram_b = np.einsum("kbd,kfd->kbf", mb, mb)
    fil = w * np.einsum("kae,kbf->abef", gram_a, gram_b).reshape(dim, dim)
    v = np.einsum("skia,skib->skiab", va, vb).reshape(2, -1, dim)
    bit, ph = w * np.einsum("skx,sky->sxy", v, v)
    return PovmSet(case, announcement_type, fil, bit, ph)


@lru_cache(maxsize=None)
def build_povm(case: Case, announcement_type: int) -> PovmSet:
    """POVM triple for the given case and announcement type (memoized;
    the returned arrays must be treated as read-only)."""
    return _build(case, announcement_type, np.pi / 8)


def build_povm_perturbed(case: Case, announcement_type: int, angle: float) -> PovmSet:
    """Debug hook: POVM triple with a perturbed filter angle.  Used by the
    verification suite to confirm the identity checks are sensitive."""
    return _build(case, announcement_type, angle)


def error_rates(povms: PovmSet, rho: Array) -> ErrorPair:
    """Bit/phase error rates of a (density-operator) state under a triple:
    the real parts of the traces Tr(P rho), for a real or complex rho."""
    rho = np.asarray(rho)
    if rho.shape != povms.fil.shape:
        raise ValueError(
            f"state dimension {rho.shape} does not match POVM dimension {povms.fil.shape}"
        )
    p_fil, e_bit, e_ph = np.einsum("tij,ji->t", (povms.fil, povms.bit, povms.ph), rho).real.tolist()
    if p_fil <= FILTER_TOL:
        raise FilteredOutError(f"filter probability {p_fil:g} is numerically zero")
    return ErrorPair(e_bit=e_bit / p_fil, e_ph=e_ph / p_fil, p_fil=p_fil)


def attack_state_22(announcement_type: int, which: int) -> Array:
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
            return (kron(z0, z0, z1, z0) + kron(z1, z0, z0, z1)) / np.sqrt(2)
        raise ValueError(f"Type1 attack index must be 1 or 2, got {which}")
    if announcement_type == 2:
        tails = {1: (x0, x0), 2: (x0, x1), 3: (x1, x0), 4: (x0, x0)}
        if which not in tails:
            raise ValueError(f"Type2 attack index must be 1..4, got {which}")
        bell = psi_m if which == 4 else psi_p
        v = kron(bell, *tails[which])  # order A1' B1' A3' B3'
        return linalg.permute_qubits(v, ["A1", "B1", "A3", "B3"])
    raise ValueError(f"announcement type must be 1 or 2, got {announcement_type}")


def project_attack_from_bell_pairs(announcement_type: int, which: int) -> Array:
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
def block_basis(case: Case) -> tuple[Array, Array]:
    """The orthonormal rows Q (2, k, dim) of the even and odd blocks, by
    Hamming-weight parity, of a case's operators, and the kernel (K, dim)
    they annihilate.  In (1,2) and (2,1) the two photons of one party span
    |0x0x>, |1x1x> and |psi+> (k = 3), and the kernel is their singlet
    |psi-> times the other photon's |0x> and |1x>.  The (1,1) blocks (k = 2)
    are those of any two-qubit operator.  The (2,2) case raises ValueError."""
    x0, x1 = basis_ket("0x"), basis_ket("1x")
    if case == (1, 1):
        return np.array([[kron(x0, x0), kron(x1, x1)], [kron(x0, x1), kron(x1, x0)]]), np.zeros((0, 4))
    if case not in ((1, 2), (2, 1)):
        raise ValueError(f"no blocks of order 3 or less for case {case}")
    # the one photon's ket and the two photons' ket, in canonical order
    join = kron if case == (1, 2) else (lambda one, two: kron(two, one))
    zz, oo, plus, minus = kron(x0, x0), kron(x1, x1), bell_state("psi_plus"), bell_state("psi_minus")
    q = [[join(x0, zz), join(x0, oo), join(x1, plus)], [join(x1, zz), join(x1, oo), join(x0, plus)]]
    return np.array(q), np.array([join(x0, minus), join(x1, minus)])


def to_blocks(case: Case, op: Array) -> Array:
    """The blocks QᵀMQ (..., 2, k, k) of an operator M of a case, or of a
    stack of them (..., dim, dim) (see `block_basis`)."""
    q = block_basis(case)[0]
    return np.einsum("bki,...ij,blj->...bkl", q, op, q)


def block_residual(case: Case, ops: Array) -> float:
    """The largest part of the operators ops (n, dim, dim) of a case that
    `to_blocks` drops: the entries of QᵀMQ between the two blocks, and the
    norm of M times each kernel vector.  The smallest eigenvalue of M is at
    least min(0, its blocks' smallest) minus dim times this residual."""
    q, kernel = block_basis(case)
    images = np.einsum("nij,vj->nvi", ops, kernel)
    parts = [np.abs(np.einsum("ki,nij,lj->nkl", q[b], ops, q[1 - b])) for b in (0, 1)]
    parts.append(np.sqrt(np.einsum("nvi,nvi->nv", images, images)))
    return float(max(part.max(initial=0.0) for part in parts))


def verify_bound_certificate(case: Case, announcement_type: int, s: float, t: float) -> float:
    """Minimum eigenvalue of s*bit + t*fil - ph on the case's blocks, the
    physical (symmetric) subspace; >= -tol certifies the phase-error bound
    e_ph <= s*e_bit + t.  The (2,2) case raises ValueError."""
    p = build_povm(case, announcement_type)
    return float(linalg.block_min_eigenvalue(to_blocks(case, s * p.bit + t * p.fil - p.ph)).min())
