"""Reference Fock expansion of the measurement unit, one signal pair and
one output occupation at a time.

The creation-operator monomials of each arm are expanded over the four
output modes as dicts of occupation tuples, multiplied out term by term,
and every output occupation's click probabilities are formed with dark
counts on each detector directly.  It is slow and shares no expansion code
with `mdi_sarg04.optics`, which computes the same table from subset
probabilities; the tests compare the two.
"""

from math import factorial, prod, sqrt

import numpy as np

from mdi_sarg04.linalg import Vector
from mdi_sarg04.optics import _ALL_PATTERNS, _PATTERN_TYPES, N_MAX_CAP, _signal_pairs

_PATTERN_CLICKS = np.array(_ALL_PATTERNS)


def _mode_amplitudes(pol: Vector, arm: str) -> list[complex]:
    """Creation-operator amplitudes of one input photon over the four
    output modes (L0x, L1x, R0x, R1x)."""
    a0, a1 = (complex(a) / sqrt(2) for a in pol)
    sign = 1.0 if arm == "a" else -1.0
    return [a0, a1, sign * a0, sign * a1]


def _partitions(total: int):
    for p0 in range(total + 1):
        for p1 in range(total - p0 + 1):
            for p2 in range(total - p0 - p1 + 1):
                yield (p0, p1, p2, total - p0 - p1 - p2)


def _monomials(n: int, pol: Vector | None, arm: str) -> list[tuple[tuple[int, ...], complex]]:
    """Expansion of (sum_j u_j a_j^dag)^n: occupation tuple and coefficient."""
    if not n:
        return [((0, 0, 0, 0), 1.0)]
    u = _mode_amplitudes(pol, arm)
    return [
        (p, factorial(n) / prod(factorial(x) for x in p) * prod(u[j] ** p[j] for j in range(4)))
        for p in _partitions(n)
    ]


def output_photon_distribution(
    n: int, m: int, pol_a: Vector | None, pol_b: Vector | None
) -> dict[tuple[int, int, int, int], float]:
    """Exact photon-number distribution over the four output modes for n
    photons in pol_a from Alice's arm and m in pol_b from Bob's."""
    amps: dict[tuple[int, int, int, int], complex] = {}
    norm = sqrt(factorial(n) * factorial(m))
    for p, up in _monomials(n, pol_a, "a"):
        for q, wq in _monomials(m, pol_b, "b"):
            k = (p[0] + q[0], p[1] + q[1], p[2] + q[2], p[3] + q[3])
            amp = up * wq * prod(sqrt(factorial(kj)) for kj in k) / norm
            amps[k] = amps.get(k, 0.0) + amp
    return {k: float(abs(a) ** 2) for k, a in amps.items() if abs(a) > 1e-300}


def lossless_clicks(
    na: int, mb: int, pol_a: Vector | None, pol_b: Vector | None, dark: float
) -> np.ndarray:
    """Probabilities of the 16 click patterns when na and mb photons reach
    the beamsplitter: a detector fires iff a photon hits it or it
    dark-counts."""
    dist = output_photon_distribution(na, mb, pol_a, pol_b)
    hit = (np.array(list(dist)) >= 1)[:, None, :]
    clicks = _PATTERN_CLICKS[None, :, :]
    per_detector = np.where(hit, clicks, np.where(clicks, dark, 1 - dark))
    return np.array(list(dist.values())) @ per_detector.prod(axis=2)


def oracle_table(dark: float, protocol: str, bb84_basis: str, n_max: int) -> np.ndarray:
    """The arrival table A[a, b] = (yield_1, error_1, yield_2, error_2),
    summed pair by pair over the click patterns of `lossless_clicks`."""
    assert 0 <= n_max <= N_MAX_CAP
    table = np.zeros((n_max + 1, n_max + 1, 4))
    for a in range(n_max + 1):
        for b in range(n_max + 1):
            for pol_a, pol_b, weights in zip(*_signal_pairs(protocol, bb84_basis)):
                clicks = lossless_clicks(a, b, pol_a, pol_b, dark)
                table[a, b] += clicks @ np.array(_PATTERN_TYPES) @ np.array(weights)
    return table
