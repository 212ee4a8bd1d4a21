"""Exact small-photon-number model of the untrusted measurement unit.

The unit interferes the two incoming pulses on a 50/50 beamsplitter whose
outputs each pass a polarizing beamsplitter fixed in the +/-45 degree (x)
basis, feeding four threshold detectors.  Detector order throughout is
(D_LD, D_LDbar, D_RD, D_RDbar) = (left transmitted, left reflected,
right transmitted, right reflected).

Photon loss (channel transmittance times detector efficiency) commutes
through passive linear optics, so the response factors exactly in two:

* the lossless arrival table A[a, b]: the yield and error-weighted yield
  of each announcement type when a and b photons reach the beamsplitter
  from Alice's and Bob's arm, averaged over the protocol's signal pairs.
  Dark counts factor out: a click pattern's probability is the sum over
  the sets H of detectors hit by photons of P(H | a, b, pair) D[H, pattern],
  where D is a fixed 16x16 matrix of d^i (1-d)^j products, zero unless H
  lies inside the pattern.  P(H) is exact -- no sampling.  A photon from
  Alice's arm has real output-mode amplitudes u, one from Bob's v, with
  u.v = 0.  All a + b photons land inside a detector subset S with
  probability P_S = sum_k C(a, k) C(b, k) alpha_S^(a-k) beta_S^(b-k)
  gamma_S^(2k), where alpha_S, beta_S and gamma_S sum u_j^2, v_j^2 and
  u_j v_j over j in S: the permanent of the photons' Gram matrix
  restricted to S, over a! b!, with k photons crossing between the two
  blocks (S. Scheel, quant-ph/0406127).  A fixed +/-1 Moebius matrix over
  the 16 subsets turns the P_S into the P(H), so terms cancel: against the
  reference Fock expansion of the tests, the n_max = 3 tables of both
  protocols are within 2.5e-16 absolute and 7.9e-15 relative at dark
  counts from 0 to 0.5, and their exact zeros stay 0.  Every contraction
  is an unoptimized `einsum` (no BLAS);
* binomial thinning B(s)[n, a] = C(n, a) s^a (1-s)^(n-a) of each arm's
  photon number at survival s = t_arm * eta.

The response to an (n, m) emission is Y[n, m] = sum_ab B[n, a] B[m, b]
A[a, b].  The relay's nondemolition postselection of <= 1 arriving photon
per arm acts between channel and detectors, so it only cuts the columns
of the channel thinning: B = B(t_arm)[:, :2] B(eta).  Each photon-number
sector is independent (phase-randomized sources).
"""

from __future__ import annotations

from itertools import product
from math import comb, inf, sqrt
from typing import NamedTuple

import numpy as np

from .linalg import basis_ket, phi_state

N_MAX_DEFAULT = 2
N_MAX_CAP = 3


class _DetectorParams(NamedTuple):
    eta: float
    dark: float


class DetectorParams(_DetectorParams):
    """Threshold-detector quantum efficiency and per-gate dark-count probability."""

    __slots__ = ()

    def __new__(cls, eta: float, dark: float):
        if not 0 < eta <= 1:
            raise ValueError(f"detector efficiency must be in (0, 1], got {eta}")
        if not 0 <= dark < 1:
            raise ValueError(f"dark-count probability must be in [0, 1), got {dark}")
        return super().__new__(cls, eta, dark)

    @classmethod
    def _make(cls, iterable):
        """Build through the checking constructor, so `_replace` checks too."""
        return cls(*iterable)


class _ChannelParams(NamedTuple):
    loss_db_per_km: float
    distance_km: float


class ChannelParams(_ChannelParams):
    """Fiber loss coefficient and total Alice-Bob distance (relay at midpoint)."""

    __slots__ = ()

    def __new__(cls, loss_db_per_km: float, distance_km: float):
        if not (0 <= loss_db_per_km < inf and 0 <= distance_km < inf):
            raise ValueError(
                "loss coefficient and distance must be finite and nonnegative, got "
                f"{loss_db_per_km} dB/km and {distance_km} km"
            )
        return super().__new__(cls, loss_db_per_km, distance_km)

    @classmethod
    def _make(cls, iterable):
        """Build through the checking constructor, so `_replace` checks too."""
        return cls(*iterable)

    @property
    def t_arm(self) -> float:
        """Transmittance of one arm (half the distance)."""
        return 10 ** (-self.loss_db_per_km * (self.distance_km / 2) / 10)


class ClickPattern(NamedTuple):
    """Which of the four threshold detectors fired."""

    d_ld: bool
    d_ldbar: bool
    d_rd: bool
    d_rdbar: bool

    def classify(self) -> int | None:
        """1 for the cross coincidences (psi- signature), 2 for the
        same-side coincidences (psi+), None otherwise.  Exactly two
        detectors must fire; 3- and 4-fold patterns are failures."""
        if sum(self) != 2:
            return None
        if (self.d_ld and self.d_rdbar) or (self.d_rd and self.d_ldbar):
            return 1
        if (self.d_ld and self.d_ldbar) or (self.d_rd and self.d_rdbar):
            return 2
        return None


_ALL_PATTERNS = [ClickPattern(*(bool((p >> j) & 1) for j in range(4))) for p in range(16)]
_PATTERN_CLICKS = np.array(_ALL_PATTERNS, dtype=bool)
# _PATTERN_TYPES[p, t - 1] is 1 where pattern p announces type t
_PATTERN_TYPES = np.array([[pat.classify() == t for t in (1, 2)] for pat in _ALL_PATTERNS], float)
# _MOBIUS[S, H] = (-1)^|H - S| where S lies inside H, else 0: from the
# probabilities that every photon lands inside S to those that the photons
# hit exactly H
_MOBIUS = np.array(
    [[0.0 if s & ~h else (-1.0) ** (h ^ s).bit_count() for h in range(16)] for s in range(16)]
)


def thinning_matrix(s: float | np.ndarray, n_max: int) -> np.ndarray:
    """Binomial thinning B[..., n, k] = C(n, k) s^k (1-s)^(n-k) for n, k <= n_max:
    the probability that k of n photons survive, each with probability s;
    one matrix per element of an array s."""
    k = np.arange(n_max + 1)
    binom = np.array([[comb(n, j) for j in k] for n in k], dtype=float)
    s = np.asarray(s, dtype=float)[..., None]
    return binom * (s**k)[..., None, :] * ((1 - s) ** k)[..., np.maximum(k[:, None] - k, 0)]


def _hit_set_probabilities(u: np.ndarray, v: np.ndarray, n_max: int) -> np.ndarray:
    """P[a, b, x, H]: probability that a photons with the real output-mode
    amplitudes u[x] and b with v[x], u[x].v[x] = 0, hit exactly the detector
    set H (indexed like `_ALL_PATTERNS`), for a, b <= n_max: the subset
    probabilities P_S of the module docstring through `_MOBIUS`."""
    # the detector subsets S are indexed like the patterns
    alpha, beta, gamma = (np.einsum("xj,sj->xs", w, _PATTERN_CLICKS) for w in (u * u, v * v, u * v))
    n = range(n_max + 1)
    pow_a, pow_b = ([w**i for i in n] for w in (alpha, beta))
    pow_g = [gamma ** (2 * k) for k in n]
    inside = np.empty((n_max + 1, n_max + 1, *alpha.shape))
    for a, b in product(n, n):
        inside[a, b] = sum(
            comb(a, k) * comb(b, k) * pow_a[a - k] * pow_b[b - k] * pow_g[k]
            for k in reversed(range(min(a, b) + 1))
        )
    return np.einsum("abxs,sh->abxh", inside, _MOBIUS)


def _dark_count_matrix(dark: float) -> np.ndarray:
    """D[H, pattern]: probability that dark counts turn the hit set H into
    the click pattern (both indexed like `_ALL_PATTERNS`): a hit detector
    fires, any other with probability `dark`."""
    hit = _PATTERN_CLICKS[:, None, :]
    clicks = _PATTERN_CLICKS[None, :, :]
    return np.where(hit, clicks, np.where(clicks, dark, 1 - dark)).prod(axis=2)


# Flip rules per (basis, type): True means the accepted Bell outcome is
# anticorrelated in that encoding, so one party flips and i == i' is an
# error.  psi-+ are both anticorrelated in x; psi+ is correlated in z.
_BB84_ANTICORRELATED = {("key", 1): True, ("key", 2): True, ("test", 1): True, ("test", 2): False}


def _signal_pairs(protocol: str, bb84_basis: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The protocol's signal-state pairs, stacked: Alice's and Bob's real
    polarizations (X, 2) and W (X, 2, 4), which maps each pair's (Type1,
    Type2) probabilities to its share of (yield_1, error_1, yield_2, error_2).

    SARG04 averages uniformly over the bit pairs and over the accepted
    rotations R^k|phi_i> = +/-|phi_(i+k mod 4)> (all k for Type1, k in
    {0, 2} for Type2; the sign is a global phase, and the k = k' sifting
    probability a factor of the rate engine); Alice flips for Type1, so
    i == i' is an error there.  BB84 uses the x-basis key states or z-basis
    test states with the per-type correlation flips of the Bell outcomes.
    """
    pairs = []
    if protocol == "sarg04":
        for i, ip, k in product((0, 1), (0, 1), range(4)):
            w2 = 1 / 8 if k in (0, 2) else 0.0
            weights = [[1 / 16, (i == ip) / 16, 0, 0], [0, 0, w2, w2 * (i != ip)]]
            pairs.append((phi_state((i + k) % 4), phi_state((ip + k) % 4), weights))
    elif protocol != "bb84":
        raise ValueError(f"unknown protocol {protocol!r}")
    elif bb84_basis not in ("key", "test"):
        raise ValueError(f"bb84 basis must be 'key' or 'test', got {bb84_basis!r}")
    else:
        kets = ("0x", "1x") if bb84_basis == "key" else ("0z", "1z")
        for i, ip in product((0, 1), (0, 1)):
            errs = [(i == ip) == _BB84_ANTICORRELATED[(bb84_basis, t)] for t in (1, 2)]
            weights = 0.25 * np.array([[1, errs[0], 0, 0], [0, 0, 1, errs[1]]])
            pairs.append((basis_ket(kets[i]), basis_ket(kets[ip]), weights))
    pol_a, pol_b, weights = zip(*pairs)
    return np.array(pol_a), np.array(pol_b), np.array(weights, dtype=float)


def arrival_table(dark: float, protocol: str, bb84_basis: str, n_max: int) -> np.ndarray:
    """Lossless arrival table A[a, b] = (yield_1, error_1, yield_2, error_2)
    for a, b <= n_max photons reaching the beamsplitter, where error_t is
    the error-weighted yield of announcement type t: the hit-set
    probabilities of all signal pairs contracted with their dark-count
    response D @ _PATTERN_TYPES @ W, shape (X, 16, 4)."""
    if not 0 <= n_max <= N_MAX_CAP:
        raise ValueError(f"n_max must be in [0, {N_MAX_CAP}], got {n_max}")
    pol_a, pol_b, weights = _signal_pairs(protocol, bb84_basis)
    # one photon enters (L0x, L1x, R0x, R1x) with amplitudes pol / sqrt(2),
    # sign-flipped on the right for Bob's arm
    u = np.concatenate([pol_a, pol_a], axis=1) / sqrt(2)
    v = np.concatenate([pol_b, -pol_b], axis=1) / sqrt(2)
    dark_types = np.einsum("hp,pt->ht", _dark_count_matrix(dark), _PATTERN_TYPES)
    response = np.einsum("ht,xtc->xhc", dark_types, weights)
    return np.einsum("abxh,xhc->abc", _hit_set_probabilities(u, v, n_max), response)


def relay_yields(
    det: DetectorParams,
    t_arm: float | np.ndarray,
    protocol: str = "sarg04",
    bb84_basis: str = "key",
    n_max: int = N_MAX_DEFAULT,
    qnd: bool = False,
) -> np.ndarray:
    """Y[n, m] = (yield_1, error_1, yield_2, error_2) of the relay for every
    emission n, m <= n_max: the arrival table thinned by each arm's loss.
    For a 1-D array of transmittances, one contraction gives Y at all of
    them, shape (D, n_max + 1, n_max + 1, 4).

    With `qnd` the relay accepts at most one arriving photon per arm, so
    only arrivals {0, 1} of the channel thinning reach the detectors.
    """
    cut = min(n_max, 1) if qnd else n_max
    table = arrival_table(det.dark, protocol, bb84_basis, cut)
    if qnd:
        channel = thinning_matrix(t_arm, n_max)[..., : cut + 1]
        thin = np.einsum("...ik,kj->...ij", channel, thinning_matrix(det.eta, cut))
    else:
        thin = thinning_matrix(np.multiply(t_arm, det.eta), n_max)
    return np.einsum("...ia,...jb,abc->...ijc", thin, thin, table)


def error_rate(errors: float | np.ndarray, detections: float | np.ndarray) -> float | np.ndarray:
    """Bit error rate errors / detections, the uninformative 0.5 where
    nothing is detected; elementwise on arrays, a float for floats.  Formed
    only where a ratio is consumed: phase bounds, BB84 phase error, mu-table."""
    errors, detections = np.asarray(errors, dtype=float), np.asarray(detections, dtype=float)
    rate = np.full(np.broadcast_shapes(errors.shape, detections.shape), 0.5)
    np.divide(errors, detections, out=rate, where=detections > 0)
    return float(rate) if rate.ndim == 0 else rate
