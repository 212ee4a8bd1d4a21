"""Exact small-photon-number model of the untrusted measurement unit.

The unit interferes the two incoming pulses on a 50/50 beamsplitter whose
outputs each pass a polarizing beamsplitter fixed in the +/-45 degree (x)
basis, feeding four threshold detectors.  Detector order throughout is
(D_LD, D_LDbar, D_RD, D_RDbar) = (left transmitted, left reflected,
right transmitted, right reflected).

Photon loss (channel transmittance times detector efficiency) commutes
through passive linear optics, so the response factors exactly in two:

* the lossless arrival table A[a, b] holds the yield and error-weighted
  yield of each announcement type when a and b photons reach the
  beamsplitter from Alice's and Bob's arm.  It is an exact multinomial
  expansion of the creation-operator monomials with dark counts on every
  detector -- no sampling -- averaged over the protocol's signal states.
  It depends only on the dark-count rate, the protocol, the BB84 basis
  and the photon-number cutoff, so it is built once per combination, at
  the cutoff asked for;
* binomial thinning B(s)[n, a] = C(n, a) s^a (1-s)^(n-a) of each arm's
  photon number at survival s = t_arm * eta.

The response to an (n, m) emission is Y[n, m] = sum_ab B[n, a] B[m, b]
A[a, b].  The relay's nondemolition postselection of <= 1 arriving photon
per arm acts between channel and detectors, so it only cuts the columns
of the channel thinning: B = B(t_arm)[:, :2] @ B(eta).  Each photon-number
sector is independent (phase-randomized sources).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial, inf, prod, sqrt
from typing import NamedTuple

import numpy as np

from .linalg import Complex, basis_ket, phi_state, rotation

N_MAX_DEFAULT = 2
N_MAX_CAP = 3


@dataclass(frozen=True)
class DetectorParams:
    """Threshold-detector quantum efficiency and per-gate dark-count probability."""

    eta: float
    dark: float

    def __post_init__(self):
        if not 0 < self.eta <= 1:
            raise ValueError(f"detector efficiency must be in (0, 1], got {self.eta}")
        if not 0 <= self.dark < 1:
            raise ValueError(f"dark-count probability must be in [0, 1), got {self.dark}")


@dataclass(frozen=True)
class ChannelParams:
    """Fiber loss coefficient and total Alice-Bob distance (relay at midpoint)."""

    loss_db_per_km: float
    distance_km: float

    def __post_init__(self):
        if not (0 <= self.loss_db_per_km < inf and 0 <= self.distance_km < inf):
            raise ValueError(
                "loss coefficient and distance must be finite and nonnegative, got "
                f"{self.loss_db_per_km} dB/km and {self.distance_km} km"
            )

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


@lru_cache(maxsize=32)
def _binomial_table(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C(n, k), the exponent k and the exponent max(n - k, 0) for n, k <= n_max."""
    k = np.arange(n_max + 1)
    binom = np.array([[comb(i, j) for j in k] for i in k], dtype=float)
    return binom, k, np.maximum(k[:, None] - k[None, :], 0)


def thinning_matrix(s: float | np.ndarray, n_max: int) -> np.ndarray:
    """Binomial thinning B[..., n, k] = C(n, k) s^k (1-s)^(n-k) for n, k <= n_max:
    the probability that k of n photons survive, each with probability s;
    one matrix per element of an array s."""
    binom, k, lost = _binomial_table(n_max)
    s = np.asarray(s, dtype=float)[..., None]
    return binom * (s**k)[..., None, :] * ((1 - s) ** k)[..., lost]


def _mode_amplitudes(pol: Complex, arm: str) -> list[complex]:
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


def _monomials(n: int, pol: Complex | None, arm: str) -> list[tuple[tuple[int, ...], complex]]:
    """Expansion of (sum_j u_j a_j^dag)^n: occupation tuple and coefficient."""
    if not n:
        return [((0, 0, 0, 0), 1.0)]
    u = _mode_amplitudes(pol, arm)
    return [
        (p, factorial(n) / prod(factorial(x) for x in p) * prod(u[j] ** p[j] for j in range(4)))
        for p in _partitions(n)
    ]


def output_photon_distribution(
    n: int, m: int, pol_a: Complex | None, pol_b: Complex | None
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


def _lossless_clicks(
    na: int, mb: int, pol_a: Complex | None, pol_b: Complex | None, dark: float
) -> np.ndarray:
    """Probabilities of the 16 click patterns when na and mb photons reach
    the beamsplitter: a detector fires iff a photon hits it or it
    dark-counts."""
    dist = output_photon_distribution(na, mb, pol_a, pol_b)
    hit = (np.array(list(dist)) >= 1)[:, None, :]
    clicks = _PATTERN_CLICKS[None, :, :]
    per_detector = np.where(hit, clicks, np.where(clicks, dark, 1 - dark))
    return np.array(list(dist.values())) @ per_detector.prod(axis=2)


def mu_click_distribution(
    n: int,
    m: int,
    pol_a: Complex | None,
    pol_b: Complex | None,
    det: DetectorParams,
    t_arm: float,
    n_max: int = N_MAX_CAP,
) -> dict[ClickPattern, float]:
    """Probability of each of the 16 click patterns.

    Per-photon survival t_arm * eta thins each arm's photons before the
    interference; a threshold detector fires iff at least one photon
    arrives or a dark count occurs.
    """
    if n > n_max or m > n_max:
        raise ValueError(f"photon numbers ({n}, {m}) above cap {n_max}")
    thin = thinning_matrix(t_arm * det.eta, max(n, m))
    probs = np.zeros(16)
    for na in range(n + 1):
        for mb in range(m + 1):
            w = thin[n, na] * thin[m, mb]
            if w:
                probs += w * _lossless_clicks(na, mb, pol_a, pol_b, det.dark)
    return {_ALL_PATTERNS[i]: float(probs[i]) for i in range(16)}


# Flip rules per (basis, type): True means the accepted Bell outcome is
# anticorrelated in that encoding, so one party flips and i == i' is an
# error.  psi-+ are both anticorrelated in x; psi+ is correlated in z.
_BB84_ANTICORRELATED = {("key", 1): True, ("key", 2): True, ("test", 1): True, ("test", 2): False}


def _signal_pairs(protocol: str, bb84_basis: str) -> list[tuple[Complex, Complex, np.ndarray]]:
    """The protocol's signal-state pairs (pol_a, pol_b, W): W maps the pair's
    (Type1, Type2) probabilities to its share of (yield_1, error_1,
    yield_2, error_2).

    SARG04 averages uniformly over the bit pairs and over the accepted
    rotation values (all k for Type1, k in {0, 2} for Type2; the k = k'
    sifting probability is a separate factor of the rate engine), and
    Alice flips for Type1, so i == i' is an error there.  BB84 uses the
    x-basis key states or z-basis test states with the per-type
    correlation flips of the Bell outcomes.
    """
    pairs = []
    if protocol == "sarg04":
        phis = [phi_state(i) for i in range(4)]
        for i in (0, 1):
            for ip in (0, 1):
                for k in range(4):
                    w1 = 1 / 16
                    w2 = 1 / 8 if k in (0, 2) else 0.0
                    weights = [[w1, w1 * (i == ip), 0, 0], [0, 0, w2, w2 * (i != ip)]]
                    r = rotation(k)
                    pairs.append((r @ phis[i], r @ phis[ip], np.array(weights)))
        return pairs
    if protocol != "bb84":
        raise ValueError(f"unknown protocol {protocol!r}")
    if bb84_basis not in ("key", "test"):
        raise ValueError(f"bb84 basis must be 'key' or 'test', got {bb84_basis!r}")
    kets = ("0x", "1x") if bb84_basis == "key" else ("0z", "1z")
    for i in (0, 1):
        for ip in (0, 1):
            errs = [(i == ip) == _BB84_ANTICORRELATED[(bb84_basis, t)] for t in (1, 2)]
            weights = 0.25 * np.array([[1, errs[0], 0, 0], [0, 0, 1, errs[1]]])
            pairs.append((basis_ket(kets[i]), basis_ket(kets[ip]), weights))
    return pairs


@lru_cache(maxsize=64)
def arrival_table(dark: float, protocol: str, bb84_basis: str, n_max: int) -> np.ndarray:
    """Lossless arrival table A[a, b] = (yield_1, error_1, yield_2, error_2)
    for a, b <= n_max photons reaching the beamsplitter, where error_t is
    the error-weighted yield of announcement type t.  Read-only."""
    if not 0 <= n_max <= N_MAX_CAP:
        raise ValueError(f"n_max must be in [0, {N_MAX_CAP}], got {n_max}")
    pairs = _signal_pairs(protocol, bb84_basis)
    table = np.zeros((n_max + 1, n_max + 1, 4))
    for a in range(n_max + 1):
        for b in range(n_max + 1):
            for pol_a, pol_b, weights in pairs:
                clicks = _lossless_clicks(a, b, pol_a, pol_b, dark)
                table[a, b] += clicks @ _PATTERN_TYPES @ weights
    table.flags.writeable = False
    return table


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
    t_arm = np.asarray(t_arm, dtype=float)
    if qnd:
        cut = min(n_max, 1)
        table = arrival_table(det.dark, protocol, bb84_basis, cut)
        thin = thinning_matrix(t_arm, n_max)[..., : cut + 1] @ thinning_matrix(det.eta, cut)
    else:
        table = arrival_table(det.dark, protocol, bb84_basis, n_max)
        thin = thinning_matrix(t_arm * det.eta, n_max)
    return np.einsum("...ia,...jb,abc->...ijc", thin, thin, table)


def error_rate(errors: float | np.ndarray, detections: float | np.ndarray) -> float | np.ndarray:
    """Bit error rate errors / detections; the uninformative 0.5 where
    nothing is detected.  Elementwise on arrays; a float for floats."""
    errors, detections = np.asarray(errors, dtype=float), np.asarray(detections, dtype=float)
    rate = np.full(np.broadcast_shapes(errors.shape, detections.shape), 0.5)
    np.divide(errors, detections, out=rate, where=detections > 0)
    return float(rate) if rate.ndim == 0 else rate


class MuEntry(NamedTuple):
    """Per-(n,m) conditional yields and bit error rates of the relay,
    split by announcement type.  Error rates of zero-yield entries are
    reported as the uninformative value 0.5."""

    yield_type1: float
    ebit_type1: float
    yield_type2: float
    ebit_type2: float

    @classmethod
    def from_yields(cls, y) -> "MuEntry":
        """Entry from one row (yield_1, error_1, yield_2, error_2) of relay_yields."""
        return cls(float(y[0]), error_rate(y[1], y[0]), float(y[2]), error_rate(y[3], y[2]))


def yields_and_errors(
    n: int,
    m: int,
    det: DetectorParams,
    t_arm: float,
    protocol: str = "sarg04",
    bb84_basis: str = "key",
    n_max: int = N_MAX_CAP,
) -> MuEntry:
    """Conditional yields and bit error rates for an (n, m) emission
    (see relay_yields and _signal_pairs)."""
    if n > n_max or m > n_max:
        raise ValueError(f"photon numbers ({n}, {m}) above cap {n_max}")
    return MuEntry.from_yields(relay_yields(det, t_arm, protocol, bb84_basis, max(n, m))[n, m])


@dataclass(frozen=True)
class MuResponse:
    """Table of MuEntry values for all (n, m) up to n_max."""

    det: DetectorParams
    t_arm: float
    protocol: str
    n_max: int
    entries: dict[tuple[int, int], MuEntry] = field(compare=False)


def mu_response(
    det: DetectorParams,
    t_arm: float,
    protocol: str = "sarg04",
    bb84_basis: str = "key",
    n_max: int = N_MAX_DEFAULT,
) -> MuResponse:
    """Evaluate the relay response for every (n, m) with n, m <= n_max."""
    y = relay_yields(det, t_arm, protocol, bb84_basis, n_max)
    entries = {
        (n, m): MuEntry.from_yields(y[n, m]) for n in range(n_max + 1) for m in range(n_max + 1)
    }
    return MuResponse(det=det, t_arm=t_arm, protocol=protocol, n_max=n_max, entries=entries)
