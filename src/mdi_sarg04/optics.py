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
  counts from 0 to 0.5, and their exact zeros stay 0.  The table is built
  in plain Python floats, one (a, b) cell at a time, and each sum runs in
  a fixed order;
* binomial thinning B(s)[n, a] = C(n, a) s^a (1-s)^(n-a) of each arm's
  photon number at survival s.

Thinning composes, B(t eta) = B(t) B(eta), so `relay` thins the table by
the detectors once, A_eta = B(eta) A B(eta)^T, and the response to an
(n, m) emission is one channel thinning Y[n, m] = sum_ab B[n, a] B[m, b]
A_eta[a, b] with B = B(t_arm).  The relay's nondemolition postselection
of <= 1 arriving photon per arm acts between channel and detectors, so
the QND A_eta stops at a, b = 1 and the sum drops the columns of B(t_arm)
past it.  Each photon-number sector is independent (phase-randomized
sources).

Tables are nested lists: A[a][b] and Y[n][m] are lists of four floats.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import product
from math import comb, cos, inf, pi, sin, sqrt
from typing import NamedTuple

N_MAX_DEFAULT = 2
N_MAX_CAP = 3

# x-basis components of the SARG04 signal states |phi_i> and of the BB84
# kets; `linalg` builds its vectors from these
_COS8, _SIN8 = cos(pi / 8), sin(pi / 8)
SIGNAL_STATES = ((_COS8, _SIN8), (_COS8, -_SIN8), (_SIN8, -_COS8), (_SIN8, _COS8))
_HALF = 1 / sqrt(2)
BASIS_KETS = {"0x": (1.0, 0.0), "1x": (0.0, 1.0), "0z": (_HALF, _HALF), "1z": (_HALF, -_HALF)}


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


# pattern p fires detector j where bit j of p is set; a detector subset or
# hit set is indexed the same way
_ALL_PATTERNS = [ClickPattern(*(bool((p >> j) & 1) for j in range(4))) for p in range(16)]
# _PATTERN_TYPES[p][t - 1] is 1.0 where pattern p announces type t
_PATTERN_TYPES = [[float(pat.classify() == t) for t in (1, 2)] for pat in _ALL_PATTERNS]
# the Moebius step from the probabilities that every photon lands inside S
# to those that the photons hit exactly H: for each S, every H containing
# S with its sign (-1)^|H - S|
_SUPERSETS = [
    [(h, (-1.0) ** (h ^ s).bit_count()) for h in range(16) if not s & ~h] for s in range(16)
]


def thinning_matrix(s: float, n_max: int) -> list[list[float]]:
    """Binomial thinning B[n][k] = C(n, k) s^k (1-s)^(n-k) for n, k <= n_max:
    the probability that k of n photons survive, each with probability s."""
    return [
        [comb(n, k) * s**k * (1 - s) ** (n - k) if k <= n else 0.0 for k in range(n_max + 1)]
        for n in range(n_max + 1)
    ]


def _subset_sums(u, v) -> list[list[tuple[float, float, float]]]:
    """(alpha_S, beta_S, gamma_S) of every signal pair x and detector subset
    S: the sums of u[x][j]^2, v[x][j]^2 and u[x][j] v[x][j] over j in S."""
    sums = []
    for ux, vx in zip(u, v):
        row = []
        for s in range(16):
            alpha = beta = gamma = 0.0
            for j in range(4):
                if s >> j & 1:
                    alpha += ux[j] * ux[j]
                    beta += vx[j] * vx[j]
                    gamma += ux[j] * vx[j]
            row.append((alpha, beta, gamma))
        sums.append(row)
    return sums


def _hit_set_probabilities(sums, a: int, b: int) -> list[list[float]]:
    """P[x][H]: probability that a photons with the real output-mode
    amplitudes u[x] and b with v[x], u[x].v[x] = 0, hit exactly the detector
    set H (indexed like `_ALL_PATTERNS`), from the `_subset_sums` of u and
    v: the subset probabilities P_S of the module docstring through the
    Moebius step."""
    terms = [(comb(a, k) * comb(b, k), a - k, b - k, 2 * k) for k in reversed(range(min(a, b) + 1))]
    out = []
    for row in sums:
        hits = [0.0] * 16
        for (alpha, beta, gamma), supersets in zip(row, _SUPERSETS):
            inside = 0.0
            for c, i, j, k in terms:
                inside += c * alpha**i * beta**j * gamma**k
            for h, sign in supersets:
                hits[h] += sign * inside
        out.append(hits)
    return out


def _dark_count_matrix(dark: float) -> list[list[float]]:
    """D[H][pattern]: probability that dark counts turn the hit set H into
    the click pattern (both indexed like `_ALL_PATTERNS`): a hit detector
    fires, any other with probability `dark`."""
    out = []
    for hit in _ALL_PATTERNS:
        row = []
        for clicks in _ALL_PATTERNS:
            f = [float(c) if h else (dark if c else 1 - dark) for h, c in zip(hit, clicks)]
            row.append(f[0] * f[1] * f[2] * f[3])
        out.append(row)
    return out


# Flip rules per (basis, type): True means the accepted Bell outcome is
# anticorrelated in that encoding, so one party flips and i == i' is an
# error.  psi-+ are both anticorrelated in x; psi+ is correlated in z.
_BB84_ANTICORRELATED = {("key", 1): True, ("key", 2): True, ("test", 1): True, ("test", 2): False}


def _signal_pairs(protocol: str, bb84_basis: str) -> tuple[list, list, list]:
    """The protocol's signal-state pairs: Alice's and Bob's real
    polarizations, one (x, z) pair of floats per signal pair, and W[x], a
    2 x 4 list mapping the pair's (Type1, Type2) probabilities to its share
    of (yield_1, error_1, yield_2, error_2).

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
            weights = [[1 / 16, (i == ip) / 16, 0.0, 0.0], [0.0, 0.0, w2, w2 * (i != ip)]]
            pairs.append((SIGNAL_STATES[(i + k) % 4], SIGNAL_STATES[(ip + k) % 4], weights))
    elif protocol != "bb84":
        raise ValueError(f"unknown protocol {protocol!r}")
    elif bb84_basis not in ("key", "test"):
        raise ValueError(f"bb84 basis must be 'key' or 'test', got {bb84_basis!r}")
    else:
        kets = ("0x", "1x") if bb84_basis == "key" else ("0z", "1z")
        for i, ip in product((0, 1), (0, 1)):
            errs = [0.25 * ((i == ip) == _BB84_ANTICORRELATED[(bb84_basis, t)]) for t in (1, 2)]
            weights = [[0.25, errs[0], 0.0, 0.0], [0.0, 0.0, 0.25, errs[1]]]
            pairs.append((BASIS_KETS[kets[i]], BASIS_KETS[kets[ip]], weights))
    pol_a, pol_b, weights = zip(*pairs)
    return list(pol_a), list(pol_b), list(weights)


def arrival_table(dark: float, protocol: str, bb84_basis: str, n_max: int) -> list:
    """Lossless arrival table A[a][b] = [yield_1, error_1, yield_2, error_2]
    for a, b <= n_max photons reaching the beamsplitter, where error_t is
    the error-weighted yield of announcement type t: the hit-set
    probabilities of every signal pair x summed against its dark-count
    response R[x][H] = D @ _PATTERN_TYPES @ W[x], over x, then H."""
    if not 0 <= n_max <= N_MAX_CAP:
        raise ValueError(f"n_max must be in [0, {N_MAX_CAP}], got {n_max}")
    pol_a, pol_b, weights = _signal_pairs(protocol, bb84_basis)
    # one photon enters (L0x, L1x, R0x, R1x) with amplitudes pol / sqrt(2),
    # sign-flipped on the right for Bob's arm
    root2 = sqrt(2)
    u = [(x / root2, z / root2, x / root2, z / root2) for x, z in pol_a]
    v = [(x / root2, z / root2, -x / root2, -z / root2) for x, z in pol_b]
    sums = _subset_sums(u, v)
    # D @ _PATTERN_TYPES: per hit set, the probability of announcing each type
    dark_types = []
    for row in _dark_count_matrix(dark):
        d1 = d2 = 0.0
        for d, (type1, type2) in zip(row, _PATTERN_TYPES):
            d1 += d * type1
            d2 += d * type2
        dark_types.append((d1, d2))
    response = [
        [tuple(d1 * w[0][c] + d2 * w[1][c] for c in range(4)) for d1, d2 in dark_types]
        for w in weights
    ]
    return [
        [
            _combine(
                (p, r)
                for hits, resp in zip(_hit_set_probabilities(sums, a, b), response)
                for p, r in zip(hits, resp)
            )
            for b in range(n_max + 1)
        ]
        for a in range(n_max + 1)
    ]


def _combine(terms) -> list[float]:
    """The sum of w c over the (w, c) of terms, for each entry of the
    four-entry rows c, term by term in order."""
    y1 = e1 = y2 = e2 = 0.0
    for w, (c0, c1, c2, c3) in terms:
        y1 += w * c0
        e1 += w * c1
        y2 += w * c2
        e2 += w * c3
    return [y1, e1, y2, e2]


def relay(
    det: DetectorParams,
    protocol: str = "sarg04",
    bb84_basis: str = "key",
    n_max: int = N_MAX_DEFAULT,
    qnd: bool = False,
) -> Callable[[float], list]:
    """t_arm -> relay_yields(det, t_arm, protocol, bb84_basis, n_max, qnd):
    A_eta = B(eta) A B(eta)^T is built here, once, up to the relay's cut
    (1 with `qnd`), and each call is B(t_arm) A_eta B(t_arm)^T."""
    cut = min(n_max, 1) if qnd else n_max
    table = _thin(arrival_table(det.dark, protocol, bb84_basis, cut), thinning_matrix(det.eta, cut))
    return lambda t_arm: _thin(table, thinning_matrix(t_arm, n_max))


def _thin(table: list, thin: list[list[float]]) -> list:
    """B A B^T, Y[n][m] = sum_ab B[n][a] B[m][b] A[a][b]; the columns a of B
    past the table's last row drop out, which is the QND relay's cut."""
    return [
        [
            _combine(
                (ta * tb, cell)
                for ta, table_a in zip(thin_n, table)
                for tb, cell in zip(thin_m, table_a)
            )
            for thin_m in thin
        ]
        for thin_n in thin
    ]


def relay_yields(
    det: DetectorParams,
    t_arm: float,
    protocol: str = "sarg04",
    bb84_basis: str = "key",
    n_max: int = N_MAX_DEFAULT,
    qnd: bool = False,
) -> list:
    """Y[n][m] = [yield_1, error_1, yield_2, error_2] of the relay for every
    emission n, m <= n_max: the arrival table thinned by the detectors and
    by each arm's loss at the one-arm transmittance t_arm.

    With `qnd` the relay accepts at most one arriving photon per arm, so
    only arrivals {0, 1} of the channel thinning reach the detectors.
    """
    return relay(det, protocol, bb84_basis, n_max, qnd)(t_arm)


def error_rate(errors: float, detections: float) -> float:
    """Bit error rate errors / detections, the uninformative 0.5 where
    nothing is detected.  Formed only where a ratio is consumed: phase
    bounds, BB84 phase error, mu-table."""
    return errors / detections if detections > 0 else 0.5
