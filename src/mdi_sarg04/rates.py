"""Gain assembly and asymptotic key-rate evaluation.

Combines the senders' emission probabilities with the relay yields to form
per-(n,m) gains, applies the phase-error bounds, and evaluates the
asymptotic key-rate formula per announcement type, plus a simplified
MDI-BB84 comparator.  Infinite decoy states are assumed: every
per-photon-number gain and error rate is known exactly.

Gains, totals and key fractions are arrays over mean photon numbers,
and over (distance, mean photon number) in a sweep (`gain_kernel`); the
table of one pair of emission distributions (`assemble_gains`) is the
one-row view of the same arrays.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .bounds import binary_entropy, phase_bound
from .optics import N_MAX_DEFAULT, DetectorParams, error_rate, relay_yields

# probability that the broadcast rotation labels satisfy the sifting rule:
# k = k' for Type1 (1/4), k = k' restricted to {0, 2} for Type2 (1/8)
SIFT_FACTOR = {1: 0.25, 2: 0.125}

KEY_CASES = ((1, 1), (1, 2), (2, 1))

# announcement types whose key fraction counts in the total, per type selection
INCLUDED_TYPES = {"both": (1, 2), "type1_only": (1,), "type2_only": (2,)}


@dataclass(frozen=True)
class TypeGains:
    """Per-(n,m) gains and bit error rates for one announcement type.

    In a table over mean photon numbers each gain and total is an array
    with one entry per mean photon number (per distance and mean photon
    number in a sweep); the bit error rates depend on the relay alone and
    are floats at one distance, (D, 1) arrays at D distances."""

    q: dict[tuple[int, int], float | np.ndarray]
    ebit: dict[tuple[int, int], float | np.ndarray]
    q_tot: float | np.ndarray
    e_tot: float | np.ndarray

    def at(self, k) -> "TypeGains":
        return TypeGains(
            q={nm: float(v[k]) for nm, v in self.q.items()},
            ebit={nm: float(v[k]) if np.ndim(v) else v for nm, v in self.ebit.items()},
            q_tot=float(self.q_tot[k]),
            e_tot=float(self.e_tot[k]),
        )


@dataclass(frozen=True)
class GainTable:
    """Gains for both announcement types plus the heralding probability
    (1 for non-heralded sources); rates built from this table are per
    (heralded) pulse pair."""

    type1: TypeGains
    type2: TypeGains
    herald_probability: float | np.ndarray = 1.0
    protocol: str = "sarg04"

    def for_type(self, announcement_type: int) -> TypeGains:
        if announcement_type == 1:
            return self.type1
        if announcement_type == 2:
            return self.type2
        raise ValueError(f"announcement type must be 1 or 2, got {announcement_type}")

    def at(self, k) -> "GainTable":
        """Entry k of a table over mean photon numbers (an index tuple over
        distances and mean photon numbers), with floats."""
        return GainTable(
            self.type1.at(k), self.type2.at(k), float(self.herald_probability[k]), self.protocol
        )


@dataclass(frozen=True)
class KeyRateBreakdown:
    """Per-type key fractions with the positive term breakdown."""

    G1: float | np.ndarray
    G2: float | np.ndarray
    total: float | np.ndarray
    contributions: dict = field(default_factory=dict)
    ec_cost: float | np.ndarray = 0.0

    def at(self, k) -> "KeyRateBreakdown":
        """Entry k of the key fractions (see GainTable.at), with floats."""
        return KeyRateBreakdown(
            G1=float(self.G1[k]),
            G2=float(self.G2[k]),
            total=float(self.total[k]),
            contributions={key: float(v[k]) for key, v in self.contributions.items()},
            ec_cost=float(self.ec_cost[k]),
        )


def gain_kernel(y: np.ndarray, protocol: str = "sarg04") -> Callable[..., GainTable]:
    """(p_a, p_b, herald_probability) -> gain table at the relay yields `y`
    of optics.relay_yields: (N, N, 4) at one distance or (D, N, N, 4) at D.

    q[..., t, n, m] = p_a[..., n] p_b[..., m] sift[t] Y[n, m, yield_t], and
    the same product with the error-weighted yield, for emission
    probabilities of shape mu.shape + (N,) and the joint heralding
    probability of shape mu.shape.  At one distance a 1-D mu of K mean
    photon numbers gives gains over K; at D distances the gains are (D, K)
    for a 1-D mu shared by all distances and (D, 1) for one mu per
    distance (mu of shape (D, 1)).  Everything that depends on the relay
    alone, the bit error rates included ((D, 1) at D distances), is
    computed here once.
    """
    sift = np.array([SIFT_FACTOR[1], SIFT_FACTOR[2]] if protocol == "sarg04" else [1.0, 1.0])
    if y.ndim == 4:  # a mu axis after the distance axis, for the gains to broadcast along
        y = y[:, None]
    # (yield_1, error_1, yield_2, error_2); the sift factors are powers of two,
    # so (w * sift) * Y == w * (sift * Y) exactly
    sifted = y * np.repeat(sift, 2)
    photons = range(y.shape[-2])
    cases = [(n, m) for n in photons for m in photons]
    ebit = error_rate(y[..., 1::2], y[..., 0::2])
    ebits = [{(n, m): ebit[..., n, m, i] for n, m in cases} for i in (0, 1)]

    def gains(p_a: np.ndarray, p_b: np.ndarray, herald_probability: np.ndarray) -> GainTable:
        q: tuple[dict, dict] = ({}, {})
        # running sums over (n, m): the additions of a float sum over the gains
        totals = [0.0] * 4
        for n, m in cases:
            w = p_a[..., n] * p_b[..., m]
            for row in range(4):
                term = w * sifted[..., n, m, row]
                totals[row] = totals[row] + term
                if row % 2 == 0:
                    q[row // 2][(n, m)] = term
        per_type = []
        for i in (0, 1):
            q_tot, errors = totals[2 * i], totals[2 * i + 1]
            e_tot = np.zeros(q_tot.shape)
            np.divide(errors, q_tot, out=e_tot, where=q_tot > 0)
            per_type.append(TypeGains(q[i], ebits[i], q_tot, e_tot))
        return GainTable(*per_type, herald_probability=herald_probability, protocol=protocol)

    return gains


def assemble_gains(
    p_a: np.ndarray,
    p_b: np.ndarray,
    det: DetectorParams,
    t_arm: float,
    qnd: bool = False,
    protocol: str = "sarg04",
    bb84_basis: str = "key",
    n_max: int = N_MAX_DEFAULT,
) -> GainTable:
    """Per-(n,m) gains Q = p_n p_m * sift * yield for both types, from the
    first n_max + 1 emission probabilities of each sender: the one-row
    `gain_kernel` table of one pair of non-heralded sources.

    With `qnd` the relay accepts at most one arriving photon per arm
    (see optics.relay_yields).
    """
    y = relay_yields(det, t_arm, protocol, bb84_basis, n_max, qnd)
    p_a, p_b = (np.asarray(p, dtype=float)[None, : n_max + 1] for p in (p_a, p_b))
    return gain_kernel(y, protocol)(p_a, p_b, np.ones(1)).at(0)


def phase_bounds(gains: GainTable, one_one_only: bool = False) -> dict:
    """Phase-error bound e_ph of every (type, (n, m)) key term.

    The bit error rates come from the relay yields alone, so the bounds
    depend on the distance and not on the mean photon number: one
    `phase_bound` array call per key term covers every distance of a table.
    """
    return {
        (t, nm): phase_bound(nm, t, gains.for_type(t).ebit[nm]).e_ph
        for t in (1, 2)
        for nm in (((1, 1),) if one_one_only else KEY_CASES)
        if nm in gains.for_type(t).q
    }


def _privacy_factor(e_ph: float | np.ndarray) -> float | np.ndarray:
    # 1 - h(e_ph); e_ph >= 0.5 carries no key, and clamping it to 0.5 makes this 0
    return 1.0 - binary_entropy(np.minimum(e_ph, 0.5))


def privacy_factors(e_ph: dict) -> dict:
    """1 - h(e_ph) of every key term bounded in `e_ph` (from `phase_bounds`)."""
    return dict(zip(e_ph, _privacy_factor(np.array(list(e_ph.values())))))


def fractions_from_factors(
    gains: GainTable, factors: dict, ec_inefficiency: float, include: tuple[int, ...]
) -> KeyRateBreakdown:
    """Asymptotic key fractions G_i per announcement type.

    G_i sums the privacy-amplified terms, the gains times the privacy
    factors of `privacy_factors`, and subtracts the error-correction cost
    over the whole sifted key.  Negative G_i are clamped to zero in
    `total`, which sums the `include`d types; raw values are kept in G1/G2
    for diagnostics.  Over mean photon numbers when the gains are.
    """
    types = {1: gains.type1, 2: gains.type2}
    contributions = {(t, nm): types[t].q[nm] * f for (t, nm), f in factors.items()}
    h = binary_entropy(np.minimum([types[1].e_tot, types[2].e_tot], 1.0))
    ec = {t: ec_inefficiency * tg.q_tot * h[t - 1] for t, tg in types.items()}
    raw = {t: sum(v for (u, _), v in contributions.items() if u == t) - ec[t] for t in types}
    total = 0.0
    for t in include:
        total = total + np.maximum(raw[t], 0.0)
    return KeyRateBreakdown(raw[1], raw[2], total, contributions, ec[1] + ec[2])


def bb84_baseline_rate(
    key_gains: GainTable, test_gains: GainTable, ec_inefficiency: float
) -> float | np.ndarray:
    """Simplified asymptotic MDI-BB84 comparator.

    R = Q^(1,1) [1 - h(e_ph^(1,1))] - f_EC Q_tot h(E_tot), with both
    announcement types combined, the key-basis gains providing Q and
    E_tot and the test-basis (1,1) error providing the phase error.
    Clamped at zero, and zero where nothing is detected; over mean photon
    numbers when the gains are.
    """
    k1, k2, t1, t2 = key_gains.type1, key_gains.type2, test_gains.type1, test_gains.type2
    q11 = k1.q[(1, 1)] + k2.q[(1, 1)]
    q_tot = k1.q_tot + k2.q_tot
    e_tot = np.zeros_like(q_tot)
    np.divide(k1.q_tot * k1.e_tot + k2.q_tot * k2.e_tot, q_tot, out=e_tot, where=q_tot != 0)
    e_ph = error_rate(
        t1.q[(1, 1)] * t1.ebit[(1, 1)] + t2.q[(1, 1)] * t2.ebit[(1, 1)],
        t1.q[(1, 1)] + t2.q[(1, 1)],
    )
    ec = ec_inefficiency * q_tot * binary_entropy(np.minimum(e_tot, 1.0))
    raw = q11 * _privacy_factor(e_ph) - ec
    rate = np.where(q_tot == 0, 0.0, np.maximum(raw, 0.0))
    return float(rate) if rate.ndim == 0 else rate
