"""Gain assembly and asymptotic key-rate evaluation.

Combines the senders' emission probabilities with the relay yields to form
per-(n,m) gains, applies the phase-error bounds, and evaluates the
asymptotic key-rate formula per announcement type, plus a simplified
MDI-BB84 comparator.  Infinite decoy states are assumed: every
per-photon-number gain and error rate is known exactly.

Gains are arrays with the photon numbers (n, m) as their two leading axes,
so q[(n, m)] is one term, and the mean photon numbers after them (distance
and mean photon number in a sweep, `gain_kernel`).  Totals and key
fractions are sums over (n, m), the key terms (1,1), (1,2), (2,1) a mask.
`assemble_gains` is the one-row view: (N, N) gains and float totals.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .bounds import binary_entropy, phase_bound
from .optics import N_MAX_DEFAULT, DetectorParams, error_rate, relay_yields

# probability that the broadcast rotation labels satisfy the sifting rule:
# k = k' for Type1 (1/4), k = k' restricted to {0, 2} for Type2 (1/8)
SIFT_FACTOR = {1: 0.25, 2: 0.125}

# announcement types whose key fraction counts in the total, per type selection
INCLUDED_TYPES = {"both": (1, 2), "type1_only": (1,), "type2_only": (2,)}

# the key terms (n, m), in the stacks that share one `phase_bound` call:
# (1,1), then the mixed (1,2) and its role-swapped twin (2,1)
KEY_TERMS = (((1, 1),), ((1, 2), (2, 1)))


class TypeGains(NamedTuple):
    """Gains q[n, m, ...] and bit error rates ebit[n, m, ...] of one
    announcement type, and their totals over (n, m).  The bit error rates
    depend on the relay alone: their mean-photon-number axis has length 1."""

    q: np.ndarray
    ebit: np.ndarray
    q_tot: float | np.ndarray
    e_tot: float | np.ndarray


class GainTable(NamedTuple):
    """Gains for both announcement types plus the heralding probability
    (1 for non-heralded sources); rates built from this table are per
    (heralded) pulse pair."""

    type1: TypeGains
    type2: TypeGains
    herald_probability: float | np.ndarray = 1.0

    def for_type(self, announcement_type: int) -> TypeGains:
        if announcement_type == 1:
            return self.type1
        if announcement_type == 2:
            return self.type2
        raise ValueError(f"announcement type must be 1 or 2, got {announcement_type}")

    def at(self, k: int) -> "GainTable":
        """Entry k of a table over the mean photon numbers of one distance."""
        one = [
            TypeGains(t.q[..., k], t.ebit[..., 0], float(t.q_tot[k]), float(t.e_tot[k]))
            for t in (self.type1, self.type2)
        ]
        return GainTable(*one, float(self.herald_probability[k]))


class KeyRateBreakdown(NamedTuple):
    """Per-type key fractions with the positive term breakdown
    contributions[t - 1, n, m, ...], zero off the key terms."""

    G1: float | np.ndarray
    G2: float | np.ndarray
    total: float | np.ndarray
    contributions: np.ndarray
    ec_cost: float | np.ndarray


def _sum_nm(x: np.ndarray) -> np.ndarray:
    """Sum of x[i, n, m, ...] over (n, m) in row-major order, one addition
    at a time, as `np.add.accumulate` guarantees whatever the memory layout
    of x (`np.sum` adds pairwise along a contiguous axis: the last bit
    can move)."""
    flat = x.reshape(x.shape[:1] + (-1,) + x.shape[3:])
    return np.add.accumulate(flat, axis=1)[:, -1].copy()


def gain_kernel(y: np.ndarray, protocol: str = "sarg04") -> Callable[..., GainTable]:
    """(p_a, p_b, herald_probability) -> gain table at the relay yields `y`
    of optics.relay_yields: (N, N, 4) at one distance or (D, N, N, 4) at D.

    q_t[n, m, ...] = p_a[..., n] p_b[..., m] sift[t] Y[n, m, yield_t] and
    the same product with the error-weighted yield, one broadcast product,
    for emission probabilities of shape mu.shape + (N,) and the joint
    heralding probability of shape mu.shape.  At one distance mu is 1-D and
    the gains run over it; at D distances mu is (1, K) for K mean photon
    numbers shared by all distances or (D, 1) for one per distance, and the
    gains are (D, K) or (D, 1).  Everything that depends on the relay
    alone, the bit error rates included, is computed here once.
    """
    sift = np.array([SIFT_FACTOR[1], SIFT_FACTOR[2]] if protocol == "sarg04" else [1.0, 1.0])
    # (yield_1, error_1, yield_2, error_2) first, then (n, m), the distances and a mu axis
    rows = np.moveaxis(y, (-1, -3, -2), (0, 1, 2))[..., None]
    ebit = error_rate(rows[1::2], rows[0::2])
    # the sift factors are powers of two, so (p p' sift) Y == p p' (sift Y) exactly
    sifted = rows * np.repeat(sift, 2).reshape((4,) + (1,) * (rows.ndim - 1))

    def gains(p_a: np.ndarray, p_b: np.ndarray, herald_probability: np.ndarray) -> GainTable:
        terms = np.moveaxis(p_a, -1, 0)[:, None] * np.moveaxis(p_b, -1, 0) * sifted
        totals = _sum_nm(terms)
        q_tot, e_tot = totals[0::2], np.zeros(totals[0::2].shape)
        np.divide(totals[1::2], q_tot, out=e_tot, where=q_tot > 0)
        per_type = map(TypeGains, terms[0::2], ebit, q_tot, e_tot)
        return GainTable(*per_type, herald_probability=herald_probability)

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
    """Gains Q[n, m] = p_n p_m * sift * yield for both types, from the first
    n_max + 1 emission probabilities of each sender: the one-row
    `gain_kernel` table of one pair of non-heralded sources.

    With `qnd` the relay accepts at most one arriving photon per arm
    (see optics.relay_yields).
    """
    y = relay_yields(det, t_arm, protocol, bb84_basis, n_max, qnd)
    p_a, p_b = (np.asarray(p, dtype=float)[None, : n_max + 1] for p in (p_a, p_b))
    return gain_kernel(y, protocol)(p_a, p_b, np.ones(1)).at(0)


def _privacy_factor(e_ph: float | np.ndarray) -> float | np.ndarray:
    # 1 - h(e_ph); e_ph >= 0.5 carries no key, and clamping it to 0.5 makes this 0
    return 1.0 - binary_entropy(np.minimum(e_ph, 0.5))


def privacy_factors(gains: GainTable, one_one_only: bool = False) -> np.ndarray:
    """1 - h(e_ph) of the KEY_TERMS with n, m < N, zero-padded to a tensor
    f[t - 1, n, m, ...] of the gains' shape: the mask of the key terms.
    The bit error rates, and so the factors, depend on the relay alone: one
    `phase_bound` call per type and stack covers every distance of a table."""
    n = gains.type1.ebit.shape[0]
    factors = np.zeros((2,) + gains.type1.ebit.shape)
    for t in (1, 2):
        for cases in KEY_TERMS[:1] if one_one_only else KEY_TERMS:
            present = [nm for nm in cases if max(nm) < n]
            if present:
                nm = tuple(zip(*present))
                e_ph = phase_bound(present[0], t, gains.for_type(t).ebit[nm]).e_ph
                factors[(t - 1,) + nm] = _privacy_factor(e_ph)
    return factors


def fractions_from_factors(
    gains: GainTable, factors: np.ndarray, ec_inefficiency: float, include: tuple[int, ...]
) -> KeyRateBreakdown:
    """Asymptotic key fractions G_i per announcement type.

    G_i sums the privacy-amplified terms, the gains times the factors of
    `privacy_factors`, over (n, m) and subtracts the error-correction cost
    over the whole sifted key.  Negative G_i are clamped to zero in
    `total`, which sums the `include`d types; raw values are kept in G1/G2
    for diagnostics.  Over mean photon numbers when the gains are.
    """
    types = (gains.type1, gains.type2)
    contributions = np.stack([tg.q for tg in types])
    contributions *= factors
    h = binary_entropy(np.minimum([tg.e_tot for tg in types], 1.0))
    ec = [ec_inefficiency * tg.q_tot * h[i] for i, tg in enumerate(types)]
    raw = _sum_nm(contributions) - ec
    total = 0.0
    for t in include:
        total = total + np.maximum(raw[t - 1], 0.0)
    return KeyRateBreakdown(raw[0], raw[1], total, contributions, ec[0] + ec[1])


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
