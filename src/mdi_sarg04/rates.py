"""Asymptotic key rates as quadratic forms in the emission vector.

With phase-randomized sources the gain of n photons from Alice and m from
Bob is p_n p_m Y[n, m], so every sum the asymptotic key-rate formula takes
over (n, m) is a quadratic form pᵀ M p in the emission probabilities p,
with an N × N matrix M that depends on the relay alone.  Per announcement
type t there are three (`key_forms`):

- S_t, the sifted yields: Q_t = pᵀ S_t p is the gain;
- E_t, the sifted error-weighted yields: pᵀ E_t p = Q_t E_tot,t;
- K_t = F_t ∘ S_t, where F_t holds the privacy factors 1 − h(e_ph) of the
  key terms (1,1), (1,2), (2,1) and zero elsewhere (`privacy_factors`),
  from the phase-error bounds of the relay's bit error rates.

`form_values` evaluates all six at once over (distance, mu), and
`key_fractions` gives G_t = pᵀ K_t p − f_EC Q_t h(E_tot,t).  The simplified
MDI-BB84 comparator (`bb84_forms`, `bb84_baseline_rate`) uses the same
forms.  Infinite decoy states are assumed: every per-photon-number gain and
error rate is known exactly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .bounds import binary_entropy, phase_bound
from .optics import error_rate

# probability that the broadcast rotation labels satisfy the sifting rule:
# k = k' for Type1 (1/4), k = k' restricted to {0, 2} for Type2 (1/8)
SIFT_FACTOR = {1: 0.25, 2: 0.125}

# announcement types whose key fraction counts in the total, per type selection
INCLUDED_TYPES = {"both": (1, 2), "type1_only": (1,), "type2_only": (2,)}

# the key terms (n, m), in the stacks that share one `phase_bound` call:
# (1,1), then the mixed (1,2) and its role-swapped twin (2,1)
KEY_TERMS = (((1, 1),), ((1, 2), (2, 1)))


class KeyRateBreakdown(NamedTuple):
    """Per-type key fractions G1, G2 (raw: negative values are clamped in
    `total` only), the key rate `total`, the error-correction cost and the
    total error rates of both types, over the batch axes of the forms."""

    G1: float | np.ndarray
    G2: float | np.ndarray
    total: float | np.ndarray
    ec_cost: float | np.ndarray
    e_tot_1: float | np.ndarray
    e_tot_2: float | np.ndarray


def _sifted_yields(y: np.ndarray, protocol: str = "sarg04") -> np.ndarray:
    """S_t and E_t of the relay yields y[..., n, m, :] of optics.relay_yields,
    as one array over (type, yield or error-weighted yield, ..., n, m)."""
    sift = np.array([SIFT_FACTOR[1], SIFT_FACTOR[2]] if protocol == "sarg04" else [1.0, 1.0])
    rows = np.moveaxis(y, -1, 0).reshape((2, 2) + y.shape[:-1])
    # the sift factors are powers of two, so (p p' sift) Y == p p' (sift Y) exactly
    return rows * sift.reshape((2,) + (1,) * (rows.ndim - 1))


def _privacy_factor(e_ph: float | np.ndarray) -> float | np.ndarray:
    # 1 - h(e_ph); e_ph >= 0.5 carries no key, and clamping it to 0.5 makes this 0
    return 1.0 - binary_entropy(np.minimum(e_ph, 0.5))


def privacy_factors(ebit: np.ndarray, one_one_only: bool = False) -> np.ndarray:
    """1 - h(e_ph) of the KEY_TERMS with n, m < N at the bit error rates
    ebit[t - 1, ..., n, m] of both types, zero elsewhere: the mask of the
    key terms.  One `phase_bound` call per type and stack covers every
    distance."""
    n = ebit.shape[-1]
    factors = np.zeros(ebit.shape)
    for t in (1, 2):
        for cases in KEY_TERMS[:1] if one_one_only else KEY_TERMS:
            present = [nm for nm in cases if max(nm) < n]
            if present:
                term = (t - 1, ..., *map(list, zip(*present)))  # the stack's (n, m) entries
                factors[term] = _privacy_factor(phase_bound(present[0], t, ebit[term]).e_ph)
    return factors


def _stack_forms(sifted: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """(S_1, E_1, K_1, S_2, E_2, K_2) along the leading axis."""
    s, e = sifted[:, 0], sifted[:, 1]
    return np.stack([s, e, factors * s], axis=1).reshape((6,) + s.shape[1:])


def key_forms(y: np.ndarray, one_one_only: bool = False) -> np.ndarray:
    """The six matrices (S_1, E_1, K_1, S_2, E_2, K_2)[..., n, m] of the
    SARG04 rate at the relay yields y (..., N, N, 4)."""
    sifted = _sifted_yields(y)
    ebit = error_rate(sifted[:, 1], sifted[:, 0])
    return _stack_forms(sifted, privacy_factors(ebit, one_one_only))


def bb84_forms(key_y: np.ndarray, test_y: np.ndarray) -> np.ndarray:
    """The six matrices of the MDI-BB84 comparator: the key basis gives S_t
    and E_t, and K_t keeps the (1,1) term with the phase error of the test
    basis, its (1,1) error-weighted yields over its (1,1) yields, both
    announcement types together."""
    test = test_y[..., 1, 1, :]
    e_ph = error_rate(test[..., 1] + test[..., 3], test[..., 0] + test[..., 2])
    factors = np.zeros(key_y.shape[:-1])
    factors[..., 1, 1] = _privacy_factor(e_ph)
    return _stack_forms(_sifted_yields(key_y, "bb84"), factors)


def form_values(forms: np.ndarray, p_a: np.ndarray, p_b: np.ndarray) -> np.ndarray:
    """p_aᵀ M p_b of every form M = forms[i, ..., :, :] at the emission
    probabilities p_a[..., n] and p_b[..., m], the batch axes broadcast.
    Each value sums (p_a[n] p_b[m]) M[n, m] over (n, m) in row-major order,
    one addition at a time, whatever the batch shape: a sweep row equals
    the same point evaluated alone."""
    return np.einsum("...n,...m,t...nm->t...", p_a, p_b, forms)


def _total_error(e: np.ndarray, q: np.ndarray) -> np.ndarray:
    """E_tot = pᵀ E p / Q in place of pᵀ E p (a scalar becomes a 0-d array),
    0 where nothing is detected."""
    e, detected = np.asarray(e), q > 0
    np.divide(e, q, out=e, where=detected)
    e[~detected] = 0.0
    return e


def key_fractions(
    values: np.ndarray, ec_inefficiency: float, include: tuple[int, ...]
) -> KeyRateBreakdown:
    """Asymptotic key fractions G_t = pᵀ K_t p - f_EC Q_t h(E_tot,t) from the
    `form_values` of `key_forms`, which are overwritten.  Negative G_t are
    clamped to zero in `total`, which sums the `include`d types; raw values
    are kept in G1/G2 for diagnostics."""
    q, e, k = values.reshape((2, 3) + values.shape[1:]).swapaxes(0, 1)
    # in place, and the entropy per type: the temporaries bound a grid call's
    # memory; E_tot takes the place of pᵀ E p, the EC cost that of Q and G
    # that of pᵀ K p
    e_tot = _total_error(e, q)
    ec = np.multiply(q, ec_inefficiency, out=q)
    for t in (0, 1):
        ec[t] *= binary_entropy(np.minimum(e_tot[t], 1.0))
    ec_cost = ec[0] + ec[1]
    raw = np.subtract(k, ec, out=k)
    total = 0.0
    for t in include:
        total = total + np.maximum(raw[t - 1], 0.0)
    return KeyRateBreakdown(raw[0], raw[1], total, ec_cost, e_tot[0], e_tot[1])


def bb84_baseline_rate(values: np.ndarray, ec_inefficiency: float) -> KeyRateBreakdown:
    """Simplified asymptotic MDI-BB84 comparator from the `form_values` of
    `bb84_forms`, which are overwritten.

    R = Q^(1,1) [1 - h(e_ph^(1,1))] - f_EC Q h(E), with the gain Q and the
    error rate E of both announcement types merged.  `total` is R clamped at
    zero, and zero where nothing is detected; G1 and G2 are zero.
    """
    q, e, k = values.reshape((2, 3) + values.shape[1:]).swapaxes(0, 1)
    q_all = q[0] + q[1]
    e_all = _total_error(e[0] + e[1], q_all)
    ec = ec_inefficiency * q_all * binary_entropy(np.minimum(e_all, 1.0))
    total = np.where(q_all == 0, 0.0, np.maximum(k[0] + k[1] - ec, 0.0))
    zero = np.zeros(q_all.shape)
    return KeyRateBreakdown(zero, zero, total, ec, *_total_error(e, q))
