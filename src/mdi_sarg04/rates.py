"""Asymptotic key rates as quadratic forms in the emission vector.

With phase-randomized sources the gain of n photons from Alice and m from
Bob is p_n p_m Y[n][m], so every sum the asymptotic key-rate formula takes
over (n, m) is a quadratic form pᵀ M p in the emission probabilities p,
with an N × N matrix M that depends on the relay alone.  Per announcement
type t there are three (`key_forms`):

- S_t, the sifted yields: Q_t = pᵀ S_t p is the gain;
- E_t, the sifted error-weighted yields: pᵀ E_t p = Q_t E_tot,t;
- K_t = F_t ∘ S_t, where F_t holds the privacy factors 1 − h(e_ph) of the
  key terms (1,1), (1,2), (2,1) and zero elsewhere (`privacy_factors`),
  from the phase-error bounds of the relay's bit error rates.

A form is a nested list M[n][m].  `form_values` evaluates all six at one
emission vector, and `key_fractions` gives
G_t = pᵀ K_t p − f_EC Q_t h(E_tot,t).  The simplified MDI-BB84 comparator
(`bb84_forms`, `bb84_baseline_rate`) uses the same forms.  Infinite decoy
states are assumed: every per-photon-number gain and error rate is known
exactly.
"""

from __future__ import annotations

from typing import NamedTuple

from .bounds import binary_entropy, phase_bound
from .optics import error_rate

# probability that the broadcast rotation labels satisfy the sifting rule:
# k = k' for Type1 (1/4), k = k' restricted to {0, 2} for Type2 (1/8)
SIFT_FACTOR = {1: 0.25, 2: 0.125}

# announcement types whose key fraction counts in the total, per type selection
INCLUDED_TYPES = {"both": (1, 2), "type1_only": (1,), "type2_only": (2,)}

# the key terms (n, m): (1,1), then the mixed (1,2) and its role-swapped twin (2,1)
KEY_TERMS = ((1, 1), (1, 2), (2, 1))


class KeyRateBreakdown(NamedTuple):
    """Per-type key fractions G1, G2 (raw: negative values are clamped in
    `total` only), the key rate `total`, the error-correction cost and the
    total error rates of both types."""

    G1: float
    G2: float
    total: float
    ec_cost: float
    e_tot_1: float
    e_tot_2: float


def _sifted_yields(y: list, protocol: str = "sarg04") -> list:
    """S_t and E_t of the relay yields y[n][m] of an optics.relay, as
    [[S_1, E_1], [S_2, E_2]]."""
    # the sift factors are powers of two, so (p p' sift) Y == p p' (sift Y) exactly
    sifted = []
    for t in (1, 2):
        sift = SIFT_FACTOR[t] if protocol == "sarg04" else 1.0
        sifted.append(
            [[[sift * entry[2 * t - 2 + i] for entry in row] for row in y] for i in (0, 1)]
        )
    return sifted


def _privacy_factor(e_ph: float) -> float:
    # 1 - h(e_ph); e_ph >= 0.5 carries no key, and clamping it to 0.5 makes this 0
    return 1.0 - binary_entropy(min(e_ph, 0.5))


def privacy_factors(ebit: list, one_one_only: bool = False) -> list:
    """1 - h(e_ph) of the KEY_TERMS with n, m < N at the bit error rates
    ebit[t - 1][n][m] of both types, zero elsewhere: the mask of the key
    terms."""
    factors = []
    for t, rates in zip((1, 2), ebit):
        n = len(rates)
        f = [[0.0] * n for _ in range(n)]
        for i, j in KEY_TERMS[:1] if one_one_only else KEY_TERMS:
            if max(i, j) < n:
                f[i][j] = _privacy_factor(phase_bound((i, j), t, rates[i][j]).e_ph)
        factors.append(f)
    return factors


def _stack_forms(sifted: list, factors: list) -> list:
    """[S_1, E_1, K_1, S_2, E_2, K_2]."""
    forms = []
    for (s, e), f in zip(sifted, factors):
        k = [[a * b for a, b in zip(f_row, s_row)] for f_row, s_row in zip(f, s)]
        forms += [s, e, k]
    return forms


def key_forms(y: list, one_one_only: bool = False) -> list:
    """The six matrices [S_1, E_1, K_1, S_2, E_2, K_2], each M[n][m], of the
    SARG04 rate at the relay yields y[n][m]."""
    sifted = _sifted_yields(y)
    ebit = [
        [[error_rate(ei, si) for ei, si in zip(e_row, s_row)] for e_row, s_row in zip(e, s)]
        for s, e in sifted
    ]
    return _stack_forms(sifted, privacy_factors(ebit, one_one_only))


def bb84_forms(key_y: list, test_y: list) -> list:
    """The six matrices of the MDI-BB84 comparator: the key basis gives S_t
    and E_t, and K_t keeps the (1,1) term with the phase error of the test
    basis, its (1,1) error-weighted yields over its (1,1) yields, both
    announcement types together."""
    test = test_y[1][1]
    factor = _privacy_factor(error_rate(test[1] + test[3], test[0] + test[2]))
    n = len(key_y)
    factors = [[[0.0] * n for _ in range(n)] for _ in (1, 2)]
    for f in factors:
        f[1][1] = factor
    return _stack_forms(_sifted_yields(key_y, "bb84"), factors)


def pair_weights(p_a: list[float], p_b: list[float]) -> list[float]:
    """The products p_a[n] p_b[m] in row-major order: the weights of every
    `form_values` sum."""
    return [a * b for a in p_a for b in p_b]


def form_values(forms: list, p_a: list[float], p_b: list[float]) -> list[float]:
    """p_aᵀ M p_b of every form M[n][m] at the emission probabilities
    p_a[n] and p_b[m].  Each value sums (p_a[n] p_b[m]) M[n][m] over (n, m)
    in row-major order, one addition at a time.  At N = 3, the emission
    vector of every rate evaluation, this is `weighted_values` of the
    `pair_weights`."""
    if len(p_a) != 3 or len(p_b) != 3:
        values = []
        for form in forms:
            value = 0.0
            for a, row in zip(p_a, form):
                for b, entry in zip(p_b, row):
                    value += a * b * entry
            values.append(value)
        return values
    return weighted_values(forms, pair_weights(p_a, p_b))


def weighted_values(forms: list, weights: list[float]) -> list[float]:
    """`form_values` of 3 × 3 forms from the nine `pair_weights`, with the
    sums written out term by term."""
    w00, w01, w02, w10, w11, w12, w20, w21, w22 = weights
    values = []
    for (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) in forms:
        values.append(
            w00 * m00 + w01 * m01 + w02 * m02
            + w10 * m10 + w11 * m11 + w12 * m12
            + w20 * m20 + w21 * m21 + w22 * m22
        )
    return values


def _total_error(e: float, q: float) -> float:
    """E_tot = pᵀ E p / Q from pᵀ E p, 0 where nothing is detected."""
    return e / q if q > 0 else 0.0


def key_fractions(
    values: list[float], ec_inefficiency: float, include: tuple[int, ...]
) -> KeyRateBreakdown:
    """Asymptotic key fractions G_t = pᵀ K_t p - f_EC Q_t h(E_tot,t) from the
    `form_values` of `key_forms`.  Negative G_t are clamped to zero in
    `total`, which sums the `include`d types; raw values are kept in G1/G2
    for diagnostics."""
    q1, e1, k1, q2, e2, k2 = values
    e_tot_1 = e1 / q1 if q1 > 0 else 0.0
    e_tot_2 = e2 / q2 if q2 > 0 else 0.0
    ec1 = q1 * ec_inefficiency * binary_entropy(1.0 if 1.0 < e_tot_1 else e_tot_1)
    ec2 = q2 * ec_inefficiency * binary_entropy(1.0 if 1.0 < e_tot_2 else e_tot_2)
    g1, g2 = k1 - ec1, k2 - ec2
    total = 0.0
    if 1 in include:
        total = total + (0.0 if 0.0 > g1 else g1)
    if 2 in include:
        total = total + (0.0 if 0.0 > g2 else g2)
    return KeyRateBreakdown(g1, g2, total, ec1 + ec2, e_tot_1, e_tot_2)


def key_terms(forms: list, include: tuple[int, ...]) -> list[tuple[float, float, float]]:
    """The entries (K_t[1][1], K_t[1][2], K_t[2][1]) of the key forms of the
    `include`d types t of `key_forms` or `bb84_forms`: the KEY_TERMS, the
    only entries of K_t that are not zero."""
    return [tuple(forms[3 * t - 1][n][m] for n, m in KEY_TERMS) for t in include]


def key_bound(terms: list[tuple[float, float, float]], weights: list[float]) -> float:
    """The sum over `key_terms` of max(pᵀ K_t p, 0) at the nine
    `pair_weights`: never below the `total` that `key_fractions` gives for
    the same types, nor, with both types, below `bb84_baseline_rate`'s.

    The key terms are K_t's only entries that are not zero, in row-major
    order, so pᵀ K_t p here is bit for bit the `weighted_values` sum: the
    other terms add exact zeros.  G_t = pᵀ K_t p - f_EC Q_t h(E_tot,t) with
    an error-correction cost that is never negative, and rounding is
    monotone, so the rounded G_t, each clamp and each addition of the total
    stay at or below their counterparts here."""
    _, _, _, _, w11, w12, _, w21, _ = weights
    total = 0.0
    for k11, k12, k21 in terms:
        k = w11 * k11 + w12 * k12 + w21 * k21
        total = total + (0.0 if 0.0 > k else k)
    return total


def bb84_baseline_rate(values: list[float], ec_inefficiency: float) -> KeyRateBreakdown:
    """Simplified asymptotic MDI-BB84 comparator from the `form_values` of
    `bb84_forms`.

    R = Q^(1,1) [1 - h(e_ph^(1,1))] - f_EC Q h(E), with the gain Q and the
    error rate E of both announcement types merged.  `total` is R clamped at
    zero, and zero where nothing is detected; G1 and G2 are zero.
    """
    q1, e1, k1, q2, e2, k2 = values
    q_all = q1 + q2
    e_all = _total_error(e1 + e2, q_all)
    ec = ec_inefficiency * q_all * binary_entropy(min(e_all, 1.0))
    total = 0.0 if q_all == 0 else max(k1 + k2 - ec, 0.0)
    return KeyRateBreakdown(0.0, 0.0, total, ec, _total_error(e1, q1), _total_error(e2, q2))
