"""Asymptotic key rates in arrival space, with their derivative in log mu.

With phase-randomized sources the gain of n photons from Alice and m from
Bob is p_n p_m Y[n][m], and the relay's yields are Y = B A_eta Bᵀ, the
detector-thinned arrival table A_eta thinned once more by the channel
B = B(t_arm) (`optics`).  So every sum the asymptotic key-rate formula
takes over (n, m) is a quadratic form, and per announcement type t there
are three:

- the gain Q_t = qᵀ S_t q, where q = Bᵀp is the distribution of photons
  arriving at the detectors and S_t holds the sifted yields of A_eta
  (`arrival_forms`); S_t does not depend on the distance;
- the error-weighted gain Q_t E_tot,t = qᵀ E_t q, alike;
- the key term pᵀ K_t p, where K_t is zero but at the KEY_TERMS (1,1),
  (1,2) and (2,1), so three numbers per distance (`key_terms`): the
  sifted yields there times their privacy factors 1 − h(e_ph), from the
  phase-error bounds of the relay's bit error rates.  `key_sums` is the
  one expression of the key term, for the rate and for `key_bound`.

`distance_rate` evaluates all of them at one distance and emission,
and gives G_t = pᵀ K_t p − f_EC Q_t h(E_tot,t) (`key_fractions`) or the
simplified MDI-BB84 comparator (`bb84_baseline_rate`), with each
fraction's derivative in log mu.  Infinite decoy states are assumed: every
per-photon-number gain and error rate is known exactly.
"""

from __future__ import annotations

from math import log2
from operator import add, mul
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

# the pairs (a, b), a <= b, of arrival numbers of a packed `arrival_forms` entry
_PACKED = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


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


def weighted_emission(p: list[float], log_slopes: list[float]) -> tuple:
    """Both senders' emission at one mean photon number mu, from the
    weights p[n], n <= 2, and their log-derivatives d log p[n] / d log mu:
    the tuple (p, dp, weights, dweights) of p, the derivatives
    dp[n] / d log mu, the key weights (p1 p1, p1 p2, p2 p1) of the
    KEY_TERMS and their derivatives.  Emission probabilities give the rate
    per pulse pair; an SPDC source's weights per pump pulse
    (`sources.spdc_emission`) give it per pump pulse, since every value the
    rate takes is quadratic in the emission.  A plain tuple: a NamedTuple
    class would cost every process a third of a millisecond to build."""
    dp = [pn * s for pn, s in zip(p, log_slopes)]
    _, p1, p2 = p
    _, d1, d2 = dp
    return (
        p,
        dp,
        (p1 * p1, p1 * p2, p2 * p1),
        (d1 * p1 + p1 * d1, d1 * p2 + p1 * d2, d2 * p1 + p2 * d1),
    )


def arrival_forms(table: list, protocol: str = "sarg04") -> list[tuple[float, ...]]:
    """[S_1, E_1, S_2, E_2] in arrival space: the sifted yields and
    error-weighted yields of the detector-thinned arrival table A_eta[a][b]
    of `optics.detector_table`, a, b <= 2, each packed symmetric as its six
    entries over (a, b) = (0,0), (0,1), (0,2), (1,1), (1,2), (2,2): M[a][a],
    and M[a][b] + M[b][a] off the diagonal, since both senders share q.
    A QND table stops at arrival 1; its entries past that are 0."""
    forms = []
    for t in (1, 2):
        # a power of two, so each sifted entry is exact
        sift = SIFT_FACTOR[t] if protocol == "sarg04" else 1.0
        for i in (2 * t - 2, 2 * t - 1):
            m = [[0.0] * 3 for _ in range(3)]
            for a, row in enumerate(table):
                m[a][: len(row)] = [sift * entry[i] for entry in row]
            forms.append(tuple(m[a][a] if a == b else m[a][b] + m[b][a] for a, b in _PACKED))
    return forms


def _privacy_factor(e_ph: float) -> float:
    # 1 - h(e_ph); e_ph >= 0.5 carries no key, and clamping it to 0.5 makes this 0
    return 1.0 - binary_entropy(min(e_ph, 0.5))


def key_factors(announcement_type: int, ebits: list[float]) -> list[float]:
    """1 - h(e_ph) of the leading KEY_TERMS of one type at their bit error
    rates ebits: none, (1,1) alone, or all three.  (2,1) shares the bound
    of (1,2) at an equal bit error rate, since the two bounds are one."""
    factors = []
    for case, e in zip(KEY_TERMS, ebits):
        if case == (2, 1) and e == ebits[1]:
            factors.append(factors[1])
        else:
            factors.append(_privacy_factor(phase_bound(case, announcement_type, e).e_ph))
    return factors


def key_terms(cells: list) -> list[tuple[float, float, float]]:
    """(K_t[1][1], K_t[1][2], K_t[2][1]) of both types t of the SARG04 rate
    from the relay yields [yield_1, error_1, yield_2, error_2] at the
    leading KEY_TERMS: the (1,1) cell alone, whose mixed terms are then 0,
    or all three.  Each is that entry of K_t, its privacy factor times its
    sifted yield."""
    terms = []
    for t, sift in SIFT_FACTOR.items():
        s = [sift * cell[2 * t - 2] for cell in cells]
        ebits = [error_rate(sift * cell[2 * t - 1], si) for cell, si in zip(cells, s)]
        terms.append((*map(mul, key_factors(t, ebits), s), 0.0, 0.0)[:3])
    return terms


def bb84_key_terms(key_cell: list[float], test_cell: list[float]) -> list[tuple]:
    """The `key_terms` of the MDI-BB84 comparator from the (1,1) cells of
    the key and test bases: the (1,1) term of each type alone.  Its phase
    error is the test basis' (1,1) error-weighted yields over its (1,1)
    yields, both announcement types together."""
    factor = _privacy_factor(error_rate(test_cell[1] + test_cell[3], test_cell[0] + test_cell[2]))
    return [(factor * key_cell[0], 0.0, 0.0), (factor * key_cell[2], 0.0, 0.0)]


def key_sums(terms: list[tuple], weights: list[tuple]) -> list[list[float]]:
    """For each type's `key_terms`, pᵀ K_t p at each of the key weights of a
    `weighted_emission`, or its derivative at the derivative weights: the
    one expression of the key term, for the rate and for `key_bound`.  The
    key terms are K_t's only entries that are not zero, in row-major order:
    the other terms of the sum over (n, m) would add exact zeros."""
    return [
        [w11 * k11 + w12 * k12 + w21 * k21 for w11, w12, w21 in weights]
        for k11, k12, k21 in terms
    ]


def key_bound(terms: list[tuple], weights: list[tuple]) -> list[float]:
    """At each of the key weights, the sum of pᵀ K_t p over the
    `key_terms`: never below the `total` that `key_fractions` gives for the
    same types, nor, with both types, below `bb84_baseline_rate`'s.

    The key terms and weights are never negative, and the rate's key terms
    are these `key_sums`; G_t = pᵀ K_t p - f_EC Q_t h(E_tot,t) with an
    error-correction cost that is never negative, and rounding is monotone,
    so the rounded G_t, each clamp at 0 and each addition of the total stay
    at or below their counterparts here."""
    first, *rest = key_sums(terms, weights)
    for sums in rest:
        first = list(map(add, first, sums))
    return first


def _fraction(q: float, qe: float, k: float, dq: float, dqe: float, dk: float, f: float) -> tuple:
    """(G, f_EC Q h(E), E, dG / d log mu) of G = k - f_EC Q h(E) with
    E = QE / Q (0 where nothing is detected, clamped at 1 in h), from the
    values and derivatives of Q, QE and the key term k: dh = log2((1 - E)
    / E) dE, and h is flat at E = 0 and once E is clamped."""
    e = qe / q if q > 0 else 0.0
    h = binary_entropy(1.0 if 1.0 < e else e)
    ec = q * f * h
    slope = dk - f * (dq * h + log2((1 - e) / e) * (dqe - e * dq)) if 0.0 < e < 1.0 else dk
    return k - ec, ec, e, slope


def _key_rate(values: list[float], slopes: list[float], f: float, include: tuple, bb84: bool):
    """(KeyRateBreakdown, its terms) of `key_fractions` or, with `bb84`, of
    `bb84_baseline_rate`, from the values and their derivatives: the terms
    are (G, dG / d log mu) of each `include`d type, or of the comparator's
    one fraction, unclamped; `total` sums the positive G."""
    q1, e1, k1, q2, e2, k2 = values
    dq1, de1, dk1, dq2, de2, dk2 = slopes
    if bb84:
        q_all = q1 + q2
        g, ec, _, dg = _fraction(q_all, e1 + e2, k1 + k2, dq1 + dq2, de1 + de2, dk1 + dk2, f)
        total = 0.0 if q_all == 0 else max(g, 0.0)
        e_tot_1, e_tot_2 = (e / q if q > 0 else 0.0 for e, q in ((e1, q1), (e2, q2)))
        terms = ((g, dg),)
        return KeyRateBreakdown(0.0, 0.0, total, ec, e_tot_1, e_tot_2), terms
    g1, ec1, e_tot_1, dg1 = _fraction(q1, e1, k1, dq1, de1, dk1, f)
    g2, ec2, e_tot_2, dg2 = _fraction(q2, e2, k2, dq2, de2, dk2, f)
    total = 0.0
    if 1 in include:
        total = total + (0.0 if 0.0 > g1 else g1)
    if 2 in include:
        total = total + (0.0 if 0.0 > g2 else g2)
    terms = ((g1, dg1), (g2, dg2))
    if len(include) == 1:
        terms = (terms[include[0] - 1],)
    return KeyRateBreakdown(g1, g2, total, ec1 + ec2, e_tot_1, e_tot_2), terms


_NO_SLOPES = (0.0,) * 6


def key_fractions(
    values: list[float], ec_inefficiency: float, include: tuple[int, ...]
) -> KeyRateBreakdown:
    """Asymptotic key fractions G_t = pᵀ K_t p - f_EC Q_t h(E_tot,t) from the
    values [Q_1, Q_1 E_tot,1, pᵀ K_1 p, Q_2, Q_2 E_tot,2, pᵀ K_2 p].
    Negative G_t are clamped to zero in `total`, which sums the `include`d
    types; raw values are kept in G1/G2 for diagnostics."""
    return _key_rate(values, _NO_SLOPES, ec_inefficiency, include, False)[0]


def bb84_baseline_rate(values: list[float], ec_inefficiency: float) -> KeyRateBreakdown:
    """Simplified asymptotic MDI-BB84 comparator from the values of
    `key_fractions`, with the comparator's key terms.

    R = Q^(1,1) [1 - h(e_ph^(1,1))] - f_EC Q h(E), with the gain Q and the
    error rate E of both announcement types merged.  `total` is R clamped at
    zero, and zero where nothing is detected; G1 and G2 are zero.
    """
    return _key_rate(values, _NO_SLOPES, ec_inefficiency, (1, 2), True)[0]


def arrival_values(forms: list[tuple], thin: list[list[float]], terms: list[tuple]):
    """`weighted_emission` -> ([Q_1, Q_1 E_tot,1, pᵀ K_1 p, Q_2, Q_2 E_tot,2,
    pᵀ K_2 p], their derivatives in log mu) at one distance, from the
    `arrival_forms`, the channel thinning B = B(t_arm) of the emissions
    n <= 2 (`optics.thinning_matrix`) and the distance's `key_terms`: the
    values that `key_fractions` and `bb84_baseline_rate` take.

    The arriving photons are q = Bᵀp, so q' = Bᵀp', and a packed form's
    value and derivative weigh q_a q_b and q'_a q_b + q_a q'_b.
    """
    (b00, _, _), (b10, b11, _), (b20, b21, b22) = thin

    def values(em: tuple) -> tuple[list[float], list[float]]:
        (p0, p1, p2), (d0, d1, d2), weights, dweights = em
        q0, q1, q2 = p0 * b00 + p1 * b10 + p2 * b20, p1 * b11 + p2 * b21, p2 * b22
        r0, r1, r2 = d0 * b00 + d1 * b10 + d2 * b20, d1 * b11 + d2 * b21, d2 * b22
        u0, u1, u2, u3, u4, u5 = q0 * q0, q0 * q1, q0 * q2, q1 * q1, q1 * q2, q2 * q2
        v0, v1, v2 = r0 * q0 + q0 * r0, r0 * q1 + q0 * r1, r0 * q2 + q0 * r2
        v3, v4, v5 = r1 * q1 + q1 * r1, r1 * q2 + q1 * r2, r2 * q2 + q2 * r2
        s1, e1, s2, e2 = [
            u0 * a + u1 * b + u2 * c + u3 * d + u4 * e + u5 * f for a, b, c, d, e, f in forms
        ]
        ds1, de1, ds2, de2 = [
            v0 * a + v1 * b + v2 * c + v3 * d + v4 * e + v5 * f for a, b, c, d, e, f in forms
        ]
        (k1, dk1), (k2, dk2) = key_sums(terms, (weights, dweights))
        return [s1, e1, k1, s2, e2, k2], [ds1, de1, dk1, ds2, de2, dk2]

    return values


def distance_rate(
    forms: list[tuple[float, ...]],
    thin: list[list[float]],
    terms: list[tuple[float, float, float]],
    ec_inefficiency: float,
    include: tuple[int, ...],
    bb84: bool = False,
):
    """The rate at one distance: `weighted_emission` -> (key rate, its
    terms, KeyRateBreakdown) of the `arrival_values`: the SARG04
    `key_fractions` of the `include`d types, or with `bb84` the comparator.
    The terms are (G, dG / d log mu) of each included type, or of the
    comparator's one fraction, unclamped: the rate is the sum of the
    positive G."""
    values_at = arrival_values(forms, thin, terms)

    def rate(em: tuple) -> tuple[float, tuple, KeyRateBreakdown]:
        b, terms = _key_rate(*values_at(em), ec_inefficiency, include, bb84)
        return b.total, terms, b

    return rate
