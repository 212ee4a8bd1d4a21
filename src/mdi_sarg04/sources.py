"""Photon-number statistics of the sender sources.

Covers the phase-randomized coherent (Poisson) source and the heralded
SPDC source with thermal or Poisson pair statistics and a threshold herald
detector, as emission probabilities p[n] over photon numbers n, one mean
photon number at a time.  Loss and the relay's photon-number postselection
act on these inside the relay of `optics.relay`.
"""

from __future__ import annotations

from math import exp, expm1, inf, lgamma, log

from .optics import N_MAX_DEFAULT, DetectorParams


def _checked(mu: float, name: str) -> float:
    """mu itself; a ValueError if it is negative, infinite or NaN."""
    if not 0 <= mu < inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {mu}")
    return mu


def poisson_probs(mu: float, n_max: int) -> list[float]:
    """Closed-form Poisson p[n] = exp(-mu) mu^n / n! for n <= n_max, from
    the logarithm n log mu - log n! - mu of every term; mu = 0 is the
    vacuum."""
    if _checked(mu, "mean photon number") == 0:
        return [1.0] + [0.0] * n_max
    log_mu = log(mu)
    p = []
    for n in range(n_max + 1):
        # log n! is subtracted first: at large mu, near the mode, both
        # subtractions then have operands within a factor 2 and are exact
        p.append(exp(n * log_mu - lgamma(n + 1) - mu))
    return p


def spdc_heralded(
    mu: float,
    herald: DetectorParams,
    n_max: int = N_MAX_DEFAULT,
    pair_statistics: str = "thermal",
) -> tuple[float, list[float]]:
    """Heralded SPDC source with a threshold detector on the idler mode at
    the mean pair number mu: the herald click probability p_herald and the
    signal-mode photon-number distribution p[n], n <= n_max, conditioned
    on a herald, the vacuum if nothing heralds (p_herald = 0).

    Pair statistics default to single-mode thermal, mu^n / (1+mu)^(n+1);
    'poisson' is offered as a comparison switch.  Given n pairs the herald
    clicks with probability click_n = d + (1-d)(1 - (1-eta)^n), so
    p[n] = pairs_n click_n / p_herald.  p_herald is the sum over all n in
    closed form, (d + mu eta) / (1 + mu eta) for thermal pairs and
    d - (1-d) expm1(-mu eta) for Poisson pairs: no photon-number cutoff.
    """
    mu = _checked(mu, "mean pair number")
    d, eta = herald.dark, herald.eta
    if pair_statistics == "thermal":
        ratio = mu / (1 + mu)
        pairs = [ratio**n / (1 + mu) for n in range(n_max + 1)]
        p_herald = (d + mu * eta) / (1 + mu * eta)
    elif pair_statistics == "poisson":
        pairs = poisson_probs(mu, n_max)
        p_herald = d - (1 - d) * expm1(-mu * eta)
    else:
        raise ValueError(f"unknown pair statistics {pair_statistics!r}")
    if p_herald <= 0.0:
        return p_herald, [1.0] + [0.0] * n_max
    click = [d + (1 - d) * (1 - (1 - eta) ** n) for n in range(n_max + 1)]
    return p_herald, [q * c / p_herald for q, c in zip(pairs, click)]
