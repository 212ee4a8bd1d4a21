"""Photon-number statistics of the sender sources.

Covers the phase-randomized coherent (Poisson) source and the heralded
SPDC source with thermal or Poisson pair statistics and a threshold herald
detector, as emission probabilities p[n] over photon numbers n.  Loss and
the relay's photon-number postselection act on these inside
`optics.relay_yields`.
"""

from __future__ import annotations

from math import inf, lgamma

import numpy as np

from .optics import N_MAX_DEFAULT, DetectorParams


def poisson_probs(mu: np.ndarray | list[float], n_max: int) -> np.ndarray:
    """Closed-form Poisson p[k, n] = exp(-mu_k) mu_k^n / n! for n <= n_max,
    one row per entry mu_k of the 1-D `mu`, from the logarithm
    n log mu_k - log n! - mu_k of every term; mu_k = 0 is the vacuum."""
    mu = np.asarray(mu, dtype=float)
    if not np.all((0 <= mu) & (mu < inf)):
        raise ValueError(f"mean photon numbers must be finite and nonnegative, got {mu}")
    n = np.arange(n_max + 1)
    log_factorial = np.array([lgamma(k + 1) for k in range(n_max + 1)])
    # log n! is subtracted first: at large mu, near the mode, both
    # subtractions then have operands within a factor 2 and are exact
    log_p = (n * np.log(np.where(mu > 0, mu, 1.0))[:, None] - log_factorial) - mu[:, None]
    p = np.exp(log_p)
    p[mu == 0] = n == 0
    return p


def poisson_source(mu: float) -> np.ndarray:
    """Emission probabilities p_n = exp(-mu) mu^n / n!, n <= N_MAX_DEFAULT, of
    a phase-randomized coherent source."""
    return poisson_probs([mu], N_MAX_DEFAULT)[0]


def spdc_heralded(
    mu: np.ndarray | list[float],
    herald: DetectorParams,
    n_max: int = N_MAX_DEFAULT,
    pair_statistics: str = "thermal",
) -> tuple[np.ndarray, np.ndarray]:
    """Heralded SPDC source with a threshold detector on the idler mode, one
    row per mean pair number mu_k of the 1-D `mu`: the herald click
    probability p_herald[k] and the signal-mode photon-number distribution
    p[k, n], n <= n_max, conditioned on a herald, the vacuum if nothing
    heralds.

    Pair statistics default to single-mode thermal, mu^n / (1+mu)^(n+1);
    'poisson' is offered as a comparison switch.  Given n pairs the herald
    clicks with probability click_n = d + (1-d)(1 - (1-eta)^n), so
    p[k, n] = pairs_n click_n / p_herald[k].  p_herald is the sum over all
    n in closed form, (d + mu eta) / (1 + mu eta) for thermal pairs and
    d - (1-d) expm1(-mu eta) for Poisson pairs: no photon-number cutoff.
    """
    mu = np.asarray(mu, dtype=float)
    if not np.all((0 <= mu) & (mu < inf)):
        raise ValueError(f"mean pair numbers must be finite and nonnegative, got {mu}")
    d, eta, n = herald.dark, herald.eta, np.arange(n_max + 1)
    if pair_statistics == "thermal":
        pairs = (mu / (1 + mu))[:, None] ** n / (1 + mu)[:, None]
        p_herald = (d + mu * eta) / (1 + mu * eta)
    elif pair_statistics == "poisson":
        pairs = poisson_probs(mu, n_max)
        p_herald = d - (1 - d) * np.expm1(-mu * eta)
    else:
        raise ValueError(f"unknown pair statistics {pair_statistics!r}")
    click = d + (1 - d) * (1 - (1 - eta) ** n)
    cond = np.zeros(pairs.shape)
    cond[:, 0] = 1.0
    np.divide(pairs * click, p_herald[:, None], out=cond, where=p_herald[:, None] > 0.0)
    return p_herald, cond
