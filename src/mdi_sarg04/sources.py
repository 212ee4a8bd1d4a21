"""Photon-number statistics of the sender sources.

Covers the phase-randomized coherent (Poisson) source and the heralded
SPDC source with thermal or Poisson pair statistics and a threshold herald
detector, one mean photon number at a time: the Poisson emission
probabilities p[n] over photon numbers n, and the SPDC source's weights
per pump pulse (`spdc_emission`), since its rate is optimized per pump
pulse, or its emission conditioned on a herald (`spdc_heralded`).  The
probabilities and the weights come with their log-derivatives in mu for
the mu optimizer.  Loss and the relay's photon-number postselection act
on these in `rates`, through the channel thinning and arrival table of
`optics`.
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


def poisson_log_slopes(mu: float, n_max: int) -> list[float]:
    """d log p[n] / d log mu = n - mu of `poisson_probs`, n <= n_max."""
    return [n - mu for n in range(n_max + 1)]


def spdc_emission(
    mu: float,
    herald: DetectorParams,
    n_max: int = N_MAX_DEFAULT,
    pair_statistics: str = "thermal",
) -> tuple[float, list[float], list[float]]:
    """Heralded SPDC source with a threshold detector on the idler mode at
    the mean pair number mu, per pump pulse: the herald click probability
    p_herald, the weights w[n] = pairs_n click_n of a heralded n-photon
    signal, n <= n_max, and their log-derivatives d log w[n] / d log mu.

    Pair statistics default to single-mode thermal, mu^n / (1+mu)^(n+1);
    'poisson' is offered as a comparison switch.  Given n pairs the herald
    clicks with probability click_n = d + (1-d)(1 - (1-eta)^n), which does
    not depend on mu, so d log w[n] / d log mu is that of pairs_n:
    n - (n+1) mu / (1 + mu), or n - mu.  p_herald is the sum of w over all
    n in closed form, (d + mu eta) / (1 + mu eta) for thermal pairs and
    d - (1-d) expm1(-mu eta) for Poisson pairs: no photon-number cutoff.
    """
    mu = _checked(mu, "mean pair number")
    d, eta = herald.dark, herald.eta
    x = mu * eta
    if pair_statistics == "thermal":
        p_herald = (d + x) / (1 + x)
        ratio = mu / (1 + mu)
        pairs = [ratio**n / (1 + mu) for n in range(n_max + 1)]
        slopes = [n - (n + 1) * mu / (1 + mu) for n in range(n_max + 1)]
    elif pair_statistics == "poisson":
        p_herald = d - (1 - d) * expm1(-x)
        pairs, slopes = poisson_probs(mu, n_max), poisson_log_slopes(mu, n_max)
    else:
        raise ValueError(f"unknown pair statistics {pair_statistics!r}")
    click = [d + (1 - d) * (1 - (1 - eta) ** n) for n in range(n_max + 1)]
    return p_herald, [q * c for q, c in zip(pairs, click)], slopes


def spdc_heralded(
    mu: float,
    herald: DetectorParams,
    n_max: int = N_MAX_DEFAULT,
    pair_statistics: str = "thermal",
) -> tuple[float, list[float]]:
    """The `spdc_emission` conditioned on a herald: p_herald and the
    signal-mode photon-number distribution p[n] = w[n] / p_herald,
    n <= n_max, the vacuum if nothing heralds (p_herald = 0)."""
    p_herald, w, _ = spdc_emission(mu, herald, n_max, pair_statistics)
    if p_herald <= 0.0:
        return p_herald, [1.0] + [0.0] * n_max
    return p_herald, [wn / p_herald for wn in w]
