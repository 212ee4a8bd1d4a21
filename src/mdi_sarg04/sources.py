"""Photon-number statistics of the sender sources.

Covers the phase-randomized coherent (Poisson) source and the heralded
SPDC source with thermal or Poisson pair statistics and a threshold herald
detector, as emission probabilities p[n] over photon numbers n.  Loss and
the relay's photon-number postselection act on these inside
`optics.relay_yields`.
"""

from __future__ import annotations

from math import exp, factorial, inf, lgamma, log, log1p

import numpy as np

from .optics import N_MAX_DEFAULT, DetectorParams

DEFAULT_CUTOFF = 6
TAIL_TOL = 1e-6
# the cutoff doubling stops once it reaches this; ScenarioConfig.n_cutoff may not exceed it
CUTOFF_HARD_CAP = 200


def _poisson_term(mu: float, n: int) -> float:
    try:
        return exp(-mu) * mu**n / factorial(n)
    except OverflowError:  # mu^n or n! beyond the float range: in log space
        return exp(n * log(mu) - mu - lgamma(n + 1)) if mu else 0.0


def poisson_probs(mu: np.ndarray | list[float], n_max: int) -> np.ndarray:
    """Closed-form Poisson p[k, n] = exp(-mu_k) mu_k^n / n! for n <= n_max,
    one row per entry mu_k of the 1-D `mu`.  Built element by element with
    libm's exp and pow, which numpy's vectorized exp does not match bit
    for bit; a term whose mu^n or n! overflows a float is computed from
    logarithms instead."""
    rows = np.asarray(mu, dtype=float).tolist()
    if not all(0 <= m < inf for m in rows):
        raise ValueError(f"mean photon numbers must be finite and nonnegative, got {mu}")
    return np.array([[_poisson_term(m, n) for n in range(n_max + 1)] for m in rows])


def poisson_source(mu: float) -> np.ndarray:
    """Emission probabilities p_n = exp(-mu) mu^n / n!, n <= N_MAX_DEFAULT, of
    a phase-randomized coherent source."""
    return poisson_probs([mu], N_MAX_DEFAULT)[0]


def thermal_pair_probs(mu: float, cutoff: int) -> np.ndarray:
    """Single-mode thermal photon-pair statistics mu^n / (1+mu)^(n+1) for
    n <= cutoff, in floats; a term whose mu^n or (1+mu)^(n+1) overflows a
    float is computed from logarithms instead."""
    mu, n = float(mu), np.arange(cutoff + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        num, den = mu**n, (1 + mu) ** (n + 1)
        p = num / den
    over = np.isinf(num) | np.isinf(den)
    if over.any():  # then mu > 0
        p[over] = np.exp(n[over] * log(mu) - (n[over] + 1) * log1p(mu))
    return p


def spdc_heralded(
    pump_mu: float,
    herald: DetectorParams,
    cutoff: int = DEFAULT_CUTOFF,
    pair_statistics: str = "thermal",
) -> tuple[float, np.ndarray]:
    """Heralded SPDC source with a threshold detector on the idler mode:
    the herald click probability and the signal-mode photon-number
    distribution conditioned on a herald, the vacuum if nothing heralds.

    Pair statistics default to single-mode thermal; 'poisson' is offered
    as a comparison switch.  The cutoff is doubled until the pair tail is
    below TAIL_TOL or the cutoff reaches CUTOFF_HARD_CAP.  Given n pairs
    the herald clicks with probability 1 - (1-dark)(1-eta)^n; the signal
    distribution is the pair distribution reweighted by the click
    probability.
    """
    if not 0 <= pump_mu < inf:
        raise ValueError(f"mean pair number must be finite and nonnegative, got {pump_mu}")
    while True:
        if pair_statistics == "thermal":
            pairs = thermal_pair_probs(pump_mu, cutoff)
        elif pair_statistics == "poisson":
            pairs = poisson_probs([pump_mu], cutoff)[0]
        else:
            raise ValueError(f"unknown pair statistics {pair_statistics!r}")
        tail = max(1.0 - pairs.sum(), 0.0)
        if tail <= TAIL_TOL or cutoff >= CUTOFF_HARD_CAP:
            break
        cutoff *= 2
    n = np.arange(cutoff + 1)
    click = 1.0 - (1.0 - herald.dark) * (1.0 - herald.eta) ** n
    p_herald = float(pairs @ click)
    if p_herald <= 0.0:
        return 0.0, np.eye(1, cutoff + 1)[0]
    return p_herald, pairs * click / p_herald
