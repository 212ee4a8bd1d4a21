"""Photon-number statistics of the sender sources and the relay's
photon-number postselection.

Covers the phase-randomized coherent (Poisson) source, the heralded SPDC
source with thermal pair statistics and a threshold herald detector, loss
propagation by binomial thinning, and the nondemolition <=1-photon
acceptance applied inside the relay.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, factorial

import numpy as np

from .optics import DetectorParams, thinning_matrix

DEFAULT_CUTOFF = 6
TAIL_TOL = 1e-6
_CUTOFF_HARD_CAP = 200


@dataclass(frozen=True)
class PhotonNumberDist:
    """Distribution over emitted photon numbers 0..cutoff, with the
    probability mass beyond the cutoff tracked explicitly."""

    probs: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a nonempty 1-D array")
        if p.min() < -1e-12 or self.tail_mass < -1e-12:
            raise ValueError("negative probability")
        total = p.sum() + self.tail_mass
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"distribution mass {total} deviates from 1")

    @property
    def cutoff(self) -> int:
        return self.probs.size - 1

    def prob(self, n: int) -> float:
        return float(self.probs[n]) if n <= self.cutoff else 0.0


@dataclass(frozen=True)
class HeraldedSource:
    """Heralded SPDC source: herald click probability and the signal-mode
    photon-number distribution conditioned on a herald."""

    pump_mu: float
    herald_det: DetectorParams
    p_herald: float
    conditional: PhotonNumberDist
    degenerate: bool = False


def poisson_source(mu: float, cutoff: int = DEFAULT_CUTOFF) -> PhotonNumberDist:
    """Phase-randomized coherent source: p_n = exp(-mu) mu^n / n!.

    The cutoff is raised automatically until the tail mass is below 1e-6.
    """
    if mu < 0:
        raise ValueError(f"mean photon number must be nonnegative, got {mu}")
    while True:
        probs = np.array([exp(-mu) * mu**n / factorial(n) for n in range(cutoff + 1)])
        tail = max(1.0 - probs.sum(), 0.0)
        if tail <= TAIL_TOL or cutoff >= _CUTOFF_HARD_CAP:
            return PhotonNumberDist(probs=probs, tail_mass=tail)
        cutoff *= 2


def thermal_pair_probs(mu: float, cutoff: int) -> np.ndarray:
    """Single-mode thermal photon-pair statistics mu^n / (1+mu)^(n+1)."""
    n = np.arange(cutoff + 1)
    return mu**n / (1 + mu) ** (n + 1)


def spdc_heralded(
    pump_mu: float,
    herald: DetectorParams,
    cutoff: int = DEFAULT_CUTOFF,
    pair_statistics: str = "thermal",
) -> HeraldedSource:
    """Heralded SPDC source with a threshold detector on the idler mode.

    Pair statistics default to single-mode thermal; 'poisson' is offered
    as a comparison switch.  Given n pairs the herald clicks with
    probability 1 - (1-dark)(1-eta)^n; the signal distribution is the
    pair distribution reweighted by the click probability.
    """
    if pump_mu < 0:
        raise ValueError(f"mean pair number must be nonnegative, got {pump_mu}")
    while True:
        if pair_statistics == "thermal":
            pairs = thermal_pair_probs(pump_mu, cutoff)
        elif pair_statistics == "poisson":
            pairs = np.array([exp(-pump_mu) * pump_mu**n / factorial(n) for n in range(cutoff + 1)])
        else:
            raise ValueError(f"unknown pair statistics {pair_statistics!r}")
        tail = max(1.0 - pairs.sum(), 0.0)
        if tail <= TAIL_TOL or cutoff >= _CUTOFF_HARD_CAP:
            break
        cutoff *= 2
    n = np.arange(cutoff + 1)
    click = 1.0 - (1.0 - herald.dark) * (1.0 - herald.eta) ** n
    p_herald = float(pairs @ click)
    if p_herald <= 0.0:
        vacuum = np.zeros(cutoff + 1)
        vacuum[0] = 1.0
        return HeraldedSource(
            pump_mu=pump_mu,
            herald_det=herald,
            p_herald=0.0,
            conditional=PhotonNumberDist(probs=vacuum),
            degenerate=True,
        )
    cond = pairs * click / p_herald
    cond_tail = max(1.0 - cond.sum(), 0.0)
    return HeraldedSource(
        pump_mu=pump_mu,
        herald_det=herald,
        p_herald=p_herald,
        conditional=PhotonNumberDist(probs=cond, tail_mass=cond_tail),
    )


def propagate_through_loss(dist: PhotonNumberDist, t: float) -> PhotonNumberDist:
    """Binomial thinning of a photon-number distribution with survival t."""
    if not 0 < t <= 1:
        raise ValueError(f"transmittance must be in (0, 1], got {t}")
    return PhotonNumberDist(
        probs=dist.probs @ thinning_matrix(t, dist.cutoff), tail_mass=dist.tail_mass
    )


def qnd_accept_probability(dist_arriving: PhotonNumberDist) -> tuple[float, PhotonNumberDist]:
    """Nondemolition photon-number postselection at one relay input.

    Accepts arriving photon numbers 0 and 1 and returns the acceptance
    probability together with the renormalized conditional distribution
    on {0, 1}.
    """
    p0 = dist_arriving.prob(0)
    p1 = dist_arriving.prob(1)
    p_accept = p0 + p1
    if p_accept <= 0.0:
        raise ValueError("degenerate postselection: no arrival has <= 1 photon")
    cond = PhotonNumberDist(probs=np.array([p0, p1]) / p_accept)
    return p_accept, cond
