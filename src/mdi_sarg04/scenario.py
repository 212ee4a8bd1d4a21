"""Scenario orchestration: per-distance mean-photon-number optimization
and rate-versus-distance sweeps with CSV emission.

Scenarios: coherent sources with relay photon-number postselection,
heralded SPDC sources with the bare relay, and an MDI-BB84 comparator.
Rates are reported per (heralded) pulse pair; for heralded sources a
per-pump-pulse column (rate times joint heralding probability) is also
emitted, and the heralding probability is the optimization weight so the
optimum is per pump pulse.

The rate is a set of quadratic forms in the emission vector whose
matrices depend on the relay alone (see `rates`): a sweep builds them for
every distance at once, then evaluates the whole mu grid over (distance,
mu) in one call and the mu search of every distance in lockstep.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .bounds import golden_section_minimize
from .config import ScenarioConfig
from .optics import N_MAX_DEFAULT, ChannelParams, DetectorParams, relay_yields
from .rates import (
    INCLUDED_TYPES,
    bb84_baseline_rate,
    bb84_forms,
    form_values,
    key_forms,
    key_fractions,
)
from .sources import poisson_probs, spdc_heralded

MU_COARSE_POINTS = 40
MU_REL_TOL = 1e-4

CSV_COLUMNS = (
    "distance_km", "mu_opt", "G1", "G2", "total", "total_per_pulse", "e_tot_1", "e_tot_2", "p_herald"
)
CSV_HEADER = ",".join(CSV_COLUMNS)


class RateCurvePoint(NamedTuple):
    distance_km: float
    mu_opt: float
    G1: float
    G2: float
    total: float
    e_tot_1: float
    e_tot_2: float
    p_herald: float
    zero_rate: bool = False

    @property
    def total_per_pulse(self) -> float:
        return self.total * self.p_herald


def _relay(config: ScenarioConfig, distance_km) -> tuple[DetectorParams, float | np.ndarray]:
    """Relay detector and one-arm transmittance at one distance, or the
    array of them at each of a sequence of distances."""
    det = DetectorParams(eta=config.eta, dark=config.dark)
    if np.ndim(distance_km):
        return det, np.array([ChannelParams(config.loss_db_per_km, d).t_arm for d in distance_km])
    return det, ChannelParams(config.loss_db_per_km, distance_km).t_arm


def _emission_probs(config: ScenarioConfig, det: DetectorParams, mu: np.ndarray) -> tuple:
    """Emission probabilities p[..., n] for n <= N_MAX_DEFAULT and the joint
    heralding probability, at every mean photon number of the array mu."""
    flat = mu.ravel()
    if config.scenario != "spdc_heralded":
        p, herald = poisson_probs(flat, N_MAX_DEFAULT), np.ones(flat.size)
    else:
        p_herald, p = spdc_heralded(flat, det, N_MAX_DEFAULT, config.spdc_pair_statistics)
        herald = p_herald * p_herald
    return p.reshape(mu.shape + (N_MAX_DEFAULT + 1,)), herald.reshape(mu.shape)


def rate_at(config: ScenarioConfig, distance_km) -> Callable[[np.ndarray], tuple]:
    """mu -> (key rate per pump pulse, joint heralding probability,
    KeyRateBreakdown), for every scenario.

    At one distance mu is a 1-D array and the results run over it.  At a
    sequence of D distances the results are (D, K) for a grid of K points
    shared by every distance (mu of shape (1, K)), and (D, 1) for one mu
    per distance (mu of shape (D, 1)).  The six matrices of the rate's
    quadratic forms depend on the distance only and are built here once for
    all distances: the relay yields in one contraction, the phase-error
    bounds in one array call per type and intercept.  A call evaluates
    them at the emission probabilities of every (distance, mu) in one
    einsum, with no (n, m) temporaries.
    """
    det, t = _relay(config, distance_km)
    if config.scenario == "bb84_baseline":
        forms = bb84_forms(*(relay_yields(det, t, "bb84", basis) for basis in ("key", "test")))
        fractions = bb84_baseline_rate
    else:
        y = relay_yields(det, t, qnd=config.scenario == "qnd_coherent")
        forms = key_forms(y, config.photon_terms == "one_one_only")
        fractions = functools.partial(key_fractions, include=INCLUDED_TYPES[config.type_selection])
    forms = forms[:, ..., None, :, :]  # a mu axis after the distances

    def rate(mu: np.ndarray):
        p, herald = _emission_probs(config, det, mu)
        breakdown = fractions(form_values(forms, p, p), config.ec_inefficiency)
        return breakdown.total * herald, herald, breakdown

    return rate


def mu_grid(config: ScenarioConfig) -> list[float]:
    """The coarse logarithmic mu grid of `optimize_mu`, MU_COARSE_POINTS
    points from mu_min to mu_max, both ends exactly as configured."""
    lo, hi = math.log(config.mu_min), math.log(config.mu_max)
    steps = MU_COARSE_POINTS - 1
    inner = [math.exp(lo + (hi - lo) * j / steps) for j in range(1, steps)]
    return [config.mu_min, *inner, config.mu_max]


def optimize_distances(config: ScenarioConfig, distances: list[float]) -> list[RateCurvePoint]:
    """Maximize the per-pulse key rate over the mean photon number at every
    distance, all distances in lockstep.

    The whole coarse logarithmic grid is evaluated over (distance, mu) in
    one call, whose largest array holds the six form values, (6, D, K).
    Golden-section search then refines log mu to 1e-4 within one grid step
    either side of each distance's best grid point, every distance through
    the iterates of its own search: a bracket at a grid edge is half as
    wide and finishes earlier, and a distance whose best grid rate is 0
    keeps that point without a search.  Both senders share the same mu.
    """
    rate = rate_at(config, distances)
    grid = mu_grid(config)
    rates = rate(np.array([grid]))[0]
    best = np.argmax(rates, axis=1)
    best_rate = rates[np.arange(len(distances)), best]
    live = best_rate > 0.0
    log_grid = np.array([math.log(m) for m in grid])
    lo = np.where(live, log_grid[np.maximum(best - 1, 0)], log_grid[best])
    hi = np.where(live, log_grid[np.minimum(best + 1, len(grid) - 1)], log_grid[best])
    log_mu, neg = golden_section_minimize(
        lambda x: -rate(np.exp(x)[:, None])[0][:, 0], lo, hi, MU_REL_TOL
    )
    mu_opt = np.where(live & (-neg >= best_rate), np.exp(log_mu), np.array(grid)[best])
    return _points(distances, mu_opt.tolist(), rate(mu_opt[:, None]))


def optimize_mu(config: ScenarioConfig, distance_km: float) -> RateCurvePoint:
    """Maximize the per-pulse key rate over the mean photon number at one
    distance (see `optimize_distances`)."""
    return optimize_distances(config, [distance_km])[0]


def points_at(config: ScenarioConfig, distances: list[float], mu: float) -> list[RateCurvePoint]:
    """Rate-curve rows of the configured scenario at a fixed mu, one per
    distance, from one evaluation over all of them."""
    mus = [mu] * len(distances)
    return _points(distances, mus, rate_at(config, distances)(np.array(mus)[:, None]))


def _points(distances: list[float], mus: list[float], result: tuple) -> list[RateCurvePoint]:
    """Rows of a `rate_at` result over D distances with one mu each."""
    rate, herald, b = result
    columns = [c[:, 0] for c in (rate, b.G1, b.G2, b.total, b.e_tot_1, b.e_tot_2, herald)]
    return [
        RateCurvePoint(d, mu, *row[1:], zero_rate=row[0] <= 0.0)
        for d, mu, row in zip(distances, mus, zip(*(c.tolist() for c in columns)))
    ]


def run_sweep(config: ScenarioConfig) -> list[RateCurvePoint]:
    """Optimize mu at every distance on the grid, in lockstep (see
    `optimize_distances`); write CSV to the config's output_path if set.

    Output is deterministic for a fixed config; the config rejects an empty
    distance grid.
    """
    points = optimize_distances(config, config.distances())
    if config.output_path:
        write_csv(csv_lines(points), config.output_path)
    return points


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def csv_lines(points: list[RateCurvePoint]) -> list[str]:
    return [CSV_HEADER] + [",".join(_fmt(getattr(p, c)) for c in CSV_COLUMNS) for p in points]


def write_csv(lines: list[str], path: str | None = None) -> None:
    """Write CSV lines, each ended by a newline, to the file at path, or to
    standard output when no path is given."""
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
