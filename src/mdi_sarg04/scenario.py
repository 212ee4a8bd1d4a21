"""Scenario orchestration: per-distance mean-photon-number optimization
and rate-versus-distance sweeps with CSV emission.

Scenarios: coherent sources with relay photon-number postselection,
heralded SPDC sources with the bare relay, and an MDI-BB84 comparator.
Rates are reported per (heralded) pulse pair; for heralded sources a
per-pump-pulse column (rate times joint heralding probability) is also
emitted, and the heralding probability is the optimization weight so the
optimum is per pump pulse.

A sweep is one array evaluation over (distance, mu): the relay yields and
phase-error bounds of every distance at once, and the mu search of every
distance in lockstep.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bounds import golden_section_minimize
from .config import ScenarioConfig
from .optics import N_MAX_DEFAULT, ChannelParams, DetectorParams, relay_yields
from .rates import (
    INCLUDED_TYPES,
    GainTable,
    bb84_baseline_rate,
    fractions_from_factors,
    gain_kernel,
    privacy_factors,
)
from .sources import poisson_probs, spdc_heralded

MU_COARSE_POINTS = 40
MU_REL_TOL = 1e-4
# a sweep evaluates the mu grid over (distance, mu) in blocks of whole mu
# columns with at most this many entries (one column at least).  An entry
# holds about 700 bytes while its block is evaluated (the (n, m) gain rows
# and their running sums, then the key-fraction products): over one column
# per block, the whole 121 x 40 grid of a 0.5 km sweep at once raised the
# process's peak RSS by 3.1 MB (10 %), blocks of 1024 entries by 0.43 MB
# and blocks of this size by 0.24 MB (0.7 %).
GRID_BLOCK_ENTRIES = 512

CSV_HEADER = (
    "distance_km,mu_opt,G1,G2,total,total_per_pulse,e_tot_1,e_tot_2,p_herald"
)


@dataclass(frozen=True)
class RateCurvePoint:
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
    """mu -> (key rate per pump pulse, gains, breakdown), breakdown None for
    the BB84 comparator.

    At one distance mu is a 1-D array and the results run over it.  At a
    sequence of D distances the results are (D, K) for a grid of K points
    shared by every distance (mu of shape (1, K)), and (D, 1) for one mu
    per distance (mu of shape (D, 1)).  The relay yields depend on the
    distance only and are computed here once, in one contraction over all
    distances; so are the phase-error bounds and their privacy factors,
    from the first gain table, with one array call per type and intercept.
    """
    det, t = _relay(config, distance_km)
    if config.scenario == "bb84_baseline":
        key_gains = gain_kernel(relay_yields(det, t, "bb84", "key"), "bb84")
        test_gains = gain_kernel(relay_yields(det, t, "bb84", "test"), "bb84")

        def bb84_rate(mu: np.ndarray):
            p, herald = _emission_probs(config, det, mu)
            kg, tg = key_gains(p, p, herald), test_gains(p, p, herald)
            return bb84_baseline_rate(kg, tg, config.ec_inefficiency), kg, None

        return bb84_rate

    gains_at = gain_kernel(relay_yields(det, t, qnd=config.scenario == "qnd_coherent"))
    include = INCLUDED_TYPES[config.type_selection]
    factors = None

    def rate(mu: np.ndarray):
        nonlocal factors
        p, herald = _emission_probs(config, det, mu)
        gains = gains_at(p, p, herald)
        if factors is None:
            factors = privacy_factors(gains, config.photon_terms == "one_one_only")
        breakdown = fractions_from_factors(gains, factors, config.ec_inefficiency, include)
        return breakdown.total * herald, gains, breakdown

    return rate


def evaluate_gains(config: ScenarioConfig, distance_km: float, mu: float) -> GainTable:
    """Gain table of the configured SARG04 scenario at one distance and mu:
    the one-row view of `rate_at`."""
    if config.scenario == "bb84_baseline":
        raise ValueError(f"scenario {config.scenario!r} has no SARG04 gain table")
    return rate_at(config, distance_km)(np.array([mu]))[1].at(0)


def mu_grid(config: ScenarioConfig) -> list[float]:
    """The coarse logarithmic mu grid of `optimize_mu`, MU_COARSE_POINTS
    points from mu_min to mu_max."""
    lo, hi = math.log(config.mu_min), math.log(config.mu_max)
    return [math.exp(lo + (hi - lo) * j / (MU_COARSE_POINTS - 1)) for j in range(MU_COARSE_POINTS)]


def optimize_distances(config: ScenarioConfig, distances: list[float]) -> list[RateCurvePoint]:
    """Maximize the per-pulse key rate over the mean photon number at every
    distance, all distances in lockstep.

    The coarse logarithmic grid is evaluated over (distance, mu), in blocks
    of mu of at most GRID_BLOCK_ENTRIES entries.  Golden-section search then
    refines log mu to 1e-4 within one grid step either side of each
    distance's best grid point, every distance through the iterates of its
    own search: a bracket at a grid edge is half as wide and finishes
    earlier, and a distance whose best grid rate is 0 keeps that point
    without a search.  Both senders share the same mu.
    """
    rate = rate_at(config, distances)
    grid = mu_grid(config)
    step = max(1, GRID_BLOCK_ENTRIES // len(distances))
    rates = np.hstack([rate(np.array([grid[j : j + step]]))[0] for j in range(0, len(grid), step)])
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
    rate, gains, breakdown = result
    rate, herald = rate[:, 0], gains.herald_probability[:, 0]
    if breakdown is None:  # bb84 comparator
        g1 = g2 = np.zeros(len(distances))
        total = rate / herald
    else:
        g1, g2, total = (v[:, 0] for v in (breakdown.G1, breakdown.G2, breakdown.total))
    columns = (rate, g1, g2, total, gains.type1.e_tot[:, 0], gains.type2.e_tot[:, 0], herald)
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
        write_csv(points, config.output_path)
    return points


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def csv_lines(points: list[RateCurvePoint]) -> list[str]:
    lines = [CSV_HEADER]
    for p in points:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    p.distance_km,
                    p.mu_opt,
                    p.G1,
                    p.G2,
                    p.total,
                    p.total_per_pulse,
                    p.e_tot_1,
                    p.e_tot_2,
                    p.p_herald,
                )
            )
        )
    return lines


def write_csv(points: list[RateCurvePoint], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(csv_lines(points)) + "\n")
