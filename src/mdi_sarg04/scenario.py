"""Scenario orchestration: per-distance mean-photon-number optimization
and rate-versus-distance sweeps with CSV emission.

Scenarios: coherent sources with relay photon-number postselection,
heralded SPDC sources with the bare relay, and an MDI-BB84 comparator.
Rates are reported per (heralded) pulse pair; for heralded sources a
per-pump-pulse column (rate times joint heralding probability) is also
emitted, and the heralding probability is the optimization weight so the
optimum is per pump pulse.

The rate is a set of quadratic forms in the emission vector whose
matrices depend on the relay alone (see `rates`): a sweep builds the
relay's arrival table once, then takes one distance at a time, builds its
forms and evaluates them at each mean photon number of its mu search.  The
key terms alone bound the rate from above (`rates.key_bound`), so the
search evaluates the rate only at the grid points whose bound reaches the
best rate found (see `optimize_distances`).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from typing import NamedTuple

from .bounds import golden_section_minimize
from .config import ScenarioConfig
from .optics import N_MAX_DEFAULT, ChannelParams, DetectorParams, relay
from .rates import (
    INCLUDED_TYPES,
    bb84_baseline_rate,
    bb84_forms,
    key_bound,
    key_forms,
    key_fractions,
    key_terms,
    pair_weights,
    weighted_values,
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


def _rates(config: ScenarioConfig) -> tuple[Callable, Callable]:
    """The configured scenario's (emission, rates_at): mu -> (the nine
    `pair_weights` of the emission vector, joint heralding probability), and
    distance -> (rate, bound), where rate maps (weights, herald) to (key
    rate per pump pulse, herald, KeyRateBreakdown) and bound maps them to
    the `key_bound` times herald, never below that key rate.  The relay's
    arrival table is built here once, and the forms of a distance once per
    distance; the emission does not depend on the distance."""
    det = DetectorParams(eta=config.eta, dark=config.dark)
    f_ec, include = config.ec_inefficiency, INCLUDED_TYPES[config.type_selection]
    bb84 = config.scenario == "bb84_baseline"
    if bb84:
        key, test = (relay(det, "bb84", basis) for basis in ("key", "test"))
        # the comparator's rate merges both types, whatever the selection
        bounded = INCLUDED_TYPES["both"]
    else:
        yields = relay(det, qnd=config.scenario == "qnd_coherent")
        one_one_only = config.photon_terms == "one_one_only"
        bounded = include

    def emission(mu: float) -> tuple[list[float], float]:
        if config.scenario != "spdc_heralded":
            p, herald = poisson_probs(mu, N_MAX_DEFAULT), 1.0
        else:
            p_herald, p = spdc_heralded(mu, det, N_MAX_DEFAULT, config.spdc_pair_statistics)
            herald = p_herald * p_herald
        return pair_weights(p, p), herald

    def rates_at(distance_km: float) -> tuple[Callable, Callable]:
        t_arm = ChannelParams(config.loss_db_per_km, distance_km).t_arm
        if bb84:
            forms = bb84_forms(key(t_arm), test(t_arm))
        else:
            forms = key_forms(yields(t_arm), one_one_only)
        terms = key_terms(forms, bounded)

        def rate(weights: list[float], herald: float) -> tuple:
            values = weighted_values(forms, weights)
            if bb84:
                breakdown = bb84_baseline_rate(values, f_ec)
            else:
                breakdown = key_fractions(values, f_ec, include)
            return breakdown.total * herald, herald, breakdown

        def bound(weights: list[float], herald: float) -> float:
            return key_bound(terms, weights) * herald

        return rate, bound

    return emission, rates_at


def mu_grid(config: ScenarioConfig) -> list[float]:
    """The coarse logarithmic mu grid of `optimize_mu`, MU_COARSE_POINTS
    points from mu_min to mu_max, both ends exactly as configured."""
    lo, hi = math.log(config.mu_min), math.log(config.mu_max)
    steps = MU_COARSE_POINTS - 1
    inner = [math.exp(lo + (hi - lo) * j / steps) for j in range(1, steps)]
    return [config.mu_min, *inner, config.mu_max]


def optimize_distances(config: ScenarioConfig, distances: list[float]) -> list[RateCurvePoint]:
    """Maximize the per-pulse key rate over the mean photon number at every
    distance, one distance at a time.

    The best point of the coarse logarithmic grid is found by branch and
    bound: the grid's emission weights are computed once per sweep, every
    grid point's `key_bound` (the key terms without the error-correction
    cost) at each distance, and the rate in order of falling bound, until a
    bound falls strictly below the best rate found.  No point left out can
    reach that rate, since the bound is never below the rate, even after
    rounding, so the choice is the full grid's: its largest rate, the
    lowest grid index among equal ones.  Golden-section search then refines
    log mu to 1e-4 within one grid step either side of the best grid point:
    a bracket at a grid edge is half as wide, and a distance whose best grid
    rate is 0 keeps that point without a search.  Both senders share the
    same mu.  Each row reuses an evaluation: the grid's own, or the
    search's last one, at the point the search returns.
    """
    (emission, rates_at), grid = _rates(config), mu_grid(config)
    grid_emission = [emission(mu) for mu in grid]
    log_grid = [math.log(m) for m in grid]
    points = []
    for distance in distances:
        rate, bound = rates_at(distance)
        bounds = [bound(*e) for e in grid_emission]
        evaluated, top = {}, -math.inf
        for j in sorted(range(len(grid)), key=bounds.__getitem__, reverse=True):
            if bounds[j] < top:
                break
            evaluated[j] = rate(*grid_emission[j])
            top = max(top, evaluated[j][0])
        best = max(sorted(evaluated), key=lambda j: evaluated[j][0])
        mu_opt, row = grid[best], evaluated[best]
        if row[0] > 0.0:
            searched = None

            def negative_rate(log_mu: float) -> float:
                nonlocal searched
                searched = rate(*emission(math.exp(log_mu)))
                return -searched[0]

            lo, hi = log_grid[max(best - 1, 0)], log_grid[min(best + 1, len(grid) - 1)]
            log_mu, neg = golden_section_minimize(negative_rate, lo, hi, MU_REL_TOL)
            if -neg >= row[0]:
                mu_opt, row = math.exp(log_mu), searched
        points.append(_point(distance, mu_opt, row))
    return points


def optimize_mu(config: ScenarioConfig, distance_km: float) -> RateCurvePoint:
    """Maximize the per-pulse key rate over the mean photon number at one
    distance (see `optimize_distances`)."""
    return optimize_distances(config, [distance_km])[0]


def points_at(config: ScenarioConfig, distances: list[float], mu: float) -> list[RateCurvePoint]:
    """Rate-curve rows of the configured scenario at a fixed mu, one per
    distance."""
    emission, rates_at = _rates(config)
    weights, herald = emission(mu)
    return [_point(d, mu, rates_at(d)[0](weights, herald)) for d in distances]


def _point(distance_km: float, mu: float, result: tuple) -> RateCurvePoint:
    """The row of a rate result (rate, herald, breakdown) of `_rates` at one
    distance and mu."""
    rate, herald, b = result
    return RateCurvePoint(
        distance_km, mu, b.G1, b.G2, b.total, b.e_tot_1, b.e_tot_2, herald, zero_rate=rate <= 0.0
    )


def run_sweep(config: ScenarioConfig) -> list[RateCurvePoint]:
    """Optimize mu at every distance on the grid (see `optimize_distances`);
    write CSV to the config's output_path if set.

    Output is deterministic for a fixed config; the config rejects an empty
    distance grid.
    """
    points = optimize_distances(config, config.distances())
    if config.output_path is not None:
        write_csv(csv_lines(points), config.output_path)
    return points


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def csv_lines(points: list[RateCurvePoint]) -> list[str]:
    return [CSV_HEADER] + [",".join(_fmt(getattr(p, c)) for c in CSV_COLUMNS) for p in points]


def write_csv(lines: list[str], path: str | None = None) -> None:
    """Write CSV lines, each ended by a newline, to the file at path, or to
    standard output when path is None."""
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
