"""Scenario orchestration: per-distance mean-photon-number optimization
and rate-versus-distance sweeps with CSV emission.

Scenarios: coherent sources with relay photon-number postselection,
heralded SPDC sources with the bare relay, and an MDI-BB84 comparator.
Rates are reported per (heralded) pulse pair; for heralded sources a
per-pump-pulse column (rate times joint heralding probability) is also
emitted.  The optimum is per pump pulse: a heralded source's rate is
evaluated at its weights per pump pulse (`sources.spdc_emission`), and
each row's fractions are divided by the joint heralding probability once.

The rate is a set of quadratic forms in the distribution of photons that
arrive at the relay's detectors (see `rates`): a sweep builds the relay's
arrival forms once, then takes one distance at a time, thins the emission
by its channel and evaluates the rate, with its derivative in log mu, at
each mean photon number of its mu search.  The key terms alone bound the
rate from above (`rates.key_bound`), so the search evaluates the rate only
at the grid points whose bound reaches the best rate found, and then
solves for the root of the derivative next to the best of them (see
`optimize_distances`).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from functools import partial
from typing import NamedTuple

from .config import ScenarioConfig
from .optics import (
    N_MAX_DEFAULT,
    ChannelParams,
    DetectorParams,
    detector_table,
    thinned_cell,
    thinning_matrix,
)
from .rates import (
    INCLUDED_TYPES,
    KEY_TERMS,
    arrival_forms,
    bb84_key_terms,
    distance_rate,
    weighted_emission,
    key_bound,
    key_terms,
)
from .sources import poisson_log_slopes, poisson_probs, spdc_emission

MU_COARSE_POINTS = 40
# the accuracy in log mu, so relative in mu, of the optimum `_refine` returns
LOG_MU_TOL = 1e-10
# the least span in log mu over which `_step` fits a cubic to two points'
# rates: their difference over a shorter span is mostly rounding
_CUBIC_MIN_SPAN = 1e-4

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
    """The configured scenario's (emission, rates_at): mu -> its
    `rates.weighted_emission`, and distance -> (rate, bound), where rate is
    the `rates.distance_rate` there, mapping an emission to (key rate per
    pump pulse, its terms, KeyRateBreakdown), and bound maps the key
    weights of emissions to each one's `key_bound`, never below its key
    rate.  The relay's arrival forms are built here once, and the key
    terms of a distance once per distance; the emission does not depend on
    the distance."""
    det = DetectorParams(eta=config.eta, dark=config.dark)
    f_ec, include = config.ec_inefficiency, INCLUDED_TYPES[config.type_selection]
    n_max, statistics = N_MAX_DEFAULT, config.spdc_pair_statistics
    bb84 = config.scenario == "bb84_baseline"
    if bb84:
        table, test = (detector_table(det, "bb84", basis) for basis in ("key", "test"))
        # the comparator's rate merges both types, whatever the selection
        bounded = INCLUDED_TYPES["both"]
    else:
        table = detector_table(det, qnd=config.scenario == "qnd_coherent")
        cells = KEY_TERMS[:1] if config.photon_terms == "one_one_only" else KEY_TERMS
        bounded = include
    forms = arrival_forms(table, "bb84" if bb84 else "sarg04")

    def emission(mu: float):
        if config.scenario != "spdc_heralded":
            return weighted_emission(poisson_probs(mu, n_max), poisson_log_slopes(mu, n_max))
        return weighted_emission(*spdc_emission(mu, det, n_max, statistics)[1:])

    def rates_at(distance_km: float) -> tuple[Callable, Callable]:
        thin = thinning_matrix(ChannelParams(config.loss_db_per_km, distance_km).t_arm, n_max)
        if bb84:
            terms = bb84_key_terms(*(thinned_cell(y, thin[1], thin[1]) for y in (table, test)))
        else:
            terms = key_terms([thinned_cell(table, thin[n], thin[m]) for n, m in cells])
        bound = partial(key_bound, [terms[t - 1] for t in bounded])
        return distance_rate(forms, thin, terms, f_ec, include, bb84), bound

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
    bound: the grid's emissions are computed once per sweep, every grid
    point's `key_bound` (the key terms without the error-correction cost)
    at each distance, and the rate in order of falling bound, until a bound
    falls strictly below the best rate found.  No point left out can reach
    that rate, since the bound is never below the rate, even after
    rounding, so the choice is the full grid's: its largest rate, the
    lowest grid index among equal ones.

    A distance whose best grid rate is 0 keeps that point.  The rate is
    the largest of the sums of its terms (`rates.distance_rate`) over the
    sets of them, and each sum is smooth; the sets searched are those
    positive at the best grid point or at a grid neighbour, so a kink
    where some G_t crosses 0 near the optimum is searched past.  For each,
    the grid neighbour its derivative rises towards is taken and, when the
    derivative falls from positive to at most 0 between the two, its root
    there is solved for (`_refine`).  The optimum is the best of those
    roots, unless the best grid point's rate is higher, as at a window edge
    the derivative points past.  Both senders share the same mu.  Each row
    is an evaluation already made: the grid's own, or a search's last one.
    """
    (emission, rates_at), grid = _rates(config), mu_grid(config)
    grid_emission = [emission(mu) for mu in grid]
    grid_weights = [e[2] for e in grid_emission]
    log_grid = [math.log(m) for m in grid]
    points = []
    for distance in distances:
        rate, bound = rates_at(distance)
        bounds = bound(grid_weights)
        evaluated, top = {}, -math.inf
        for j in sorted(range(len(grid)), key=bounds.__getitem__, reverse=True):
            if bounds[j] < top:
                break
            evaluated[j] = rate(grid_emission[j])
            top = max(top, evaluated[j][0])
        best = max(sorted(evaluated), key=lambda j: evaluated[j][0])
        mu_opt, row = grid[best], evaluated[best]
        if row[0] > 0.0:
            near = [j for j in (best, best - 1, best + 1) if 0 <= j < len(grid)]
            for j in near:
                if j not in evaluated:
                    evaluated[j] = rate(grid_emission[j])
            for terms in dict.fromkeys(_positive(evaluated[j]) for j in near):
                if not terms:
                    continue
                slope = _slope(terms)
                rise = slope(evaluated[best])
                # the neighbour the sum rises towards, if the grid has one
                side = best + (1 if rise > 0.0 else -1)
                if rise == 0.0 or side not in near:
                    continue
                searched = _refine(
                    lambda x: rate(emission(math.exp(x))), slope,
                    (log_grid[best], evaluated[best]), (log_grid[side], evaluated[side]),
                )
                if searched is not None and searched[1][0] >= row[0]:
                    mu_opt, row = math.exp(searched[0]), searched[1]
        points.append(_point(config, distance, mu_opt, row))
    return points


def _positive(row: tuple) -> tuple[int, ...]:
    """The indices of the positive terms of a rate result of `_rates`, the
    terms whose sum is the rate there."""
    return tuple([i for i, (g, _) in enumerate(row[1]) if g > 0.0])


def _slope(terms: tuple[int, ...]) -> Callable:
    """A rate result of `_rates` -> the derivative in log mu of the sum of
    its terms at the indices `terms`, one or both of the two types."""
    first, *rest = terms
    if not rest:
        return lambda row: row[1][first][1]
    (second,) = rest
    return lambda row: row[1][first][1] + row[1][second][1]


def _refine(evaluate: Callable, slope: Callable, start: tuple, end: tuple) -> tuple | None:
    """The root in log mu of the derivative `slope` of a smooth sum of the
    rate's terms between two evaluated points (x, evaluation): the best
    grid point `start`, where the sum rises towards `end`, and its
    neighbour `end`.  (x, evaluation) of the last point evaluated, once the
    next step would move x by at most LOG_MU_TOL / 2 or the bracket of the
    root is at most LOG_MU_TOL wide; None if the sum still rises towards
    `end` at `end`, or the first step would not move from `start`.

    The sum rises towards `end` where its derivative times the direction of
    `end` is positive; there the point replaces `start` as the bracket's
    near end, elsewhere `end` as its far end.  Each step is `_step` from the
    last two points' rates and the sum's derivatives, or bisection of the
    bracket when that step leaves it or fails to halve the step before the
    last.  The rate is the sum wherever the sum's terms are the positive
    ones; where it is not, past a kink, a poor step only costs a bisection.
    """
    (a, end_row), (b, start_row) = end, start
    ra, da, rb, db = end_row[0], slope(end_row), start_row[0], slope(start_row)
    toward = math.copysign(1.0, a - b)
    if da * toward > 0.0:
        return None
    near, far = b, a
    row, step = None, math.inf
    while True:
        x = _step(a, ra, da, b, rb, db)
        inside = (x - near) * (far - x)
        if inside >= 0.0 and abs(x - b) <= LOG_MU_TOL / 2:
            return None if row is None else (b, row)
        if not (inside > 0.0 and abs(x - b) < step / 2):
            x = (near + far) / 2
        step = math.inf if row is None else abs(b - a)
        row = evaluate(x)
        (a, ra, da), (b, rb, db) = (b, rb, db), (x, row[0], slope(row))
        if db * toward > 0.0:
            near = x
        else:
            far = x
        if abs(far - near) <= LOG_MU_TOL:
            return b, row


def _step(a: float, ra: float, da: float, b: float, rb: float, db: float) -> float:
    """The next estimate of the derivative's root from the points a and b
    (b the later), with rates ra, rb and derivatives da, db: the maximum of
    the cubic that matches both rates and derivatives (Nocedal and Wright,
    Numerical Optimization, eq. 3.59) while the points are at least
    _CUBIC_MIN_SPAN apart and the cubic has a finite one, else the secant
    root of the derivative; NaN where neither exists."""
    d1 = 3 * (rb - ra) / (b - a) - da - db
    disc = d1 * d1 - da * db
    if abs(b - a) >= _CUBIC_MIN_SPAN and disc >= 0.0:
        d2 = math.copysign(math.sqrt(disc), b - a)
        if da - db + 2 * d2 != 0.0:
            return b - (b - a) * (d2 - d1 - db) / (da - db + 2 * d2)
    return b - db * (b - a) / (db - da) if db != da else math.nan


def optimize_mu(config: ScenarioConfig, distance_km: float) -> RateCurvePoint:
    """Maximize the per-pulse key rate over the mean photon number at one
    distance (see `optimize_distances`)."""
    return optimize_distances(config, [distance_km])[0]


def points_at(config: ScenarioConfig, distances: list[float], mu: float) -> list[RateCurvePoint]:
    """Rate-curve rows of the configured scenario at a fixed mu, one per
    distance."""
    emission, rates_at = _rates(config)
    em = emission(mu)
    return [_point(config, d, mu, rates_at(d)[0](em)) for d in distances]


def _point(config: ScenarioConfig, distance_km: float, mu: float, result: tuple) -> RateCurvePoint:
    """The row of a rate result (rate per pump pulse, terms, breakdown) of
    `_rates` at one distance and mu: G1, G2 and total per (heralded) pulse
    pair, the breakdown's over the joint heralding probability, which is
    1 for unheralded sources.  Where nothing heralds they stay the
    breakdown's, which are 0 there."""
    rate, _, b = result
    herald = 1.0
    if config.scenario == "spdc_heralded":
        det = DetectorParams(eta=config.eta, dark=config.dark)
        # p_herald alone: a cutoff of 0 skips the weights
        p_herald = spdc_emission(mu, det, 0, config.spdc_pair_statistics)[0]
        herald = p_herald * p_herald
    g1, g2, total = (g / herald if herald else g for g in (b.G1, b.G2, b.total))
    return RateCurvePoint(
        distance_km, mu, g1, g2, total, b.e_tot_1, b.e_tot_2, herald, zero_rate=rate <= 0.0
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
