"""Scenario orchestration: per-distance mean-photon-number optimization
and rate-versus-distance sweeps with CSV emission.

Scenarios: coherent sources with relay photon-number postselection,
heralded SPDC sources with the bare relay, and an MDI-BB84 comparator.
Rates are reported per (heralded) pulse pair; for heralded sources a
per-pump-pulse column (rate times joint heralding probability) is also
emitted, and the heralding probability is the optimization weight so the
optimum is per pump pulse.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .bounds import golden_section_minimize
from .config import ScenarioConfig
from .optics import ChannelParams, DetectorParams
from .rates import GainTable, assemble_gains, bb84_baseline_rate, key_fractions, phase_bounds
from .sources import poisson_source, spdc_heralded

MU_COARSE_POINTS = 40
MU_REL_TOL = 1e-4

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


def _relay(config: ScenarioConfig, distance_km: float) -> tuple[DetectorParams, float]:
    """Relay detector and one-arm transmittance at one distance."""
    det = DetectorParams(eta=config.eta, dark=config.dark)
    return det, ChannelParams(config.loss_db_per_km, distance_km).t_arm


def evaluate_gains(config: ScenarioConfig, distance_km: float, mu: float) -> GainTable:
    """Gain table of the configured scenario at one distance and mu."""
    det, t = _relay(config, distance_km)
    if config.scenario == "qnd_coherent":
        src = poisson_source(mu, config.n_cutoff)
        return assemble_gains(src, src, det, t, qnd=True)
    if config.scenario == "spdc_heralded":
        src = spdc_heralded(mu, det, config.n_cutoff, config.spdc_pair_statistics)
        return assemble_gains(src, src, det, t)
    raise ValueError(f"scenario {config.scenario!r} has no SARG04 gain table")


def rate_at(config: ScenarioConfig, distance_km: float) -> Callable[[float], tuple]:
    """mu -> (key rate per pump pulse, gains, breakdown) at one distance.

    The phase-error bounds depend on the distance only, so they are solved
    from the first gain table asked for and reused for every later mu.
    """
    det, t = _relay(config, distance_km)
    e_ph: dict = {}

    def rate(mu: float):
        if config.scenario == "bb84_baseline":
            src = poisson_source(mu, config.n_cutoff)
            kg = assemble_gains(src, src, det, t, protocol="bb84")
            tg = assemble_gains(src, src, det, t, protocol="bb84", bb84_basis="test")
            return bb84_baseline_rate(kg, tg, config.ec_inefficiency), kg, None
        gains = evaluate_gains(config, distance_km, mu)
        if not e_ph:
            e_ph.update(phase_bounds(gains, config.photon_terms == "one_one_only"))
        breakdown = key_fractions(gains, e_ph, config.ec_inefficiency, config.type_selection)
        return breakdown.total * gains.herald_probability, gains, breakdown

    return rate


def evaluate_rate(config: ScenarioConfig, distance_km: float, mu: float) -> tuple:
    """Key rate per pump pulse at one (distance, mu) point."""
    return rate_at(config, distance_km)(mu)


def optimize_mu(config: ScenarioConfig, distance_km: float) -> RateCurvePoint:
    """Maximize the per-pulse key rate over the mean photon number.

    Coarse logarithmic grid followed by golden-section refinement to a
    relative tolerance of 1e-4; both senders share the same mu.
    """
    rate = rate_at(config, distance_km)
    lo, hi = math.log(config.mu_min), math.log(config.mu_max)
    grid = [math.exp(lo + (hi - lo) * j / (MU_COARSE_POINTS - 1)) for j in range(MU_COARSE_POINTS)]
    rates = [rate(mu)[0] for mu in grid]
    best = max(range(len(grid)), key=lambda j: rates[j])
    mu_opt = grid[best]
    if rates[best] > 0.0:
        a = math.log(grid[max(best - 1, 0)])
        b = math.log(grid[min(best + 1, len(grid) - 1)])
        log_mu, neg = golden_section_minimize(lambda x: -rate(math.exp(x))[0], a, b, MU_REL_TOL)
        if -neg >= rates[best]:
            mu_opt = math.exp(log_mu)
    return _point(distance_km, mu_opt, rate(mu_opt))


def point_at(config: ScenarioConfig, distance_km: float, mu: float) -> RateCurvePoint:
    """Rate-curve row of the configured scenario at one (distance, mu)."""
    return _point(distance_km, mu, evaluate_rate(config, distance_km, mu))


def _point(distance_km: float, mu: float, result: tuple) -> RateCurvePoint:
    rate, gains, breakdown = result
    if breakdown is None:  # bb84 comparator
        g1 = g2 = 0.0
        total = rate / gains.herald_probability
    else:
        g1, g2, total = breakdown.G1, breakdown.G2, breakdown.total
    return RateCurvePoint(
        distance_km=distance_km,
        mu_opt=mu,
        G1=g1,
        G2=g2,
        total=total,
        e_tot_1=gains.type1.e_tot,
        e_tot_2=gains.type2.e_tot,
        p_herald=gains.herald_probability,
        zero_rate=rate <= 0.0,
    )


def run_sweep(config: ScenarioConfig, output_path: str | None = None) -> list[RateCurvePoint]:
    """Optimize mu at every distance on the grid; optionally write CSV.

    Output is deterministic for a fixed config.
    """
    distances = config.distances()
    if not distances:
        raise ValueError("empty distance grid")
    points = [optimize_mu(config, d) for d in distances]
    path = output_path or config.output_path
    if path:
        write_csv(points, path)
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
