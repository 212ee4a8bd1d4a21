"""Scenario sweeps, mean-photon-number optimization, CSV emission."""

import dataclasses

import numpy as np
import pytest

from mdi_sarg04.config import ScenarioConfig
from mdi_sarg04.rates import key_rate
from mdi_sarg04.scenario import (
    csv_lines,
    evaluate_gains,
    evaluate_rate,
    mu_grid,
    optimize_mu,
    point_at,
    run_sweep,
    write_csv,
)

SHORT = ScenarioConfig(distance_stop_km=10.0, distance_step_km=5.0)

# sweeps whose rows leave the lockstep mu search at different iterations:
# optima inside the mu grid, on its upper or lower edge (a half-width
# bracket), and zero-rate distances that skip the search
LOCKSTEP = {
    "qnd_upper_edge_zero_tail": ScenarioConfig(
        mu_max=1.1, distance_stop_km=300.0, distance_step_km=20.0
    ),
    "qnd_11_type1_zero_tail": ScenarioConfig(
        photon_terms="one_one_only",
        type_selection="type1_only",
        distance_stop_km=300.0,
        distance_step_km=25.0,
    ),
    "spdc_lower_edge": ScenarioConfig(
        scenario="spdc_heralded",
        mu_min=0.051,
        mu_max=0.5,
        distance_stop_km=120.0,
        distance_step_km=15.0,
    ),
    "bb84_upper_edge": ScenarioConfig(
        scenario="bb84_baseline", mu_max=0.998, distance_stop_km=200.0, distance_step_km=25.0
    ),
}


class TestOptimizeMu:
    def test_optimum_beats_random_probes(self):
        point = optimize_mu(SHORT, 10.0)
        rng = np.random.default_rng(7)
        for mu in rng.uniform(SHORT.mu_min, SHORT.mu_max, size=20):
            rate, _, _ = evaluate_rate(SHORT, 10.0, float(mu))
            assert point.total_per_pulse >= rate - 1e-12

    def test_zero_rate_flag(self):
        # starved configuration: tiny mu range cannot produce key at long
        # distance with one_one_only removed terms and huge dark floor
        cfg = dataclasses.replace(
            SHORT, dark=0.05, mu_min=1e-4, mu_max=2e-4, distance_stop_km=300.0
        )
        point = optimize_mu(cfg, 300.0)
        assert point.zero_rate
        assert point.total == 0.0

    @pytest.mark.parametrize("scenario", ["qnd_coherent", "spdc_heralded", "bb84_baseline"])
    def test_optimum_row_equals_one_shot_row(self, scenario):
        # the bounds optimize_mu reuses across mu must belong to its distance
        cfg = dataclasses.replace(SHORT, scenario=scenario)
        for d in (5.0, 40.0):
            p = optimize_mu(cfg, d)
            assert dataclasses.asdict(p) == dataclasses.asdict(point_at(cfg, d, p.mu_opt))
            if scenario != "bb84_baseline":
                b = key_rate(evaluate_gains(cfg, d, p.mu_opt), cfg.ec_inefficiency)
                assert (p.G1, p.G2, p.total) == (b.G1, b.G2, b.total)

    def test_heralded_scenario_runs(self):
        cfg = dataclasses.replace(SHORT, scenario="spdc_heralded")
        point = optimize_mu(cfg, 0.0)
        assert point.total > 0
        assert 0 < point.p_herald < 1


class TestRunSweep:
    def test_totals_non_increasing(self):
        points = run_sweep(SHORT)
        totals = [p.total_per_pulse for p in points]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))

    def test_distance_ordering(self):
        points = run_sweep(SHORT)
        assert [p.distance_km for p in points] == [0.0, 5.0, 10.0]

    def test_empty_grid_rejected(self):
        from mdi_sarg04.config import ConfigError

        with pytest.raises(ConfigError):
            dataclasses.replace(SHORT, distance_stop_km=-1.0)

    def test_csv_round_trip(self, tmp_path):
        points = run_sweep(SHORT)
        path = tmp_path / "curve.csv"
        write_csv(points, str(path))
        text = path.read_text()
        assert text.splitlines()[0].startswith("distance_km,mu_opt,")
        assert len(text.splitlines()) == len(points) + 1

    def test_deterministic_lines(self):
        a = csv_lines(run_sweep(SHORT))
        b = csv_lines(run_sweep(SHORT))
        assert a == b


class TestLockstep:
    @pytest.mark.parametrize("config", LOCKSTEP.values(), ids=LOCKSTEP)
    def test_sweep_rows_equal_one_distance_optima(self, config):
        rows = run_sweep(config)
        assert [repr(p) for p in rows] == [repr(optimize_mu(config, d)) for d in config.distances()]
        edges = mu_grid(config)[0], mu_grid(config)[-1]
        live = [p for p in rows if not p.zero_rate]
        assert any(p.mu_opt not in edges for p in live)
        assert any(p.mu_opt in edges for p in live) or len(live) < len(rows)
