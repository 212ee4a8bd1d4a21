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
    optimize_mu,
    point_at,
    run_sweep,
    write_csv,
)

SHORT = ScenarioConfig(distance_stop_km=10.0, distance_step_km=5.0)


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
