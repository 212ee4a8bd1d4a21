"""Scenario sweeps, mean-photon-number optimization, CSV emission."""

import math
import tracemalloc

import numpy as np
import pytest

from mdi_sarg04 import scenario as scenario_module
from mdi_sarg04.config import PHOTON_TERMS, SCENARIOS, TYPE_SELECTIONS, ScenarioConfig
from mdi_sarg04.scenario import (
    MU_COARSE_POINTS,
    csv_lines,
    mu_grid,
    optimize_mu,
    points_at,
    run_sweep,
    write_csv,
)
from tests.golden_search import golden_section_minimize
from tests.rate_oracle import oracle_point

SHORT = ScenarioConfig(distance_stop_km=10.0, distance_step_km=5.0)

# sweeps whose rows leave the mu search at different iterations: optima
# inside the mu grid, on its upper or lower edge (a half-width bracket), and
# zero-rate distances that skip the search
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
        probes = rng.uniform(SHORT.mu_min, SHORT.mu_max, size=20)
        rates = np.array([points_at(SHORT, [10.0], mu)[0].total_per_pulse for mu in probes])
        assert (point.total_per_pulse >= rates - 1e-12).all()

    def test_zero_rate_flag(self):
        # starved configuration: tiny mu range cannot produce key at long
        # distance with one_one_only removed terms and huge dark floor
        cfg = SHORT._replace(dark=0.05, mu_min=1e-4, mu_max=2e-4, distance_stop_km=300.0)
        point = optimize_mu(cfg, 300.0)
        assert point.zero_rate
        assert point.total == 0.0

    @pytest.mark.parametrize("scenario", ["qnd_coherent", "spdc_heralded", "bb84_baseline"])
    def test_optimum_row_equals_one_shot_row(self, scenario):
        # the forms optimize_mu reuses across mu must belong to its distance
        cfg = SHORT._replace(scenario=scenario)
        for d in (5.0, 40.0):
            p = optimize_mu(cfg, d)
            assert p._asdict() == points_at(cfg, [d], p.mu_opt)[0]._asdict()
            for field, want in oracle_point(cfg, d, p.mu_opt).items():
                assert getattr(p, field) == pytest.approx(want, rel=1e-13, abs=0.0), field

    @pytest.mark.parametrize(
        "window", [(1e-4, 1.5), (0.051, 0.5), (1e-3, 0.998), (0.3, 0.7), (1e-6, 20.0)]
    )
    def test_grid_ends_at_the_window(self, window):
        grid = mu_grid(SHORT._replace(mu_min=window[0], mu_max=window[1]))
        assert len(grid) == MU_COARSE_POINTS
        assert (grid[0], grid[-1]) == window
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_zero_rate_optimum_is_mu_min(self):
        # no key anywhere in the window: the optimum stays on the first grid point
        point = optimize_mu(SHORT, 1e6)
        assert point.zero_rate
        assert point.mu_opt == SHORT.mu_min

    def test_no_rate_evaluated_twice(self, monkeypatch):
        # every row is an evaluation already made: no two rate evaluations
        # of one optimize_mu call share a mu, and the grid points left out
        # are those whose key-term bound is below the optimum
        build = scenario_module._rates
        emitted, evaluated, bounds = {}, [], []

        def recording(config):
            emission, rates_at = build(config)

            def recorded_emission(mu):
                em = emission(mu)
                emitted[id(em)] = mu, em  # kept alive, so its id is not reused
                return em

            def recorded_rates_at(distance):
                rate, bound = rates_at(distance)
                grid = [emission(mu) for mu in mu_grid(config)]
                bounds.extend(bound([em[2] for em in grid]))

                def recorded_rate(em):
                    evaluated.append(emitted[id(em)][0])
                    return rate(em)

                return recorded_rate, bound

            return recorded_emission, recorded_rates_at

        monkeypatch.setattr(scenario_module, "_rates", recording)
        point = optimize_mu(SHORT, 10.0)
        assert not point.zero_rate
        left_out = [b for mu, b in zip(mu_grid(SHORT), bounds) if mu not in evaluated]
        assert left_out and all(b < point.total_per_pulse for b in left_out)
        assert len(set(evaluated)) == len(evaluated)
        assert point.mu_opt in evaluated
        assert evaluated[-1] == point.mu_opt

    def test_heralded_scenario_runs(self):
        cfg = SHORT._replace(scenario="spdc_heralded")
        point = optimize_mu(cfg, 0.0)
        assert point.total > 0
        assert 0 < point.p_herald < 1


def _full_grid_optimum(config, distance):
    """The grid index and row of the optimum with every grid rate evaluated,
    ties going to the first grid point, refined by a golden-section search
    to 1e-13 in log mu within one grid step either side, where it is higher
    than the grid point."""
    emission, rates_at = scenario_module._rates(config)
    rate, _ = rates_at(distance)
    grid = mu_grid(config)
    results = [rate(emission(mu)) for mu in grid]
    best = max(range(len(grid)), key=lambda j: results[j][0])
    mu_opt, row = grid[best], results[best]
    if row[0] > 0.0:
        lo = math.log(grid[max(best - 1, 0)])
        hi = math.log(grid[min(best + 1, len(grid) - 1)])
        searched = []

        def negative_rate(log_mu):
            searched.append(rate(emission(math.exp(log_mu))))
            return -searched[-1][0]

        log_mu, neg = golden_section_minimize(negative_rate, lo, hi, 1e-13)
        if -neg >= row[0]:
            mu_opt, row = math.exp(log_mu), searched[-1]
    return best, scenario_module._point(config, distance, mu_opt, row)


PRUNING_CONFIGS = {
    f"{sc}-{ts}-{pt}": ScenarioConfig(scenario=sc, type_selection=ts, photon_terms=pt)
    for sc in SCENARIOS
    for ts in TYPE_SELECTIONS
    for pt in PHOTON_TERMS
}
PRUNING_CONFIGS["spdc_heralded-poisson"] = ScenarioConfig(
    scenario="spdc_heralded", spdc_pair_statistics="poisson"
)


class TestPrunedGrid:
    @pytest.mark.parametrize("config", PRUNING_CONFIGS.values(), ids=PRUNING_CONFIGS)
    def test_pruned_choice_equals_full_grid(self, config, monkeypatch):
        # 300 km has no key, though its key terms are positive: every grid
        # bound reaches the zero rate, and the first grid point is the choice
        search = scenario_module._refine
        starts, evaluated = [], []

        def recording(evaluate, slope, start, end):
            starts.append(start[0])

            def recorded(log_mu):
                evaluated.append(log_mu)
                return evaluate(log_mu)

            return search(recorded, slope, start, end)

        monkeypatch.setattr(scenario_module, "_refine", recording)
        grid = mu_grid(config)
        log_grid = [math.log(mu) for mu in grid]
        for distance in (0.0, 45.0, 200.0, 300.0):
            best, want = _full_grid_optimum(config, distance)
            starts.clear()
            evaluated.clear()
            got = optimize_mu(config, distance)
            if want.zero_rate:
                assert not starts and repr(got) == repr(want), distance
            else:
                # every search starts from the full grid's choice and stays in its bracket
                low, high = max(best - 1, 0), min(best + 1, len(log_grid) - 1)
                assert all(x == log_grid[best] for x in starts), distance
                assert starts or got.mu_opt == grid[best], distance
                assert all(log_grid[low] <= x <= log_grid[high] for x in evaluated), distance
                assert grid[low] <= got.mu_opt <= grid[high], distance
                assert got.total_per_pulse >= want.total_per_pulse * (1 - 1e-14), distance
                assert got.total_per_pulse == pytest.approx(want.total_per_pulse, rel=1e-14, abs=0)
            assert want.zero_rate == (distance == 300.0)

class TestKinks:
    """Near a kink, where some G_t crosses 0 by the optimum, the rate has
    a flat zero or two local maxima between the best grid point and its
    neighbours; the optimum is the highest of them."""

    @pytest.mark.parametrize(
        "config, distance",
        [
            # the lower neighbour has no key: its rate and slope read 0
            (ScenarioConfig(photon_terms="one_one_only"), 208.8),
            # a second maximum past the kink where G2 falls to 0, on either side
            (ScenarioConfig(scenario="spdc_heralded"), 224.0),
            (ScenarioConfig(scenario="spdc_heralded"), 225.6),
        ],
        ids=["qnd-flat-zero", "spdc-second-maximum-ahead", "spdc-second-maximum-behind"],
    )
    def test_optimum_is_the_highest_maximum(self, config, distance):
        emission, rates_at = scenario_module._rates(config)
        rate, _ = rates_at(distance)
        grid = mu_grid(config)
        best = max(range(len(grid)), key=lambda j: rate(emission(grid[j]))[0])
        lo, hi = math.log(grid[max(best - 1, 0)]), math.log(grid[best + 1])
        scan = [rate(emission(math.exp(lo + (hi - lo) * i / 2000)))[0] for i in range(2001)]
        got = optimize_mu(config, distance)
        assert got.total_per_pulse >= max(scan) * (1 - 1e-12)
        assert grid[best - 1] <= got.mu_opt <= grid[best + 1]


class TestGridMemory:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_whole_grid_in_one_call_stays_small(self, scenario):
        # a 0.5 km sweep may evaluate all of its 121 x 40 mu grid: no table over
        # (n, m) per grid point may be kept.  The evaluator is built once,
        # as a sweep builds it, with its relay table under the trace too
        config = ScenarioConfig(scenario=scenario, distance_step_km=0.5)
        grid = mu_grid(config)
        tracemalloc.start()
        try:
            emission, rates_at = scenario_module._rates(config)
            rates = []
            for d in config.distances():
                rate, _ = rates_at(d)
                rates.append([rate(emission(mu))[0] for mu in grid])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shape(rates) == (121, 40)
        assert peak < 1.5e6, peak


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
            SHORT._replace(distance_stop_km=-1.0)

    def test_csv_round_trip(self, tmp_path):
        points = run_sweep(SHORT)
        path = tmp_path / "curve.csv"
        write_csv(csv_lines(points), str(path))
        text = path.read_text()
        assert text.splitlines()[0].startswith("distance_km,mu_opt,")
        assert len(text.splitlines()) == len(points) + 1

    def test_deterministic_lines(self):
        a = csv_lines(run_sweep(SHORT))
        b = csv_lines(run_sweep(SHORT))
        assert a == b

    def test_output_path_written(self, tmp_path):
        path = tmp_path / "sweep.csv"
        points = run_sweep(SHORT._replace(output_path=str(path)))
        assert path.read_bytes() == ("\n".join(csv_lines(points)) + "\n").encode()

    def test_every_config_field_changes_the_csv(self):
        # a key that changes no output is a knob the user is told nothing about
        base = ScenarioConfig(distance_stop_km=20.0, distance_step_km=20.0)
        other = {
            "scenario": "spdc_heralded",
            "eta": 0.1,
            "dark": 1e-5,
            "loss_db_per_km": 0.3,
            "ec_inefficiency": 1.1,
            "distance_start_km": 1.0,
            "distance_stop_km": 40.0,
            "distance_step_km": 10.0,
            "mu_min": 1e-3,
            "mu_max": 1.0,
            "type_selection": "type1_only",
            "photon_terms": "one_one_only",
            "spdc_pair_statistics": "poisson",
        }
        fields = set(ScenarioConfig._fields) - {"output_path"}
        assert set(other) == fields
        for name, value in other.items():
            cfg = base
            if name == "spdc_pair_statistics":
                cfg = base._replace(scenario="spdc_heralded")
            changed = cfg._replace(**{name: value})
            assert csv_lines(run_sweep(changed)) != csv_lines(run_sweep(cfg)), name


class TestLockstep:
    @pytest.mark.parametrize("config", LOCKSTEP.values(), ids=LOCKSTEP)
    def test_sweep_rows_equal_one_distance_optima(self, config):
        rows = run_sweep(config)
        assert [repr(p) for p in rows] == [repr(optimize_mu(config, d)) for d in config.distances()]
        edges = mu_grid(config)[0], mu_grid(config)[-1]
        live = [p for p in rows if not p.zero_rate]
        assert any(p.mu_opt not in edges for p in live)
        assert any(p.mu_opt in edges for p in live) or len(live) < len(rows)
