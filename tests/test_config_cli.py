"""Configuration round-tripping and the command-line interface."""

import json
import math

import pytest

from mdi_sarg04.cli import main
from mdi_sarg04.config import MAX_DISTANCE_POINTS, ConfigError, ScenarioConfig


class TestConfig:
    def test_defaults_are_standard_experimental_values(self):
        cfg = ScenarioConfig()
        assert cfg.eta == 0.045
        assert cfg.dark == 8.5e-7
        assert cfg.loss_db_per_km == 0.21
        assert cfg.ec_inefficiency == 1.22

    def test_round_trip(self):
        cfg = ScenarioConfig(scenario="spdc_heralded", distance_stop_km=30.0)
        again = ScenarioConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"scenario": "qnd_coherent", "bogus": 1})

    def test_invalid_values_rejected(self):
        for bad in (
            {"scenario": "unknown"},
            {"eta": 0.0},
            {"dark": 1.0},
            {"ec_inefficiency": 0.5},
            {"mu_min": 2.0, "mu_max": 1.0},
            {"distance_step_km": 0.0},
            {"distance_step_km": float("nan")},
            {"distance_start_km": float("nan")},
            {"distance_stop_km": float("inf")},
            # a step below the float spacing of the start: 1.0 + 1e-20 == 1.0
            {"distance_start_km": 1.0, "distance_stop_km": 2.0, "distance_step_km": 1e-20},
            {"distance_stop_km": 1e6, "distance_step_km": 1e-3},
            {"type_selection": "all"},
            {"photon_terms": "everything"},
            {"n_cutoff": 201},
            {"n_cutoff": 10**12},
        ):
            with pytest.raises(ConfigError):
                ScenarioConfig.from_dict(bad)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json("not json")
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json("[1, 2]")

    def test_distance_grid(self):
        cfg = ScenarioConfig(distance_start_km=0.0, distance_stop_km=6.0, distance_step_km=2.0)
        assert cfg.distances() == [0.0, 2.0, 4.0, 6.0]
        fine = ScenarioConfig(distance_start_km=0.1, distance_stop_km=0.4, distance_step_km=0.1)
        assert fine.distances() == [0.1, 0.2, 0.3, 0.4]
        top = ScenarioConfig(distance_stop_km=MAX_DISTANCE_POINTS - 1.0, distance_step_km=1.0)
        assert len(top.distances()) == MAX_DISTANCE_POINTS


class TestCliVerify:
    def test_exit_zero_and_pass_lines(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.startswith("[PASS]")]
        assert len(lines) >= 12
        assert "[FAIL]" not in out


class TestCliBounds:
    def test_csv_header_and_shape(self, capsys):
        assert main(["bounds"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "s,f_s,g_s,e_bit,e_ph_11_t1,e_ph_11_t2,e_ph_12_t1,e_ph_12_t2"
        assert len(lines) == 102  # header + s grid 0..5 step 0.05
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert abs(float(first[2]) - 1.0) < 1e-9  # g(0) = 1


class TestCliMuTable:
    def test_table_rows(self, capsys):
        assert main(["mu-table", "--distance", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,m,yield_t1,ebit_t1,yield_t2,ebit_t2"
        assert len(lines) == 10  # header + 3x3 grid

    def test_bad_detector_exits_two(self, capsys):
        assert main(["mu-table", "--eta", "0"]) == 2


class TestCliRateCurve:
    def test_deterministic_output_files(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"scenario": "qnd_coherent", "distance_stop_km": 6.0, "distance_step_km": 3.0}
            )
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["rate-curve", "--config", str(cfg), "-o", str(out1)]) == 0
        assert main(["rate-curve", "--config", str(cfg), "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_fixed_mu_single_distance(self, capsys):
        assert main(["rate-curve", "--distance", "0", "--mu", "0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[1]) == 0.5

    def test_poisson_pairs_at_large_mu(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"scenario": "spdc_heralded", "spdc_pair_statistics": "poisson", "mu_max": 100}
            )
        )
        assert main(["rate-curve", "--config", str(cfg), "--mu", "80", "--distance", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all(math.isfinite(float(v)) for v in lines[1].split(","))

    def test_missing_config_exits_two(self, capsys):
        assert main(["rate-curve", "--config", "/nonexistent/cfg.json"]) == 2

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"scenario": "warp_drive"}')
        assert main(["rate-curve", "--config", str(cfg)]) == 2


class TestCliOptimizeMu:
    def test_json_output(self, capsys):
        assert main(["optimize-mu", "--distance", "0"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["distance_km"] == 0.0
        assert data["total"] > 0
        assert not data["zero_rate"]


class TestCliBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["mu-table", "--distance", "-10"],
            ["mu-table", "--loss", "-1", "--distance", "10"],
            ["mu-table", "--n-max", "-1"],
            ["mu-table", "--n-max", "4"],
            ["optimize-mu", "--distance", "-10"],
            ["optimize-mu", "--distance", "nan"],
            ["rate-curve", "--mu", "-1", "--distance", "10"],
            ["rate-curve", "--mu", "nan", "--distance", "10"],
            ["rate-curve", "--mu", "inf", "--distance", "10"],
            ["rate-curve", "--scenario", "spdc_heralded", "--mu", "nan", "--distance", "10"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_flag_exits_two(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
