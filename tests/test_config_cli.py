"""Configuration round-tripping and the command-line interface."""

import ast
import json
import math
import pathlib
import re

import numpy as np
import pytest

import mdi_sarg04
from mdi_sarg04.cli import COMMANDS, main
from mdi_sarg04.config import MAX_DISTANCE_POINTS, ConfigError, ScenarioConfig
from mdi_sarg04.optics import N_MAX_CAP, N_MAX_DEFAULT
from mdi_sarg04.scenario import optimize_distances, run_sweep
from tests.test_golden import MU_TABLE


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
            # steps at or below the 1e-9 km resolution of the rounded points
            {"distance_stop_km": 1e-8, "distance_step_km": 1e-10},
            {"distance_stop_km": 1e-8, "distance_step_km": 1e-9},
            {"type_selection": "all"},
            {"photon_terms": "everything"},
            # JSON true and false are not numbers, nor null and strings
            {"eta": True},
            {"distance_step_km": True},
            {"mu_max": True},
            {"dark": False},
            {"eta": None},
            {"distance_stop_km": "60"},
            # an empty output path is no path, not standard output
            {"output_path": ""},
            # JSON integers beyond the float range
            {"loss_db_per_km": 10**400},
            {"ec_inefficiency": 10**400},
            {"mu_max": 10**400},
            {"distance_step_km": 10**400},
            {"distance_start_km": -(10**400)},
        ):
            with pytest.raises(ConfigError):
                ScenarioConfig.from_dict(bad)

    def test_replace_checks_too(self):
        with pytest.raises(ConfigError):
            ScenarioConfig()._replace(eta=2.0)
        with pytest.raises(ConfigError):
            ScenarioConfig()._replace(eta="x")
        assert ScenarioConfig()._replace(eta=0.5).eta == 0.5

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json("not json")
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json("[1, 2]")
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json("[" * 100_000)
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json('{"loss_db_per_km": 1' + "0" * 400 + "}")
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json('{"mu_max": 1' + "0" * 5000 + "}")

    def test_readme_schema_lists_every_field(self):
        readme = pathlib.Path(__file__).parents[1].joinpath("README.md").read_text()
        table = readme.split("### Config schema")[1].split("\n#")[0]
        rows = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
        keys = [key for cell in rows for key in re.findall(r"`(\w+)`", cell)]
        assert sorted(keys) == sorted(ScenarioConfig._fields)

    def test_distance_grid(self):
        cfg = ScenarioConfig(distance_start_km=0.0, distance_stop_km=6.0, distance_step_km=2.0)
        assert cfg.distances() == [0.0, 2.0, 4.0, 6.0]
        fine = ScenarioConfig(distance_start_km=0.1, distance_stop_km=0.4, distance_step_km=0.1)
        assert fine.distances() == [0.1, 0.2, 0.3, 0.4]
        top = ScenarioConfig(distance_stop_km=MAX_DISTANCE_POINTS - 1.0, distance_step_km=1.0)
        assert len(top.distances()) == MAX_DISTANCE_POINTS
        # a start finer than the grid's 9 decimals is rounded, down or up
        low = ScenarioConfig(
            distance_start_km=0.1000000001, distance_stop_km=0.3, distance_step_km=0.1
        )
        assert low.distances() == [0.1, 0.2, 0.3]
        high = low._replace(distance_start_km=0.0999999999)
        assert high.distances() == [0.1, 0.2, 0.3]
        # a lone point is the start rounded, even where that is past the stop
        lone = ScenarioConfig(distance_start_km=30.0000000006, distance_stop_km=30.0000000006)
        assert lone.distances() == [30.000000001]

    @pytest.mark.parametrize(
        "grid, message",
        [
            # the 1e-9 km slack lets a fourth point round to 0.3, past the stop
            ((0.0, 0.3 - 5e-10, 0.1), "distance grid point 0.3 km past the stop"),
            # 500 points below the float spacing at 1e8 km, of only 68 distances
            ((1e8, 1e8 + 1e-6, 2e-9), "distance step 2e-09 km repeats grid points"),
        ],
        ids=["past-the-stop", "repeated-points"],
    )
    def test_grid_off_its_rounding_rejected(self, grid, message, tmp_path, capsys):
        start, stop, step = grid
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig(distance_start_km=start, distance_stop_km=stop, distance_step_km=step)
        cfg = tmp_path / "cfg.json"
        keys = ("distance_start_km", "distance_stop_km", "distance_step_km")
        cfg.write_text(json.dumps(dict(zip(keys, grid))))
        assert main(["rate-curve", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


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

    def test_writes_one_file(self, tmp_path, capsys):
        # -o replaces the config's output_path; without -o that path is written
        cfg, configured, out = (tmp_path / n for n in ("cfg.json", "cfg.csv", "o.csv"))
        cfg.write_text(json.dumps({"distance_stop_km": 0.0, "output_path": str(configured)}))
        assert main(["rate-curve", "--config", str(cfg), "-o", str(out)]) == 0
        assert out.exists() and not configured.exists()
        assert main(["rate-curve", "--config", str(cfg)]) == 0
        assert configured.read_bytes() == out.read_bytes()
        assert capsys.readouterr().out == ""

    def test_one_writer_for_every_route(self, tmp_path, capsys):
        # `-o`, the config's output_path and run_sweep all write the same bytes
        paths = {name: tmp_path / f"{name}.csv" for name in ("flag", "config", "sweep")}
        settings = {"distance_stop_km": 6.0, "distance_step_km": 3.0}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**settings, "output_path": str(paths["config"])}))
        assert main(["rate-curve", "--config", str(cfg)]) == 0
        cfg.write_text(json.dumps(settings))
        assert main(["rate-curve", "--config", str(cfg), "-o", str(paths["flag"])]) == 0
        run_sweep(ScenarioConfig(**settings, output_path=str(paths["sweep"])))
        assert capsys.readouterr().out == ""
        want = paths["sweep"].read_bytes()
        assert want.startswith(b"distance_km,mu_opt,") and want.count(b"\n") == 4
        assert paths["flag"].read_bytes() == paths["config"].read_bytes() == want

    def test_fixed_mu_single_distance(self, capsys):
        assert main(["rate-curve", "--distance", "0", "--mu", "0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[1]) == 0.5

    @staticmethod
    def _large_mu_rows(tmp_path, capsys, statistics):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"scenario": "spdc_heralded", "spdc_pair_statistics": statistics, "mu_max": 100}
            )
        )
        for mu in ("20", "80"):
            assert main(["rate-curve", "--config", str(cfg), "--mu", mu, "--distance", "0"]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 2
            assert all(math.isfinite(float(v)) for v in lines[1].split(",")), lines[1]

    def test_poisson_pairs_at_large_mu(self, tmp_path, capsys):
        self._large_mu_rows(tmp_path, capsys, "poisson")

    def test_thermal_pairs_at_large_mu(self, tmp_path, capsys):
        # (1+mu)^(n+1) once overflowed into NaN rows from mu of about 12
        self._large_mu_rows(tmp_path, capsys, "thermal")

    def test_zero_pump_at_deep_cutoff(self, tmp_path, capsys):
        # Poisson terms past n = 170 at mu = 0 once took the log of 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"scenario": "spdc_heralded", "spdc_pair_statistics": "poisson"}
            )
        )
        assert main(["rate-curve", "--config", str(cfg), "--mu", "0", "--distance", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all(math.isfinite(float(v)) for v in lines[1].split(","))

    def test_nothing_heralds_at_zero_pump(self, tmp_path, capsys):
        # with no dark counts and no pump nothing heralds: the row is all
        # zeros, not a division by the zero heralding probability
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "spdc_heralded", "dark": 0}))
        assert main(["rate-curve", "--config", str(cfg), "--mu", "0", "--distance", "10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ["10,0,0,0,0,0,0,0,0"]

    def test_missing_config_exits_two(self, capsys):
        assert main(["rate-curve", "--config", "/nonexistent/cfg.json"]) == 2

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"scenario": "warp_drive"}')
        assert main(["rate-curve", "--config", str(cfg)]) == 2

    def test_empty_output_path_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"output_path": "", "distance_stop_km": 0.0}')
        assert main(["rate-curve", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: output path must be a non-empty string or null\n"

    def test_unknown_config_keys_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_cutoff": 6}')
        assert main(["rate-curve", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: unknown config keys: ['n_cutoff']\n"


class TestCliOptimizeMu:
    def test_json_output(self, capsys):
        assert main(["optimize-mu", "--distance", "0"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["distance_km"] == 0.0
        assert data["total"] > 0
        assert not data["zero_rate"]

    @pytest.mark.parametrize(
        "distance, point",
        [("30.0000000001", 30.0), ("30.0000000006", 30.000000001), ("1e-10", 0.0)],
    )
    def test_distance_finer_than_the_grid_is_rounded(self, distance, point, capsys):
        # the distance is rounded to the grid's 9 decimals, not rejected as off its grid
        assert main(["optimize-mu", "--distance", distance]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["distance_km"] == point
        assert main(["rate-curve", "--distance", distance]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert float(row.split(",")[0]) == point

    def test_negative_zero_distance_reported_as_rate_curve_reports_it(self, capsys):
        assert main(["optimize-mu", "--distance", "-0.0"]) == 0
        negative = capsys.readouterr().out
        assert '"distance_km": 0.0,' in negative
        assert main(["optimize-mu", "--distance", "0"]) == 0
        assert capsys.readouterr().out == negative
        assert main(["rate-curve", "--distance", "-0.0"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("0,")

    @pytest.mark.parametrize("scenario", ["qnd_coherent", "spdc_heralded", "bb84_baseline"])
    def test_json_is_the_sweep_row(self, scenario, capsys):
        # no state crosses distances: a sweep's row is optimize-mu's, to the byte
        config = ScenarioConfig(scenario=scenario, distance_stop_km=60.0, distance_step_km=15.0)
        for row in run_sweep(config)[1:]:
            argv = ["optimize-mu", "--scenario", scenario, "--distance", str(row.distance_km)]
            assert main(argv) == 0
            fields = ("distance_km", "mu_opt", "total", "total_per_pulse", "G1", "G2", "zero_rate")
            want = json.dumps({f: getattr(row, f) for f in fields}, indent=2, sort_keys=True)
            assert capsys.readouterr().out == want + "\n", row.distance_km


class TestRatePathWithoutEigensolver:
    """The rate path, the bound and relay tables and the proof checks run
    without any `np.linalg` routine: the first LAPACK call alone raised a
    `verify` process's peak memory by 732 KB (its first `eigvalsh`), and
    the first BLAS calls cost several hundred KB, in processes that need
    none of it."""

    @pytest.fixture(autouse=True)
    def no_linalg(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg call")

        for name in np.linalg.__all__:
            if name != "LinAlgError":
                monkeypatch.setattr(np.linalg, name, refuse)

    @pytest.mark.parametrize("scenario", ["qnd_coherent", "spdc_heralded"])
    def test_optimize_distances(self, scenario):
        points = optimize_distances(ScenarioConfig(scenario=scenario), [0.0, 20.0, 45.0])
        assert all(p.total > 0 for p in points)

    def test_bounds_and_mu_table(self, capsys):
        assert main(["bounds"]) == 0
        assert main(["mu-table", "--n-max", "3", "--protocol", "sarg04"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 102 + 17

    def test_verify_suite(self):
        from mdi_sarg04.verify import all_passed, verify_suite

        assert all_passed(verify_suite())

    def test_bound_certificate(self):
        from mdi_sarg04.povm import verify_bound_certificate

        assert verify_bound_certificate((1, 1), 2, 3.0, 0.0) >= -1e-10
        assert verify_bound_certificate((1, 1), 2, 2.5, 0.0) < -1e-6


RATE_PATH_MODULES = ("optics", "sources", "rates", "bounds", "scenario")
NUMPY_FREE_MODULES = ("config", "bounds", "optics", "sources", "rates", "scenario", "cli")
PROOF_MODULES = ("linalg", "povm", "verify")
DENSE_LINEAR_ALGEBRA = frozenset(
    ("dot", "vdot", "inner", "matmul", "tensordot", "matrix_power", "linalg")
)


def _module_tree(module: str) -> ast.Module:
    return ast.parse(pathlib.Path(mdi_sarg04.__file__).with_name(f"{module}.py").read_text())


@pytest.mark.parametrize("module", RATE_PATH_MODULES + PROOF_MODULES)
def test_rate_path_source_calls_no_blas(module):
    """The package's modules use no matrix product and no `np.linalg`, whose
    BLAS and LAPACK calls would page in the libraries; their contractions
    are unoptimized `einsum`s, which never dispatch to BLAS."""
    found = []
    for node in ast.walk(_module_tree(module)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in DENSE_LINEAR_ALGEBRA:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.keyword) and node.arg == "optimize":
            found.append(f"line {node.value.lineno}: optimized einsum")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = {a.name for a in node.names}
            if node.module.startswith("numpy.linalg") or names & DENSE_LINEAR_ALGEBRA:
                found.append(f"line {node.lineno}: from {node.module} import")
    assert not found, found


@pytest.mark.parametrize("module", NUMPY_FREE_MODULES + PROOF_MODULES)
def test_rate_path_imports_no_numpy(module):
    """The rate path, the CLI and the security-proof modules are plain
    Python: no import of numpy, at module level or inside a function, so
    that no process loads it."""
    found = []
    for node in ast.walk(_module_tree(module)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found += [
            f"line {node.lineno}: {name}"
            for name in names
            if name == "numpy" or name.startswith("numpy.")
        ]
    assert not found, found


@pytest.mark.parametrize("module", RATE_PATH_MODULES + PROOF_MODULES)
def test_source_makes_no_complex_array(module):
    """Every state and operator is real in the x basis: no module names a
    complex dtype or writes an imaginary literal."""
    found = [
        f"line {node.lineno}"
        for node in ast.walk(_module_tree(module))
        if (isinstance(node, ast.Name) and node.id == "complex")
        or (isinstance(node, ast.Attribute) and node.attr.startswith(("complex", "cdouble")))
        or (isinstance(node, ast.Constant) and isinstance(node.value, complex))
    ]
    assert not found, found


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
            ["rate-curve", "--mu", "-1"],
            ["rate-curve", "--mu", "nan"],
            # the working directory exists and is no file
            ["rate-curve", "--config", "."],
            ["bounds", "-o", "."],
            ["mu-table", "-o", "."],
            # parse errors: one line too, and a return rather than SystemExit
            [],
            ["warp-drive"],
            ["mu-table", "--bogus", "1"],
            ["mu-table", "--eta"],
            ["mu-table", "--d", "10"],  # --dark or --distance
            ["mu-table", "--n-max", "x"],
            ["mu-table", "--protocol", "qkd"],
            ["optimize-mu"],
            ["optimize-mu", "--distance", "10", "stray"],
            # an empty output path is rejected, not taken as standard output
            ["bounds", "--output="],
            ["bounds", "-o", ""],
            ["mu-table", "-o="],
            ["rate-curve", "--distance", "0", "--output="],
            ["rate-curve", "--config="],
            # an empty scenario is an unknown one, not the configured one
            ["rate-curve", "--scenario", ""],
            ["optimize-mu", "--scenario=", "--distance", "0"],
        ],
        ids=lambda argv: " ".join(argv) or "no-arguments",
    )
    def test_out_of_range_flag_exits_two(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [["rate-curve"], ["optimize-mu", "--distance", "0"]])
    def test_step_below_resolution_exits_two(self, command, tmp_path, capsys):
        # a 1e-10 km step to 1e-8 km once printed 111 rows of 12 distances
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"distance_stop_km": 1e-8, "distance_step_km": 1e-10}')
        assert main([*command, "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: distance step 1e-10 km not above the 1e-9 km resolution\n"


class TestCliSpellings:
    """Every accepted spelling of a call gives the same bytes: defaults
    left out or written out, --flag=value, unique prefixes, a repeated flag
    (the last wins) and -o with its value attached."""

    def test_mu_table_defaults_come_from_the_config(self, capsys):
        # the detector and fiber of mu-table are the scenario config's defaults
        defaults = ScenarioConfig._field_defaults
        assert main(["mu-table", "-h"]) == 0
        flag_lines = {
            line.split(":")[0].strip(): line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  --")
        }
        for flag, field in (("--eta", "eta"), ("--dark", "dark"), ("--loss", "loss_db_per_km")):
            assert flag_lines[f"{flag} FLOAT"].endswith(f" (default {defaults[field]})"), flag
        # the photon-number cutoff's default and range are the relay's
        n_max_help = f": photon-number cutoff, 0 to {N_MAX_CAP} (default {N_MAX_DEFAULT})"
        assert flag_lines["--n-max INT"].endswith(n_max_help)
        assert main(["mu-table"]) == 0
        implicit = capsys.readouterr().out
        explicit = [f"--eta={defaults['eta']}", f"--dark={defaults['dark']}"]
        assert main(["mu-table", *explicit, f"--loss={defaults['loss_db_per_km']}"]) == 0
        assert capsys.readouterr().out == implicit

    def test_defaults_spelled_out(self, capsys):
        assert main(["mu-table"]) == 0
        implicit = capsys.readouterr().out
        defaults = ["--eta", "0.045", "--dark", "8.5e-7", "--loss", "0.21", "--distance", "0"]
        assert main(["mu-table", *defaults, "--protocol", "sarg04", "--n-max", "2"]) == 0
        assert capsys.readouterr().out == implicit

    @pytest.mark.parametrize(
        "argv",
        [
            ["--distance=20", "--n-max", "3"],
            ["--dist", "20", "--n", "3"],
            ["--distance", "5", "--n-max=3", "--distance", "20"],
        ],
        ids=" ".join,
    )
    @pytest.mark.parametrize("protocol", sorted(MU_TABLE))
    def test_mu_table_matches_golden(self, argv, protocol, capsys):
        assert main(["mu-table", *argv, f"--prot={protocol}"]) == 0
        assert capsys.readouterr().out == "\n".join(MU_TABLE[protocol]) + "\n"

    @pytest.mark.parametrize("output", [["-o", "{}"], ["-o{}"], ["--out={}"]], ids=" ".join)
    def test_output_flag(self, output, tmp_path, capsys):
        path = tmp_path / "bounds.csv"
        assert main(["bounds", *(arg.format(path) for arg in output)]) == 0
        assert main(["bounds"]) == 0
        assert path.read_text() == capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv", [["-h"], ["--help"]] + [[command, "-h"] for command in COMMANDS], ids=" ".join
    )
    def test_help_lists_every_flag(self, argv, capsys):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        listed = COMMANDS if argv[0].startswith("-") else argv[:1]
        for command in listed:
            assert f"{command}: {COMMANDS[command][1]}" in out
            for flag in COMMANDS[command][2]:
                assert f" {flag} " in out, flag
