"""Property tests over random valid and invalid scenario configs."""

import contextlib
import io
import json
import math
import os
import string
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdi_sarg04.cli import main
from mdi_sarg04.config import PHOTON_TERMS, SCENARIOS, TYPE_SELECTIONS, ConfigError, ScenarioConfig
from mdi_sarg04.optics import DetectorParams
from mdi_sarg04.scenario import _rates, mu_grid, optimize_mu, points_at
from mdi_sarg04.sources import spdc_heralded

DEFAULT = ScenarioConfig()

# the defaults with three sampled fields (`builds(ScenarioConfig, ...)` would
# draw every field of a NamedTuple, defaulted or not)
valid_configs = st.builds(
    DEFAULT._replace,
    scenario=st.sampled_from(SCENARIOS),
    photon_terms=st.sampled_from(PHOTON_TERMS),
    type_selection=st.sampled_from(TYPE_SELECTIONS),
)


@settings(max_examples=40, deadline=None)
@given(
    valid_configs,
    st.floats(0.0, 100.0),
    st.floats(0.0, 100.0),
    st.floats(DEFAULT.mu_min, DEFAULT.mu_max),
)
def test_point_is_physical_and_falls_with_distance(config, d1, d2, mu):
    near, far = points_at(config, sorted((d1, d2)), mu)
    for p in (near, far):
        assert all(math.isfinite(v) for v in tuple(p))
        assert math.isfinite(p.total_per_pulse)
        assert p.total >= 0.0
        assert 0.0 <= p.e_tot_1 <= 1.0
        assert 0.0 <= p.e_tot_2 <= 1.0
    assert far.total_per_pulse <= near.total_per_pulse


@settings(max_examples=15, deadline=None)
@given(valid_configs, st.floats(0.0, 100.0))
def test_grid_rows_match_points_and_bound_the_optimum(config, d):
    # each grid row as optimize_distances evaluates it, per pump pulse,
    # against points_at, per heralded pulse pair
    emission, rates_at = _rates(config)
    rate, _ = rates_at(d)
    det = DetectorParams(eta=config.eta, dark=config.dark)
    rates = []
    for mu in mu_grid(config):
        r, _, b = rate(emission(mu))
        rates.append(r)
        p = points_at(config, [d], mu)[0]
        herald = spdc_heralded(mu, det)[0] ** 2 if config.scenario == "spdc_heralded" else 1.0
        row = [r, b.e_tot_1, b.e_tot_2, herald, b.G1, b.G2, b.total]
        per_pump = (herald * g for g in (p.G1, p.G2, p.total))
        want = [p.total_per_pulse, p.e_tot_1, p.e_tot_2, p.p_herald, *per_pump]
        assert row == pytest.approx(want, rel=1e-12, abs=0.0), mu
    assert optimize_mu(config, d).total_per_pulse >= max(rates)


@settings(max_examples=40, deadline=None)
@given(valid_configs, st.sampled_from(("thermal", "poisson")), st.floats(0.0, 400.0))
def test_key_bound_never_below_the_rate(config, pair_statistics, d):
    # optimize_distances leaves out every grid point whose bound is below
    # the best rate found, so a bound under its own rate would change a row
    config = config._replace(spdc_pair_statistics=pair_statistics)
    emission, rates_at = _rates(config)
    rate, bound = rates_at(d)
    for mu in mu_grid(config):
        em = emission(mu)
        assert bound([em[2]]) >= [rate(em)[0]], mu


# a distance grid from start to stop, a step apart, which the config may reject
distance_grids = st.tuples(
    st.floats(0.0, 1e9) | st.sampled_from([0.0, 0.1, 1e8]),
    st.floats(0.0, 1e3) | st.floats(0.0, 1e-5),
    st.floats(1e-9, 1e3, exclude_min=True) | st.floats(1e-9, 1e-6, exclude_min=True),
)


@settings(max_examples=200, deadline=None)
@given(valid_configs, distance_grids)
@example(DEFAULT, (0.0, 0.3 - 5e-10, 0.1))
@example(DEFAULT, (1e8, 1e-6, 2e-9))
def test_distances_in_range_and_increasing(config, grid):
    # every valid grid's rounded points start at the rounded start, rise
    # strictly, and are a step apart to within their rounding; a grid of
    # two or more has none past the stop, a lone point is the rounded start
    # whatever the stop
    start, length, step = grid
    try:
        config = config._replace(
            distance_start_km=start, distance_stop_km=start + length, distance_step_km=step
        )
    except ConfigError:
        return
    points = config.distances()
    assert points[0] == round(config.distance_start_km, 9)
    assert len(points) == 1 or points[-1] <= config.distance_stop_km
    assert all(a < b for a, b in zip(points, points[1:]))
    slack = 1e-9 + 4 * math.ulp(config.distance_stop_km)
    assert all(abs(b - a - step) <= slack for a, b in zip(points, points[1:]))


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# JSON true, false and null in a numeric key
NOT_A_NUMBER = st.sampled_from([True, False, None])
NEGATIVE = st.floats(max_value=-math.ulp(0.0))


def _bad_text(valid):
    return st.text(string.printable, max_size=12).filter(lambda s: s not in valid)


INVALID_FIELDS = {
    "scenario": _bad_text(SCENARIOS),
    "type_selection": _bad_text(TYPE_SELECTIONS),
    "photon_terms": _bad_text(PHOTON_TERMS),
    "spdc_pair_statistics": _bad_text(("thermal", "poisson")),
    "eta": (
        st.floats(max_value=0.0)
        | st.floats(min_value=1.0, exclude_min=True)
        | NON_FINITE
        | NOT_A_NUMBER
    ),
    "dark": NEGATIVE | st.floats(min_value=1.0) | NON_FINITE | NOT_A_NUMBER,
    "loss_db_per_km": NEGATIVE | NON_FINITE | NOT_A_NUMBER,
    "ec_inefficiency": st.floats(max_value=1.0, exclude_max=True) | NON_FINITE | NOT_A_NUMBER,
    "distance_start_km": NEGATIVE | NON_FINITE | NOT_A_NUMBER,
    "distance_stop_km": NEGATIVE | NON_FINITE | NOT_A_NUMBER,
    "distance_step_km": st.floats(max_value=0.0) | NON_FINITE | NOT_A_NUMBER,
    "mu_min": st.floats(max_value=0.0) | NON_FINITE | NOT_A_NUMBER,
    "mu_max": st.floats(max_value=DEFAULT.mu_min) | NON_FINITE | NOT_A_NUMBER,
    "output_path": st.integers() | st.lists(st.text(string.printable, max_size=3), max_size=2),
}

one_invalid_field = st.sampled_from(sorted(INVALID_FIELDS)).flatmap(
    lambda key: st.tuples(st.just(key), INVALID_FIELDS[key])
)


@settings(max_examples=60, deadline=None)
@given(one_invalid_field)
@example(("eta", True))
@example(("distance_step_km", True))
@example(("mu_max", None))
def test_invalid_config_exits_two(field_value):
    key, value = field_value
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump({key: value}, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["optimize-mu", "--config", path, "--distance", "1"])
    finally:
        os.unlink(path)
    assert code == 2, f"{key}={value!r}"
    assert err.getvalue().startswith("error: ")
