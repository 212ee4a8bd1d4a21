"""Property tests over random valid and invalid scenario configs."""

import contextlib
import dataclasses
import io
import json
import math
import os
import string
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdi_sarg04.cli import main
from mdi_sarg04.config import PHOTON_TERMS, SCENARIOS, TYPE_SELECTIONS, ScenarioConfig
from mdi_sarg04.scenario import mu_grid, optimize_mu, point_at, rate_at

DEFAULT = ScenarioConfig()

valid_configs = st.builds(
    ScenarioConfig,
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
    near, far = (point_at(config, d, mu) for d in sorted((d1, d2)))
    for p in (near, far):
        assert all(math.isfinite(v) for v in dataclasses.astuple(p))
        assert math.isfinite(p.total_per_pulse)
        assert p.total >= 0.0
        assert 0.0 <= p.e_tot_1 <= 1.0
        assert 0.0 <= p.e_tot_2 <= 1.0
    assert far.total_per_pulse <= near.total_per_pulse


@settings(max_examples=15, deadline=None)
@given(valid_configs, st.floats(0.0, 100.0))
def test_grid_rows_match_points_and_bound_the_optimum(config, d):
    grid = mu_grid(config)
    rates, gains, breakdown = rate_at(config, d)(np.array(grid))
    for k, mu in enumerate(grid):
        p = point_at(config, d, mu)
        row = [rates[k], gains.type1.e_tot[k], gains.type2.e_tot[k], gains.herald_probability[k]]
        want = [p.total_per_pulse, p.e_tot_1, p.e_tot_2, p.p_herald]
        if breakdown is not None:
            row += [breakdown.G1[k], breakdown.G2[k], breakdown.total[k]]
            want += [p.G1, p.G2, p.total]
        assert row == pytest.approx(want, rel=1e-12, abs=0.0), mu
    assert optimize_mu(config, d).total_per_pulse >= max(rates)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NEGATIVE = st.floats(max_value=-math.ulp(0.0))


def _bad_text(valid):
    return st.text(string.printable, max_size=12).filter(lambda s: s not in valid)


INVALID_FIELDS = {
    "scenario": _bad_text(SCENARIOS),
    "type_selection": _bad_text(TYPE_SELECTIONS),
    "photon_terms": _bad_text(PHOTON_TERMS),
    "spdc_pair_statistics": _bad_text(("thermal", "poisson")),
    "eta": st.floats(max_value=0.0) | st.floats(min_value=1.0, exclude_min=True) | NON_FINITE,
    "dark": NEGATIVE | st.floats(min_value=1.0) | NON_FINITE,
    "loss_db_per_km": NEGATIVE | NON_FINITE,
    "ec_inefficiency": st.floats(max_value=1.0, exclude_max=True) | NON_FINITE,
    "distance_start_km": NEGATIVE | NON_FINITE,
    "distance_stop_km": NEGATIVE | NON_FINITE,
    "distance_step_km": st.floats(max_value=0.0) | NON_FINITE,
    "mu_min": st.floats(max_value=0.0) | NON_FINITE,
    "mu_max": st.floats(max_value=DEFAULT.mu_min) | NON_FINITE,
    "n_cutoff": st.integers(max_value=1) | st.floats(2.5, 10.0),
    "output_path": st.integers() | st.lists(st.text(string.printable, max_size=3), max_size=2),
}

one_invalid_field = st.sampled_from(sorted(INVALID_FIELDS)).flatmap(
    lambda key: st.tuples(st.just(key), INVALID_FIELDS[key])
)


@settings(max_examples=60, deadline=None)
@given(one_invalid_field)
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
