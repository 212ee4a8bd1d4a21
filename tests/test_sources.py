"""Source photon-number statistics, loss, and relay postselection."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdi_sarg04.config import ScenarioConfig
from mdi_sarg04.optics import (
    ChannelParams,
    DetectorParams,
    arrival_table,
    relay_yields,
    thinning_matrix,
)
from mdi_sarg04.scenario import mu_grid
from mdi_sarg04.sources import poisson_probs, poisson_source, spdc_heralded

HERALD = DetectorParams(eta=0.045, dark=8.5e-7)
MEAN = st.integers(0, 100) | st.floats(0.0, 100.0)
STATISTICS = st.sampled_from(["thermal", "poisson"])
EFFICIENCY = st.floats(1e-3, 1.0)
DARK = st.floats(0.0, 0.5)


def _poisson_tail(mu: float, n_max: int) -> float:
    """sum_{n > n_max} exp(-mu) mu^n / n!, summed exactly in log space."""
    if mu == 0:
        return 0.0
    terms = range(n_max + 1, n_max + 400)
    return math.fsum(math.exp(n * math.log(mu) - mu - math.lgamma(n + 1)) for n in terms)


def _log_pair(mu: float, n: int, statistics: str) -> float:
    """log of the probability of n pairs at mean pair number mu > 0."""
    if statistics == "thermal":
        return n * math.log(mu) - (n + 1) * math.log1p(mu)
    return n * math.log(mu) - mu - math.lgamma(n + 1)


def _click(n: int, eta: float, dark: float) -> float:
    """Herald click probability given n pairs, d + (1-d)(1 - (1-eta)^n),
    with the inner difference taken without cancellation."""
    miss = -math.expm1(n * math.log1p(-eta)) if eta < 1 else float(n > 0)
    return dark + (1 - dark) * miss


def _herald_oracle(mu: float, eta: float, dark: float, statistics: str) -> float:
    """Herald probability sum_n pairs_n click_n as a math.fsum of log-space
    terms, taken until the pair tail is below 1e-17 of the sum.  The ratio
    of successive pair terms does not grow with n, so once it is below 1
    the tail past a term is at most the next term over (1 - ratio)."""
    if mu == 0:
        return dark
    terms, n = [], 0
    while True:
        terms.append(math.exp(_log_pair(mu, n, statistics)) * _click(n, eta, dark))
        n += 1
        ratio = math.exp(_log_pair(mu, n + 1, statistics) - _log_pair(mu, n, statistics))
        tail = math.exp(_log_pair(mu, n, statistics)) / (1 - ratio) if ratio < 1 else math.inf
        if tail <= 1e-17 * math.fsum(terms):
            return math.fsum(terms)


def _conditional_oracle(mu: float, eta: float, dark: float, statistics: str, n_max: int):
    """Oracle herald probability and conditional p_n = pairs_n click_n /
    p_herald for n <= n_max, at mu > 0."""
    herald = _herald_oracle(mu, eta, dark, statistics)
    pairs = [math.exp(_log_pair(mu, n, statistics)) for n in range(n_max + 1)]
    return herald, [p * _click(n, eta, dark) / herald for n, p in enumerate(pairs)]


def _close(x: float, want: float, rel: float = 1e-12) -> bool:
    """x equals want to `rel` relative; below the smallest normal float,
    where subnormals carry no relative accuracy, to that absolute."""
    return math.isclose(x, want, rel_tol=rel, abs_tol=sys.float_info.min)


def _heralded_tail(mu: float, eta: float, dark: float, n_max: int, statistics: str) -> float:
    """sum_{n > n_max} pairs_n click_n: for thermal pairs in closed form,
    (mu/(1+mu))^(N+1) - (1-d)(mu(1-eta)/(1+mu))^(N+1) / (1 + mu eta); for
    Poisson pairs from the Poisson tails at mu and mu(1-eta)."""
    if statistics == "thermal":
        r = mu / (1 + mu)
        return r ** (n_max + 1) - (1 - dark) * (r * (1 - eta)) ** (n_max + 1) / (1 + mu * eta)
    lost = math.exp(-mu * eta) * _poisson_tail(mu * (1 - eta), n_max)
    return _poisson_tail(mu, n_max) - (1 - dark) * lost


def _assert_heralded_mass(p_herald, cond, mu, eta, dark, statistics):
    # the conditional distribution up to n_max plus its tail past n_max is 1
    tail = _heralded_tail(float(mu), eta, dark, cond.size - 1, statistics)
    assert abs(cond.sum() + (tail / p_herald if p_herald else 0.0) - 1.0) <= 1e-12


class TestEmissionProbabilities:
    """Mass and sign of every emission distribution a rate is built from."""

    @settings(max_examples=60, deadline=None)
    @given(MEAN, st.integers(0, 200))
    def test_poisson_mass_and_sign(self, mu, n_max):
        p = poisson_probs([mu], n_max)[0]
        assert np.isfinite(p).all() and p.min() >= 0
        assert abs(p.sum() + _poisson_tail(float(mu), n_max) - 1.0) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(MEAN, st.integers(0, 384), EFFICIENCY, DARK)
    def test_thermal_mass_and_sign(self, mu, n_max, eta, dark):
        herald = DetectorParams(eta, dark)
        p_herald, cond = (v[0] for v in spdc_heralded([mu], herald, n_max))
        assert np.isfinite(cond).all() and cond.min() >= 0
        _assert_heralded_mass(p_herald, cond, mu, eta, dark, "thermal")

    @settings(max_examples=60, deadline=None)
    @given(MEAN, STATISTICS, EFFICIENCY, DARK)
    def test_heralded_mass_and_sign(self, mu, statistics, eta, dark):
        # p_herald sums over every pair number, so the conditional
        # distribution carries the tail past n_max
        herald = DetectorParams(eta, dark)
        p_herald, cond = (v[0] for v in spdc_heralded([mu], herald, pair_statistics=statistics))
        assert 0.0 <= p_herald <= 1.0
        assert np.isfinite(cond).all() and cond.min() >= 0
        oracle = _herald_oracle(float(mu), eta, dark, statistics)
        assert _close(p_herald, oracle)
        _assert_heralded_mass(p_herald, cond, mu, eta, dark, statistics)


class TestPoissonSource:
    def test_vacuum_at_zero(self):
        assert poisson_source(0.0)[0] == 1.0

    def test_term_ratio(self):
        p = poisson_source(0.1)
        assert abs(p[1] / p[2] - 20.0) < 1e-9

    def test_mass_accounting(self):
        p = poisson_probs([1.5], 40)[0]
        assert abs(p.sum() + _poisson_tail(1.5, 40) - 1.0) <= 1e-12

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            poisson_source(-0.1)

    @pytest.mark.parametrize("mu", [60.0, 80.0, 150.0])
    def test_large_mu_past_float_range_of_terms(self, mu):
        # n >= 171, where mu^n and n! overflow a float
        p = poisson_probs([mu], 400)[0]
        assert np.isfinite(p).all()
        assert abs(p.sum() - 1.0) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 2.0))
    def test_normalized(self, mu):
        p = poisson_probs([mu], 40)[0]
        assert abs(p.sum() - 1.0) <= 1e-12
        assert p.min() >= 0
        np.testing.assert_array_equal(poisson_source(mu), p[:3])

    def test_matches_log_space_oracle(self):
        # mu in [0, 150] and n <= 200, through the region where mu^n or n!
        # overflows a float (n >= 171 at mu above about 60).  The oracle sums
        # the exponent x = n log mu - log n! - mu exactly; any float x still
        # carries a rounding of up to |x| 2^-53, which exp turns into that
        # relative error, so the bound is 1e-15 relative to the log-space value
        mus = np.concatenate(
            [[1e-300, 1e-12], np.geomspace(1e-6, 150.0, 41), np.linspace(0.0, 150.0, 151)]
        )
        p = poisson_probs(mus, 200)
        for mu, row in zip(mus.tolist(), p.tolist()):
            if mu == 0.0:
                assert row == [1.0] + [0.0] * 200
                continue
            for n, value in enumerate(row):
                x = math.fsum([n * math.log(mu), -math.lgamma(n + 1), -mu])
                assert _close(value, math.exp(x), 1e-15 * max(1.0, abs(x))), (mu, n)


class TestSpdcHeralded:
    def test_thermal_statistics(self):
        p_herald, cond = (v[0] for v in spdc_heralded([0.3], HERALD, 5))
        for n in range(6):
            pairs = cond[n] * p_herald / _click(n, HERALD.eta, HERALD.dark)
            assert abs(pairs - 0.3**n / 1.3 ** (n + 1)) < 1e-15

    def test_no_pump_no_dark_is_degenerate(self):
        p_herald, cond = spdc_heralded([0.0], DetectorParams(eta=0.5, dark=0.0))
        assert p_herald[0] == 0.0
        assert cond[0, 0] == 1.0 and cond.sum() == 1.0

    def test_no_pump_dark_heralds_vacuum(self):
        p_herald, cond = spdc_heralded([0.0], DetectorParams(eta=0.5, dark=1e-6))
        assert p_herald[0] > 0.0
        assert abs(cond[0, 0] - 1.0) < 1e-12

    def test_perfect_herald_removes_vacuum(self):
        _, cond = spdc_heralded([0.1], DetectorParams(eta=1.0, dark=0.0))
        assert cond[0, 0] == 0.0

    def test_single_photon_fraction_grows_as_pump_drops(self):
        _, cond = spdc_heralded([0.5, 0.2, 0.05, 0.01], DetectorParams(eta=0.5, dark=0.0))
        assert (np.diff(cond[:, 1]) > 0).all()

    def test_poisson_switch(self):
        p_herald, cond = spdc_heralded([0.1], HERALD, pair_statistics="poisson")
        _assert_heralded_mass(p_herald[0], cond[0], 0.1, HERALD.eta, HERALD.dark, "poisson")
        with pytest.raises(ValueError):
            spdc_heralded([0.1], HERALD, pair_statistics="binomial")

    @pytest.mark.parametrize("mu", [-0.1, math.nan, math.inf])
    def test_bad_mean_rejected(self, mu):
        for statistics in ("thermal", "poisson"):
            with pytest.raises(ValueError):
                spdc_heralded([0.1, mu], HERALD, pair_statistics=statistics)

    def test_herald_probability_formula(self):
        mu = 0.2
        p_herald, cond = spdc_heralded([mu], HERALD, 8)
        oracle, want = _conditional_oracle(mu, HERALD.eta, HERALD.dark, "thermal", 8)
        assert _close(p_herald[0], oracle)
        np.testing.assert_allclose(cond[0], want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "statistics, mu", [("thermal", 40.0), ("thermal", 80.0), ("poisson", 80.0)]
    )
    def test_herald_probability_at_large_mu(self, statistics, mu):
        # a pair distribution cut at 384 once dropped tail mass that biased
        # the thermal p_herald by -1.2e-4 at mu = 40 and -1.07 % at mu = 80
        d, eta = HERALD.dark, HERALD.eta
        if statistics == "thermal":
            closed = (d + mu * eta) / (1 + mu * eta)
        else:
            closed = d - (1 - d) * math.expm1(-mu * eta)
        p_herald = spdc_heralded([mu], HERALD, pair_statistics=statistics)[0][0]
        assert _close(p_herald, closed, 1e-13)
        oracle = _herald_oracle(mu, eta, d, statistics)
        assert _close(p_herald, oracle)

    @settings(max_examples=20, deadline=None)
    @given(STATISTICS, EFFICIENCY, DARK)
    def test_default_mu_grid_against_oracle(self, statistics, eta, dark):
        grid = mu_grid(ScenarioConfig())
        p_herald, cond = spdc_heralded(grid, DetectorParams(eta, dark), 2, statistics)
        for mu, h, row in zip(grid, p_herald, cond):
            oracle, want = _conditional_oracle(mu, eta, dark, statistics, 2)
            assert _close(h, oracle)
            np.testing.assert_allclose(row, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("statistics", ["thermal", "poisson"])
    def test_integer_pump_equals_float_pump(self, statistics):
        # an int mean pair number once overflowed int64 in mu**n
        p_int, cond_int = spdc_heralded([2], HERALD, pair_statistics=statistics)
        p_float, cond_float = spdc_heralded([2.0], HERALD, pair_statistics=statistics)
        np.testing.assert_array_equal(p_int, p_float)
        np.testing.assert_array_equal(cond_int, cond_float)


class TestLossPropagation:
    """Loss is binomial thinning p @ B(t) of the emission probabilities."""

    def test_identity_at_unit_transmittance(self):
        p = poisson_source(0.3)
        np.testing.assert_allclose(p @ thinning_matrix(1.0, 2), p, atol=1e-15)

    def test_single_photon_half_loss(self):
        np.testing.assert_allclose(np.array([0.0, 1.0]) @ thinning_matrix(0.5, 1), [0.5, 0.5])

    def test_poisson_thins_to_poisson(self):
        # deep cutoff so truncated-tail mass stays far below the tolerance
        thinned = poisson_probs([0.4], 40)[0] @ thinning_matrix(0.3, 40)
        ref = poisson_probs([0.4 * 0.3], 40)[0]
        np.testing.assert_allclose(thinned[:10], ref[:10], atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.integers(0, 12))
    def test_thinning_composes(self, t1, t2, n_max):
        once = thinning_matrix(t1 * t2, n_max)
        twice = thinning_matrix(t1, n_max) @ thinning_matrix(t2, n_max)
        np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_bad_transmittance(self):
        # the survival probabilities that thin photons come from these two:
        # a detector efficiency outside (0, 1] or an arm transmittance above 1
        with pytest.raises(ValueError):
            DetectorParams(eta=0.0, dark=0.0)
        with pytest.raises(ValueError):
            DetectorParams(eta=1.5, dark=0.0)
        with pytest.raises(ValueError):
            ChannelParams(loss_db_per_km=-0.1, distance_km=10.0)


class TestQndPostselection:
    """The relay's nondemolition postselection accepts 0 or 1 arriving
    photons per arm: it cuts the arrivals >= 2 from the channel thinning."""

    def test_poisson_acceptance_matches_direct_sum(self):
        table = arrival_table(HERALD.dark, "sarg04", "key", 3)
        for t_arm in (1.0, 0.7, 0.05):
            cut = thinning_matrix(t_arm, 3)
            cut[:, 2:] = 0.0
            thin = cut @ thinning_matrix(HERALD.eta, 3)
            want = np.einsum("ia,jb,abc->ijc", thin, thin, table)
            got = relay_yields(HERALD, t_arm, n_max=3, qnd=True)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_two_photon_delta_rejected(self):
        # lossless channel: two emitted photons always arrive together
        y = relay_yields(HERALD, 1.0, n_max=2, qnd=True)
        assert not y[2].any() and not y[:, 2].any()

    def test_single_photon_delta_passes(self):
        qnd = relay_yields(HERALD, 0.4, n_max=2, qnd=True)
        bare = relay_yields(HERALD, 0.4, n_max=2)
        np.testing.assert_allclose(qnd[:2, :2], bare[:2, :2], rtol=1e-12, atol=0.0)
