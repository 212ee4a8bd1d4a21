"""Source photon-number statistics, loss, and relay postselection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdi_sarg04.optics import (
    ChannelParams,
    DetectorParams,
    arrival_table,
    relay_yields,
    thinning_matrix,
)
from mdi_sarg04.sources import poisson_probs, poisson_source, spdc_heralded, thermal_pair_probs

HERALD = DetectorParams(eta=0.045, dark=8.5e-7)
MEAN = st.integers(0, 100) | st.floats(0.0, 100.0)


def _poisson_tail(mu: float, n_max: int) -> float:
    """sum_{n > n_max} exp(-mu) mu^n / n!, summed exactly in log space."""
    if mu == 0:
        return 0.0
    terms = range(n_max + 1, n_max + 400)
    return math.fsum(math.exp(n * math.log(mu) - mu - math.lgamma(n + 1)) for n in terms)


class TestEmissionProbabilities:
    """Mass and sign of every emission distribution a rate is built from."""

    @settings(max_examples=60, deadline=None)
    @given(MEAN, st.integers(0, 200))
    def test_poisson_mass_and_sign(self, mu, n_max):
        p = poisson_probs([mu], n_max)[0]
        assert np.isfinite(p).all() and p.min() >= 0
        assert abs(p.sum() + _poisson_tail(float(mu), n_max) - 1.0) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(MEAN, st.integers(0, 384))
    def test_thermal_mass_and_sign(self, mu, cutoff):
        p = thermal_pair_probs(mu, cutoff)
        tail = (mu / (1 + mu)) ** (cutoff + 1)
        assert np.isfinite(p).all() and p.min() >= 0
        assert abs(p.sum() + tail - 1.0) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        MEAN,
        st.sampled_from(["thermal", "poisson"]),
        st.floats(1e-3, 1.0),
        st.floats(0.0, 0.5),
    )
    def test_heralded_mass_and_sign(self, mu, statistics, eta, dark):
        # the conditional distribution is normalized by the herald probability
        # of its own (truncated) pair distribution, so it carries no tail
        p_herald, cond = spdc_heralded(mu, DetectorParams(eta, dark), pair_statistics=statistics)
        assert 0.0 <= p_herald <= 1.0
        assert np.isfinite(cond).all() and cond.min() >= 0
        assert abs(cond.sum() - 1.0) <= 1e-12


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


class TestSpdcHeralded:
    def test_thermal_statistics(self):
        p = thermal_pair_probs(0.3, 5)
        for n in range(6):
            assert abs(p[n] - 0.3**n / 1.3 ** (n + 1)) < 1e-15

    def test_no_pump_no_dark_is_degenerate(self):
        p_herald, cond = spdc_heralded(0.0, DetectorParams(eta=0.5, dark=0.0))
        assert p_herald == 0.0
        assert cond[0] == 1.0 and cond.sum() == 1.0

    def test_no_pump_dark_heralds_vacuum(self):
        p_herald, cond = spdc_heralded(0.0, DetectorParams(eta=0.5, dark=1e-6))
        assert p_herald > 0.0
        assert abs(cond[0] - 1.0) < 1e-12

    def test_perfect_herald_removes_vacuum(self):
        _, cond = spdc_heralded(0.1, DetectorParams(eta=1.0, dark=0.0))
        assert cond[0] == 0.0

    def test_single_photon_fraction_grows_as_pump_drops(self):
        det = DetectorParams(eta=0.5, dark=0.0)
        fracs = [spdc_heralded(mu, det)[1][1] for mu in (0.5, 0.2, 0.05, 0.01)]
        assert all(b > a for a, b in zip(fracs, fracs[1:]))

    def test_poisson_switch(self):
        _, cond = spdc_heralded(0.1, HERALD, pair_statistics="poisson")
        assert abs(cond.sum() - 1.0) <= 1e-12
        with pytest.raises(ValueError):
            spdc_heralded(0.1, HERALD, pair_statistics="binomial")

    def test_herald_probability_formula(self):
        mu = 0.2
        p_herald, cond = spdc_heralded(mu, HERALD)
        pairs = thermal_pair_probs(mu, cond.size - 1)
        click = 1 - (1 - HERALD.dark) * (1 - HERALD.eta) ** np.arange(pairs.size)
        assert abs(p_herald - float(pairs @ click)) < 1e-12

    @pytest.mark.parametrize("statistics", ["thermal", "poisson"])
    def test_integer_pump_equals_float_pump(self, statistics):
        # an int mean pair number once overflowed int64 in mu**n
        p_int, cond_int = spdc_heralded(2, HERALD, pair_statistics=statistics)
        p_float, cond_float = spdc_heralded(2.0, HERALD, pair_statistics=statistics)
        assert p_int == p_float
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
