"""Source photon-number statistics, loss, and relay postselection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdi_sarg04.optics import DetectorParams
from mdi_sarg04.sources import (
    PhotonNumberDist,
    poisson_source,
    propagate_through_loss,
    qnd_accept_probability,
    spdc_heralded,
    thermal_pair_probs,
)

HERALD = DetectorParams(eta=0.045, dark=8.5e-7)


class TestPhotonNumberDist:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhotonNumberDist(probs=np.array([0.5, 0.4]))  # mass != 1
        with pytest.raises(ValueError):
            PhotonNumberDist(probs=np.array([1.5, -0.5]))

    def test_prob_beyond_cutoff_is_zero(self):
        d = PhotonNumberDist(probs=np.array([0.5, 0.5]))
        assert d.prob(7) == 0.0


class TestPoissonSource:
    def test_vacuum_at_zero(self):
        assert poisson_source(0.0).prob(0) == 1.0

    def test_term_ratio(self):
        d = poisson_source(0.1)
        assert abs(d.prob(1) / d.prob(2) - 20.0) < 1e-9

    def test_mass_accounting(self):
        d = poisson_source(1.5)
        assert abs(d.probs.sum() + d.tail_mass - 1.0) <= 1e-12
        assert d.tail_mass <= 1e-6

    def test_cutoff_auto_raised(self):
        d = poisson_source(1.5, cutoff=2)
        assert d.cutoff > 2
        assert d.tail_mass <= 1e-6

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            poisson_source(-0.1)

    @pytest.mark.parametrize("mu", [60.0, 80.0, 150.0])
    def test_large_mu_past_float_range_of_terms(self, mu):
        # the cutoff doubling reaches n >= 171, where mu^n and n! overflow a float
        d = poisson_source(mu)
        assert d.cutoff >= 171
        assert abs(d.probs.sum() - 1.0) <= 1e-12
        assert d.tail_mass <= 1e-6

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 2.0))
    def test_normalized(self, mu):
        d = poisson_source(mu)
        assert abs(d.probs.sum() + d.tail_mass - 1.0) <= 1e-12
        assert d.probs.min() >= 0


class TestSpdcHeralded:
    def test_thermal_statistics(self):
        p = thermal_pair_probs(0.3, 5)
        for n in range(6):
            assert abs(p[n] - 0.3**n / 1.3 ** (n + 1)) < 1e-15

    def test_no_pump_no_dark_is_degenerate(self):
        src = spdc_heralded(0.0, DetectorParams(eta=0.5, dark=0.0))
        assert src.degenerate
        assert src.p_herald == 0.0

    def test_no_pump_dark_heralds_vacuum(self):
        src = spdc_heralded(0.0, DetectorParams(eta=0.5, dark=1e-6))
        assert not src.degenerate
        assert abs(src.conditional.prob(0) - 1.0) < 1e-12

    def test_perfect_herald_removes_vacuum(self):
        src = spdc_heralded(0.1, DetectorParams(eta=1.0, dark=0.0))
        assert src.conditional.prob(0) == 0.0

    def test_single_photon_fraction_grows_as_pump_drops(self):
        det = DetectorParams(eta=0.5, dark=0.0)
        fracs = [
            spdc_heralded(mu, det).conditional.prob(1) for mu in (0.5, 0.2, 0.05, 0.01)
        ]
        assert all(b > a for a, b in zip(fracs, fracs[1:]))

    def test_poisson_switch(self):
        src = spdc_heralded(0.1, HERALD, pair_statistics="poisson")
        assert abs(src.conditional.probs.sum() + src.conditional.tail_mass - 1.0) <= 1e-12
        with pytest.raises(ValueError):
            spdc_heralded(0.1, HERALD, pair_statistics="binomial")

    def test_herald_probability_formula(self):
        mu = 0.2
        src = spdc_heralded(mu, HERALD)
        pairs = thermal_pair_probs(mu, src.conditional.cutoff)
        click = 1 - (1 - HERALD.dark) * (1 - HERALD.eta) ** np.arange(pairs.size)
        assert abs(src.p_herald - float(pairs @ click)) < 1e-12


class TestLossPropagation:
    def test_identity_at_unit_transmittance(self):
        d = poisson_source(0.3)
        out = propagate_through_loss(d, 1.0)
        np.testing.assert_allclose(out.probs, d.probs, atol=1e-15)

    def test_single_photon_half_loss(self):
        d = PhotonNumberDist(probs=np.array([0.0, 1.0]))
        out = propagate_through_loss(d, 0.5)
        np.testing.assert_allclose(out.probs, [0.5, 0.5])

    def test_poisson_thins_to_poisson(self):
        # deep cutoff so truncated-tail mass stays far below the tolerance
        d = propagate_through_loss(poisson_source(0.4, cutoff=40), 0.3)
        ref = poisson_source(0.4 * 0.3, cutoff=40)
        np.testing.assert_allclose(d.probs[:10], ref.probs[:10], atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(0.0, 1.0))
    def test_thinning_composes(self, t1, t2, mu):
        d = poisson_source(mu)
        once = propagate_through_loss(d, t1 * t2)
        twice = propagate_through_loss(propagate_through_loss(d, t1), t2)
        np.testing.assert_allclose(once.probs, twice.probs, atol=1e-12)

    def test_bad_transmittance(self):
        with pytest.raises(ValueError):
            propagate_through_loss(poisson_source(0.1), 0.0)
        with pytest.raises(ValueError):
            propagate_through_loss(poisson_source(0.1), 1.5)


class TestQndPostselection:
    def test_poisson_acceptance_matches_direct_sum(self):
        arriving = propagate_through_loss(poisson_source(0.01), 0.7)
        p_acc, cond = qnd_accept_probability(arriving)
        assert abs(p_acc - (arriving.prob(0) + arriving.prob(1))) < 1e-15
        assert abs(cond.probs.sum() - 1.0) <= 1e-12

    def test_two_photon_delta_rejected(self):
        d = PhotonNumberDist(probs=np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            qnd_accept_probability(d)

    def test_single_photon_delta_passes(self):
        d = PhotonNumberDist(probs=np.array([0.0, 1.0]))
        p_acc, cond = qnd_accept_probability(d)
        assert p_acc == 1.0
        np.testing.assert_allclose(cond.probs, [0.0, 1.0])
