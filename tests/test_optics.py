"""Fock-optics model of the measurement unit: click patterns, yields,
error rates."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdi_sarg04.linalg import phi_state
from mdi_sarg04.optics import (
    ChannelParams,
    ClickPattern,
    DetectorParams,
    mu_click_distribution,
    mu_response,
    output_photon_distribution,
    thinning_matrix,
    yields_and_errors,
)

IDEAL = DetectorParams(eta=1.0, dark=0.0)
GYS = DetectorParams(eta=0.045, dark=8.5e-7)


class TestParams:
    def test_detector_validation(self):
        with pytest.raises(ValueError):
            DetectorParams(eta=0.0, dark=0.0)
        with pytest.raises(ValueError):
            DetectorParams(eta=0.5, dark=1.0)

    def test_channel_transmittance(self):
        ch = ChannelParams(loss_db_per_km=0.21, distance_km=40.0)
        assert abs(ch.t_arm - 10 ** (-0.21 * 20 / 10)) < 1e-15
        assert ChannelParams(0.21, 0.0).t_arm == 1.0

    def test_channel_validation(self):
        bad = ((-0.1, 10.0), (0.21, -1.0), (float("inf"), 10.0), (0.21, float("nan")))
        for loss, distance in bad:
            with pytest.raises(ValueError):
                ChannelParams(loss, distance)


class TestThinning:
    @pytest.mark.parametrize("s", [0.0, 0.3, 0.045, 1.0])
    def test_matches_binomial_loop(self, s):
        b = thinning_matrix(s, 12)
        for n in range(13):
            for k in range(13):
                want = comb(n, k) * s**k * (1 - s) ** (n - k) if k <= n else 0.0
                assert b[n, k] == pytest.approx(want, rel=1e-14, abs=1e-300)
        np.testing.assert_allclose(b.sum(axis=1), 1.0, rtol=1e-13)


class TestClickClassification:
    def test_cross_pairs_are_type1(self):
        assert ClickPattern(True, False, False, True).classify() == 1
        assert ClickPattern(False, True, True, False).classify() == 1

    def test_same_side_pairs_are_type2(self):
        assert ClickPattern(True, True, False, False).classify() == 2
        assert ClickPattern(False, False, True, True).classify() == 2

    def test_other_patterns_fail(self):
        assert ClickPattern(True, False, True, False).classify() is None
        assert ClickPattern(True, True, True, False).classify() is None
        assert ClickPattern(False, False, False, False).classify() is None
        assert ClickPattern(True, True, True, True).classify() is None


class TestOutputDistribution:
    def test_single_photon_splits_evenly(self):
        dist = output_photon_distribution(1, 0, phi_state(0), None)
        assert abs(sum(dist.values()) - 1) < 1e-12
        left = sum(p for k, p in dist.items() if k[0] + k[1] == 1)
        assert abs(left - 0.5) < 1e-12

    def test_hong_ou_mandel_bunching(self):
        # identical photons in each arm never exit on opposite sides
        dist = output_photon_distribution(1, 1, phi_state(0), phi_state(0))
        for k, p in dist.items():
            left, right = k[0] + k[1], k[2] + k[3]
            if left == 1 and right == 1:
                assert p < 1e-12


class TestClickDistribution:
    def test_vacuum_no_dark(self):
        dist = mu_click_distribution(0, 0, None, None, IDEAL, 1.0)
        assert abs(dist[ClickPattern(False, False, False, False)] - 1) < 1e-12

    def test_probability_conservation(self):
        for n, m in ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2)):
            dist = mu_click_distribution(
                n, m, phi_state(0), phi_state(1), GYS, 0.3, n_max=2
            )
            assert abs(sum(dist.values()) - 1) <= 1e-12

    def test_identical_photons_never_type1(self):
        dist = mu_click_distribution(1, 1, phi_state(0), phi_state(0), IDEAL, 1.0)
        p1 = sum(p for pat, p in dist.items() if pat.classify() == 1)
        assert p1 < 1e-12

    def test_photon_cap_enforced(self):
        with pytest.raises(ValueError):
            mu_click_distribution(3, 0, phi_state(0), None, IDEAL, 1.0, n_max=2)


class TestYieldsAndErrors:
    def test_ideal_one_one_error_free(self):
        e = yields_and_errors(1, 1, IDEAL, 1.0)
        assert abs(e.ebit_type1) <= 1e-12
        assert abs(e.ebit_type2) <= 1e-12
        assert abs(e.yield_type1 - 0.125) < 1e-12
        assert abs(e.yield_type2 - 0.125) < 1e-12

    def test_ideal_two_zero_errors_half(self):
        for nm in ((2, 0), (0, 2)):
            e = yields_and_errors(*nm, IDEAL, 1.0)
            assert abs(e.ebit_type1 - 0.5) <= 1e-10
            assert abs(e.ebit_type2 - 0.5) <= 1e-10

    def test_dark_only_vacuum(self):
        det = DetectorParams(eta=1.0, dark=1e-3)
        e = yields_and_errors(0, 0, det, 1.0)
        # only dark-count pairs can fire: 4 two-fold patterns accepted,
        # each with probability d^2 (1-d)^2
        d = det.dark
        pair = d * d * (1 - d) ** 2
        assert abs(e.yield_type1 - 2 * pair) < 1e-15
        assert abs(e.yield_type2 - 2 * pair) < 1e-15
        assert abs(e.ebit_type1 - 0.5) < 1e-12
        assert abs(e.ebit_type2 - 0.5) < 1e-12

    def test_arm_swap_symmetry(self):
        a = yields_and_errors(1, 2, GYS, 0.4)
        b = yields_and_errors(2, 1, GYS, 0.4)
        assert abs(a.yield_type1 - b.yield_type1) <= 1e-12
        assert abs(a.yield_type2 - b.yield_type2) <= 1e-12
        assert abs(a.ebit_type1 - b.ebit_type1) <= 1e-12
        assert abs(a.ebit_type2 - b.ebit_type2) <= 1e-12

    def test_loss_composition(self):
        direct = yields_and_errors(2, 1, DetectorParams(eta=0.6, dark=0.0), 0.5)
        merged = yields_and_errors(2, 1, DetectorParams(eta=0.3, dark=0.0), 1.0)
        assert abs(direct.yield_type1 - merged.yield_type1) <= 1e-12
        assert abs(direct.yield_type2 - merged.yield_type2) <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.05, 1.0), st.floats(0.05, 1.0))
    def test_yield_monotone_in_transmittance(self, t_lo, t_hi):
        t_lo, t_hi = sorted((t_lo, t_hi))
        det = DetectorParams(eta=1.0, dark=0.0)
        lo = yields_and_errors(1, 1, det, t_lo)
        hi = yields_and_errors(1, 1, det, t_hi)
        assert lo.yield_type1 <= hi.yield_type1 + 1e-12
        assert lo.yield_type2 <= hi.yield_type2 + 1e-12

    def test_bb84_ideal_one_one(self):
        key = yields_and_errors(1, 1, IDEAL, 1.0, protocol="bb84", bb84_basis="key")
        test = yields_and_errors(1, 1, IDEAL, 1.0, protocol="bb84", bb84_basis="test")
        assert abs(key.ebit_type1) <= 1e-12
        assert abs(key.ebit_type2) <= 1e-12
        assert abs(test.ebit_type1) <= 1e-12
        assert abs(test.ebit_type2) <= 1e-12

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            yields_and_errors(1, 1, IDEAL, 1.0, protocol="b92")


class TestMuResponse:
    def test_table_covers_grid(self):
        resp = mu_response(GYS, 0.5, n_max=2)
        assert set(resp.entries) == {(n, m) for n in range(3) for m in range(3)}

    def test_type_yields_sum_below_one(self):
        resp = mu_response(GYS, 0.5, n_max=2)
        for e in resp.entries.values():
            assert e.yield_type1 + e.yield_type2 <= 1 + 1e-12

    def test_cap_rejected(self):
        with pytest.raises(ValueError):
            mu_response(GYS, 0.5, n_max=4)
