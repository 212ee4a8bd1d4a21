"""Fock-optics model of the measurement unit: click patterns, yields,
error rates."""

import tracemalloc
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdi_sarg04.linalg import phi_state, rotation
from mdi_sarg04.optics import (
    _ALL_PATTERNS,
    _PATTERN_TYPES,
    N_MAX_CAP,
    ChannelParams,
    ClickPattern,
    DetectorParams,
    _dark_count_matrix,
    _hit_set_probabilities,
    _signal_pairs,
    _subset_sums,
    arrival_table,
    error_rate,
    relay_yields,
    thinning_matrix,
)
from tests.fock_oracle import (
    _mode_amplitudes,
    lossless_clicks,
    oracle_table,
    output_photon_distribution,
)

IDEAL = DetectorParams(eta=1.0, dark=0.0)
GYS = DetectorParams(eta=0.045, dark=8.5e-7)


def row(n, m, det, t_arm, protocol="sarg04", bb84_basis="key"):
    """(yield_1, ebit_1, yield_2, ebit_2) of an (n, m) emission: the relay
    yields with the bit error rates formed from them."""
    y = relay_yields(det, t_arm, protocol, bb84_basis, max(n, m))[n][m]
    return y[0], error_rate(y[1], y[0]), y[2], error_rate(y[3], y[2])


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

    def test_replace_checks_too(self):
        # NamedTuple's _replace builds through _make, which the records route
        # through their checking constructor
        with pytest.raises(ValueError):
            GYS._replace(eta=1.5)
        with pytest.raises(ValueError):
            GYS._replace(dark=-1e-3)
        with pytest.raises(ValueError):
            ChannelParams(0.21, 10.0)._replace(distance_km=-1.0)
        assert GYS._replace(eta=0.5) == DetectorParams(0.5, 8.5e-7)


class TestThinning:
    @pytest.mark.parametrize("s", [0.0, 0.3, 0.045, 1.0])
    def test_matches_binomial_loop(self, s):
        b = thinning_matrix(s, 12)
        for n in range(13):
            for k in range(13):
                want = comb(n, k) * s**k * (1 - s) ** (n - k) if k <= n else 0.0
                assert b[n][k] == pytest.approx(want, rel=1e-14, abs=1e-300)
        np.testing.assert_allclose(np.asarray(b).sum(axis=1), 1.0, rtol=1e-13)


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


def array_hits(a, b, pol_a, pol_b):
    """Hit-set probabilities of one signal pair from the subset
    probabilities of its a + b photons; any polarization stands for an arm
    that brings none."""
    u = np.array([_mode_amplitudes(phi_state(0) if pol_a is None else pol_a, "a")]).real
    v = np.array([_mode_amplitudes(phi_state(0) if pol_b is None else pol_b, "b")]).real
    return np.array(_hit_set_probabilities(_subset_sums(u.tolist(), v.tolist()), a, b)[0])


def array_clicks(a, b, pol_a, pol_b, dark):
    """The 16 click-pattern probabilities of one signal pair: its hit sets
    through the dark-count matrix."""
    return array_hits(a, b, pol_a, pol_b) @ np.array(_dark_count_matrix(dark))


# hit sets (indexed like the click patterns) on the left side only, and on both sides
CLICKS = np.array(_ALL_PATTERNS)
LEFT_ONLY = CLICKS[:, :2].any(axis=1) & ~CLICKS[:, 2:].any(axis=1)
BOTH_SIDES = CLICKS[:, :2].any(axis=1) & CLICKS[:, 2:].any(axis=1)
PROTOCOL_BASES = [("sarg04", "key"), ("bb84", "key"), ("bb84", "test")]


class TestOutputDistribution:
    """Photon-number distribution over the output modes (reference
    expansion) and the hit-set probabilities of the subset formula."""

    def test_single_photon_splits_evenly(self):
        dist = output_photon_distribution(1, 0, phi_state(0), None)
        assert abs(sum(dist.values()) - 1) < 1e-12
        left = sum(p for k, p in dist.items() if k[0] + k[1] == 1)
        assert abs(left - 0.5) < 1e-12
        hits = array_hits(1, 0, phi_state(0), None)
        assert abs(hits.sum() - 1) < 1e-12
        assert abs(hits[LEFT_ONLY].sum() - 0.5) < 1e-12

    @pytest.mark.parametrize("case", PROTOCOL_BASES)
    def test_hit_sets_past_the_cap(self, case):
        # every signal pair at every (a, b) <= (4, 4), beyond N_MAX_CAP: the
        # reference distribution summed per hit set.  True zeros leave
        # residues of up to 4.4e-16 after the inversion, so the tolerance is
        # absolute
        n_max = 4
        pol_a, pol_b, _ = _signal_pairs(*case)
        u = np.array([_mode_amplitudes(pol, "a") for pol in pol_a]).real
        v = np.array([_mode_amplitudes(pol, "b") for pol in pol_b]).real
        sums = _subset_sums(u.tolist(), v.tolist())
        for a, b in product(range(n_max + 1), range(n_max + 1)):
            hits = _hit_set_probabilities(sums, a, b)
            for x in range(len(u)):
                want = np.zeros(16)
                for k, p in output_photon_distribution(a, b, pol_a[x], pol_b[x]).items():
                    want[sum(1 << j for j in range(4) if k[j])] += p
                np.testing.assert_allclose(hits[x], want, rtol=0, atol=2e-15)

    def test_hong_ou_mandel_bunching(self):
        # identical photons in each arm never exit on opposite sides
        dist = output_photon_distribution(1, 1, phi_state(0), phi_state(0))
        for k, p in dist.items():
            left, right = k[0] + k[1], k[2] + k[3]
            if left == 1 and right == 1:
                assert p < 1e-12
        assert array_hits(1, 1, phi_state(0), phi_state(0))[BOTH_SIDES].sum() < 1e-12


class TestClickDistribution:
    """Click patterns of photons reaching the beamsplitter, from the
    reference expansion and from the subset formula; loss acts before
    them, as binomial thinning (TestThinning)."""

    def test_vacuum_no_dark(self):
        for clicks_of in (lossless_clicks, array_clicks):
            clicks = clicks_of(0, 0, None, None, 0.0)
            assert abs(clicks[0] - 1) < 1e-12  # pattern 0: no detector fires

    def test_probability_conservation(self):
        for clicks_of in (lossless_clicks, array_clicks):
            for a, b in ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 3)):
                clicks = clicks_of(a, b, phi_state(0), phi_state(1), GYS.dark)
                assert abs(clicks.sum() - 1) <= 1e-12
                assert clicks.min() >= 0

    def test_identical_photons_never_type1(self):
        for clicks_of in (lossless_clicks, array_clicks):
            clicks = clicks_of(1, 1, phi_state(0), phi_state(0), 0.0)
            assert clicks @ np.array(_PATTERN_TYPES)[:, 0] < 1e-12

    def test_photon_cap_enforced(self):
        with pytest.raises(ValueError):
            arrival_table(0.0, "sarg04", "key", 4)


def pin_endpoints(test):
    """Pin dark = 0 and 0.5 for every protocol and basis at every cutoff."""
    for dark in (0.0, 0.5):
        for case in PROTOCOL_BASES:
            for n_max in range(N_MAX_CAP + 1):
                test = example(dark=dark, case=case, n_max=n_max)(test)
    return test


class TestSignalPairs:
    def test_rotated_states_up_to_sign(self):
        # R^k |phi_i> = +/- |phi_{(i+k) mod 4}>; the sign is a global phase
        pol_a, pol_b, _ = _signal_pairs("sarg04", "key")
        for x, (i, ip, k) in enumerate(product((0, 1), (0, 1), range(4))):
            for pol, j in ((pol_a[x], i), (pol_b[x], ip)):
                want = (np.asarray(rotation(k)) @ phi_state(j)).real
                sign = np.sign(np.array(pol) @ want)
                np.testing.assert_allclose(pol, sign * want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("case", PROTOCOL_BASES)
    def test_real_amplitudes(self, case):
        # every amplitude and every table entry is a real (Python float) number
        pol_a, pol_b, _ = _signal_pairs(*case)
        assert all(type(c) is float for pol in pol_a + pol_b for c in pol)
        table = arrival_table(GYS.dark, *case, N_MAX_CAP)
        assert all(type(c) is float for row in table for cell in row for c in cell)


class TestArrivalTable:
    @settings(max_examples=12, deadline=None)
    @given(
        dark=st.floats(0.0, 0.5),
        case=st.sampled_from(PROTOCOL_BASES),
        n_max=st.integers(0, N_MAX_CAP),
    )
    @pin_endpoints
    def test_matches_reference_expansion(self, dark, case, n_max):
        table = np.array(arrival_table(dark, *case, n_max))
        np.testing.assert_allclose(table, oracle_table(dark, *case, n_max), rtol=0, atol=1e-15)
        yields, errors = table[..., 0::2], table[..., 1::2]
        assert (errors >= 0).all() and (errors <= yields).all() and (yields <= 1).all()
        # each (a, b) entry is independent of the cutoff (the QND cut relies on it)
        full = np.array(arrival_table(dark, *case, N_MAX_CAP))
        assert np.array_equal(full[: n_max + 1, : n_max + 1], table)

    @pytest.mark.parametrize("dark", [0.0, 1e-12, 8.5e-7, 1e-3, 0.3])
    @pytest.mark.parametrize("case", PROTOCOL_BASES)
    def test_relative_accuracy(self, dark, case):
        # entries as small as d^2 ~ 7e-13 lie below the absolute tolerance above
        oracle = oracle_table(dark, *case, N_MAX_CAP)
        for n_max in range(N_MAX_CAP + 1):
            np.testing.assert_allclose(
                arrival_table(dark, *case, n_max),
                oracle[: n_max + 1, : n_max + 1],
                rtol=1e-13,
                atol=1e-30,
            )


    def test_allocation_peak(self):
        # the subset and hit-set probabilities take 16 floats per signal
        # pair and (a, b) cell.  Measured 112,078 bytes under numpy 2.4; the
        # bound, set for an earlier and larger construction, is kept.
        arrival_table(GYS.dark, "sarg04", "key", N_MAX_CAP)
        tracemalloc.start()
        try:
            arrival_table(GYS.dark, "sarg04", "key", N_MAX_CAP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 220_000, peak


class TestYieldsAndErrors:
    def test_ideal_one_one_error_free(self):
        y1, e1, y2, e2 = row(1, 1, IDEAL, 1.0)
        assert abs(e1) <= 1e-12
        assert abs(e2) <= 1e-12
        assert abs(y1 - 0.125) < 1e-12
        assert abs(y2 - 0.125) < 1e-12

    def test_ideal_two_zero_errors_half(self):
        for nm in ((2, 0), (0, 2)):
            _, e1, _, e2 = row(*nm, IDEAL, 1.0)
            assert abs(e1 - 0.5) <= 1e-10
            assert abs(e2 - 0.5) <= 1e-10

    def test_dark_only_vacuum(self):
        det = DetectorParams(eta=1.0, dark=1e-3)
        y1, e1, y2, e2 = row(0, 0, det, 1.0)
        # only dark-count pairs can fire: 4 two-fold patterns accepted,
        # each with probability d^2 (1-d)^2
        d = det.dark
        pair = d * d * (1 - d) ** 2
        assert abs(y1 - 2 * pair) < 1e-15
        assert abs(y2 - 2 * pair) < 1e-15
        assert abs(e1 - 0.5) < 1e-12
        assert abs(e2 - 0.5) < 1e-12

    def test_arm_swap_symmetry(self):
        y = np.array(relay_yields(GYS, 0.4, n_max=3))
        np.testing.assert_allclose(y, y.transpose(1, 0, 2), rtol=1e-12, atol=0.0)

    def test_loss_composition(self):
        direct = relay_yields(DetectorParams(eta=0.6, dark=0.0), 0.5)
        merged = relay_yields(DetectorParams(eta=0.3, dark=0.0), 1.0)
        np.testing.assert_allclose(direct, merged, rtol=0.0, atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.05, 1.0), st.floats(0.05, 1.0))
    def test_yield_monotone_in_transmittance(self, t_lo, t_hi):
        t_lo, t_hi = sorted((t_lo, t_hi))
        lo, hi = (relay_yields(IDEAL, t)[1][1] for t in (t_lo, t_hi))
        assert lo[0] <= hi[0] + 1e-12
        assert lo[2] <= hi[2] + 1e-12

    def test_bb84_ideal_one_one(self):
        for basis in ("key", "test"):
            _, e1, _, e2 = row(1, 1, IDEAL, 1.0, protocol="bb84", bb84_basis=basis)
            assert abs(e1) <= 1e-12
            assert abs(e2) <= 1e-12

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            relay_yields(IDEAL, 1.0, protocol="b92")


class TestFold:
    """`relay_yields` thins the arrival table by the detectors and then by
    the channel; the unfolded products thin it once, with B(t eta) for the
    bare relay and B(t)[:, :2] B(eta) for the QND one."""

    @pytest.mark.parametrize("qnd", [False, True])
    @pytest.mark.parametrize("case", PROTOCOL_BASES)
    def test_matches_unfolded_product(self, case, qnd):
        for n_max, dark, eta in product(range(N_MAX_CAP + 1), (0.0, 8.5e-7, 0.5), (0.045, 1.0)):
            det = DetectorParams(eta, dark)
            cut = min(n_max, 1) if qnd else n_max
            table = np.array(arrival_table(dark, *case, cut))
            for t_arm in (0.0, 0.3, 1.0):
                if qnd:
                    channel = np.array(thinning_matrix(t_arm, n_max))[:, : cut + 1]
                    thin = channel @ np.array(thinning_matrix(eta, cut))
                else:
                    thin = np.array(thinning_matrix(t_arm * eta, n_max))
                want = np.einsum("na,mb,abc->nmc", thin, thin, table)
                got = np.array(relay_yields(det, t_arm, *case, n_max, qnd))
                where = (case, qnd, n_max, dark, eta, t_arm)
                assert np.array_equal(got == 0, want == 0), where
                assert (abs(got - want) <= 1e-14 * abs(want)).all(), where


class TestMuResponse:
    """The relay's per-(n, m) response table, as `mu-table` prints it."""

    def test_table_covers_grid(self):
        assert np.shape(relay_yields(GYS, 0.5, n_max=2)) == (3, 3, 4)
        # one table per transmittance, each the table alone
        tables = [relay_yields(GYS, t_arm, n_max=2) for t_arm in (0.5, 0.1)]
        assert np.shape(tables) == (2, 3, 3, 4)
        assert tables[0] != tables[1]

    def test_type_yields_sum_below_one(self):
        y = np.array(relay_yields(GYS, 0.5, n_max=2))
        assert (y[..., 0] + y[..., 2] <= 1 + 1e-12).all()
        # error-weighted yields never exceed the yields
        assert (y[..., 1::2] <= y[..., 0::2]).all()

    def test_cap_rejected(self):
        with pytest.raises(ValueError):
            relay_yields(GYS, 0.5, n_max=4)
