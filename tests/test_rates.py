"""Rate assembly as quadratic forms in the emission vector, and key-rate
evaluation."""

import itertools
import math

import numpy as np
import pytest

from mdi_sarg04.bounds import BoundResult, binary_entropy, phase_bound
from mdi_sarg04.config import PHOTON_TERMS, SCENARIOS, TYPE_SELECTIONS, ConfigError, ScenarioConfig
from mdi_sarg04.optics import ChannelParams, DetectorParams, error_rate, relay_yields
from mdi_sarg04.rates import (
    INCLUDED_TYPES,
    KEY_TERMS,
    KeyRateBreakdown,
    SIFT_FACTOR,
    arrival_forms,
    arrival_values,
    bb84_baseline_rate,
    bb84_forms,
    bb84_key_terms,
    weighted_emission,
    form_values,
    key_bound,
    key_forms,
    key_fractions,
    key_terms,
    privacy_factors,
)
from mdi_sarg04.optics import detector_table, thinned_cell, thinning_matrix
from mdi_sarg04.scenario import _rates, points_at
from mdi_sarg04.sources import poisson_probs, spdc_heralded
from tests.rate_oracle import oracle_point

IDEAL = DetectorParams(eta=1.0, dark=0.0)
GYS = DetectorParams(eta=0.045, dark=8.5e-7)
SINGLE = [0.0, 1.0, 0.0]  # emission probabilities of a single-photon source
ERROR_RATE = np.vectorize(error_rate)  # elementwise over arrays of the forms' entries


def bit_error_rates(y):
    """ebit[t - 1][n][m] of relay yields y[n][m]."""
    return [[[error_rate(c[2 * t - 1], c[2 * t - 2]) for c in row] for row in y] for t in (1, 2)]


def type_gains(p, det, t_arm, qnd=False, n_max=2):
    """Per announcement type, from the SARG04 key forms at emission
    probabilities p of both senders: the gains q[n, m] = p_n p_m S_t[n, m],
    the bit error rates ebit[n, m] = E_t[n, m] / S_t[n, m], and the totals
    q_tot = pᵀ S_t p and e_tot = pᵀ E_t p / q_tot."""
    forms = key_forms(relay_yields(det, t_arm, n_max=n_max, qnd=qnd))
    values = form_values(forms, p, p)
    p, forms = np.asarray(p), np.array(forms)
    s, e = forms[0::3], forms[1::3]
    q_tot, errors = values[0::3], values[1::3]
    return list(zip(p[:, None] * p * s, ERROR_RATE(e, s), q_tot, map(error_rate, errors, q_tot)))


def one_one_fractions(e11_1=0.0, e11_2=0.0, one_one_only=False, type_selection="both"):
    """Key fractions at a single-photon source of a relay whose only yield
    is the (1,1) term, 0.04 for both types: gains 0.01 (Type1) and 0.005
    (Type2) after sifting."""
    y = np.zeros((2, 2, 4))
    y[1, 1] = (0.04, 0.04 * e11_1, 0.04, 0.04 * e11_2)
    values = form_values(key_forms(y.tolist(), one_one_only), SINGLE[:2], SINGLE[:2])
    return key_fractions(values, 1.22, INCLUDED_TYPES[type_selection])


class TestAssembleGains:
    """Gains of one pair of emission distributions, read off the key forms."""

    def test_ideal_single_photons_error_free(self):
        (q1, _, q_tot1, e_tot1), (_, _, _, e_tot2) = type_gains(SINGLE, IDEAL, 1.0)
        assert abs(e_tot1) <= 1e-12
        assert abs(e_tot2) <= 1e-12
        # only the (1,1) entry carries weight
        assert abs(q_tot1 - q1[(1, 1)]) <= 1e-15

    def test_sift_factors_applied(self):
        (q1, *_), (q2, *_) = type_gains(SINGLE, IDEAL, 1.0)
        # ideal (1,1) relay yield is 1/8 per type before sifting
        assert abs(q1[(1, 1)] - SIFT_FACTOR[1] * 0.125) < 1e-12
        assert abs(q2[(1, 1)] - SIFT_FACTOR[2] * 0.125) < 1e-12

    def test_error_floor_near_quarter(self):
        src = poisson_probs(0.01, 2)
        (*_, e_tot1), (*_, e_tot2) = type_gains(src, IDEAL, 1.0)
        assert 0.24 <= e_tot1 <= 0.26
        assert 0.24 <= e_tot2 <= 0.26

    def test_two_photon_gain_ratios(self):
        src = poisson_probs(0.01, 2)
        for q, *_ in type_gains(src, IDEAL, 1.0):
            assert abs(q[(1, 1)] / 2 / q[(2, 0)] - 1) < 0.1
            assert abs(q[(2, 0)] / q[(0, 2)] - 1) < 1e-9

    def test_totals_consistent(self):
        src = poisson_probs(0.3, 2)
        for q, ebit, q_tot, e_tot in type_gains(src, GYS, 0.5):
            assert abs(q_tot - sum(q.ravel())) <= 1e-15
            weighted = sum((q * ebit).ravel())
            assert abs(e_tot - weighted / q_tot) <= 1e-12

    def test_symmetric_source_symmetric_gains(self):
        src = poisson_probs(0.2, 2)
        for q, *_ in type_gains(src, GYS, 0.6):
            for n in range(3):
                for m in range(3):
                    assert abs(q[(n, m)] - q[(m, n)]) <= 1e-15

    @pytest.mark.parametrize("qnd", [False, True])
    def test_wider_table(self, qnd):
        # N = 4: the (n, m) axes grow, the totals stay row-major sums and the
        # bounded key terms stay the same six
        src = poisson_probs(0.4, 3)
        wide = type_gains(src, GYS, 0.5, qnd=qnd, n_max=3)
        for q, ebit, q_tot, e_tot in wide:
            assert q.shape == ebit.shape == (4, 4)
            assert q_tot == sum(q.ravel().tolist())
            errors = sum((q * ebit).ravel().tolist())
            assert abs(e_tot - errors / q_tot) <= 1e-13 * e_tot
        narrow = type_gains(src[:3], GYS, 0.5, qnd=qnd)
        # the six key terms of both types, as at N = 3, zero-padded to n, m <= 3
        padded = np.zeros((2, 4, 4))
        padded[:, :3, :3] = privacy_factors([ebit.tolist() for _, ebit, *_ in narrow])
        assert privacy_factors([ebit.tolist() for _, ebit, *_ in wide]) == padded.tolist()

    def test_qnd_zero_loss_kills_multiphoton_arrivals(self):
        src = poisson_probs(0.5, 2)
        (q1, *_), (q2, *_) = type_gains(src, GYS, 1.0, qnd=True)
        assert q1[(1, 2)] == 0.0
        assert q1[(2, 1)] == 0.0
        assert q2[(1, 2)] == 0.0

    def test_qnd_rejects_heralded_source(self):
        # heralded sources meet the bare relay: with no loss, multiphoton
        # arrivals keep the gain the postselection would remove
        cond = spdc_heralded(0.1, GYS)[1]
        (q1, *_), (q2, *_) = type_gains(cond, GYS, 1.0)
        assert q1[(1, 2)] > 0.0 and q2[(2, 1)] > 0.0

    def test_heralded_probability_reported(self):
        # the SPDC scenario evaluates the bare relay at the conditional
        # emission probabilities and reports the joint heralding probability
        config = ScenarioConfig(scenario="spdc_heralded")
        p_herald, cond = spdc_heralded(0.1, GYS)
        point = points_at(config, [0.0], 0.1)[0]
        assert abs(point.p_herald - p_herald**2) < 1e-15
        values = form_values(key_forms(relay_yields(GYS, 1.0)), cond, cond)
        bare = key_fractions(values, config.ec_inefficiency, INCLUDED_TYPES["both"])
        assert (point.G1, point.G2) == (bare.G1, bare.G2)


class TestKeyRate:
    def test_error_free_single_term_keeps_everything(self):
        b = one_one_fractions()
        assert abs(b.G1 - 0.01) < 1e-15
        assert abs(b.G2 - 0.005) < 1e-15
        assert abs(b.total - 0.015) < 1e-15

    def test_saturated_phase_error_loses_key(self):
        # (1,1) Type2 phase bound is 3 e_bit: e_bit = 0.2 saturates it
        b = one_one_fractions(e11_2=0.2)
        assert b.G2 < 0
        assert abs(b.total - max(b.G1, 0.0)) < 1e-15

    def test_negative_terms_clamped_in_total_only(self):
        b = one_one_fractions(e11_1=0.4, e11_2=0.4)
        assert b.G1 < 0 and b.G2 < 0
        assert b.total == 0.0

    def test_one_one_only_drops_mixed_terms(self):
        src = poisson_probs(0.5, 2)
        y = relay_yields(GYS, 0.5)
        full, only = (key_forms(y, one_one_only) for one_one_only in (False, True))
        b_full, b_only = (
            key_fractions(form_values(forms, src, src), 1.22, INCLUDED_TYPES["both"])
            for forms in (full, only)
        )
        assert b_full.total >= b_only.total - 1e-15
        # the K_t forms (rows 2 and 5) keep the key terms only
        assert np.argwhere(np.array(only)[2::3]).tolist() == [[0, 1, 1], [1, 1, 1]]
        # with every term, K_1 keeps the mixed terms (1,2) and (2,1) too
        assert np.argwhere(full[2]).tolist() == [[1, 1], [1, 2], [2, 1]]

    def test_type_selection(self):
        b_both = one_one_fractions()
        b_t1 = one_one_fractions(type_selection="type1_only")
        b_t2 = one_one_fractions(type_selection="type2_only")
        assert abs(b_t1.total + b_t2.total - b_both.total) < 1e-15

    def test_validation(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(ec_inefficiency=0.9)
        with pytest.raises(ConfigError):
            ScenarioConfig(type_selection="neither")


class TestPhaseBounds:
    @pytest.mark.parametrize("scenario, step_km", [("qnd_coherent", 0.5), ("spdc_heralded", 2.0)])
    @pytest.mark.parametrize("one_one_only", [False, True])
    def test_stacked_equals_per_case_calls(self, scenario, step_km, one_one_only):
        # at every distance of a sweep, the key terms' factors are their
        # per-case bounds, and K_t is the privacy factors times S_t
        config = ScenarioConfig(scenario=scenario, distance_step_km=step_km)
        cases = [(1, 1)] if one_one_only else [(1, 1), (1, 2), (2, 1)]
        for d in config.distances():
            t_arm = ChannelParams(config.loss_db_per_km, d).t_arm
            y = relay_yields(GYS, t_arm, qnd=scenario == "qnd_coherent")
            ebit = bit_error_rates(y)
            factors = np.array(privacy_factors(ebit, one_one_only))
            assert factors.shape == (2, 3, 3)
            rest = factors.copy()
            for t in (1, 2):
                for n, m in cases:
                    e_ph = phase_bound((n, m), t, ebit[t - 1][n][m]).e_ph
                    want = 1.0 - binary_entropy(min(e_ph, 0.5))
                    assert factors[t - 1, n, m] == want
                    rest[t - 1, n, m] = 0.0
            assert not rest.any()
            forms = np.array(key_forms(y, one_one_only))
            assert forms[2::3].tolist() == (factors * forms[0::3]).tolist()

    def test_absent_cases_skipped(self):
        ebit = np.full((2, 2, 2), 0.5)
        ebit[:, 1, 1] = (0.01, 0.02)
        want = np.zeros((2, 2, 2))
        want[:, 1, 1] = [1.0 - binary_entropy(x) for x in (0.015, 0.06)]
        assert privacy_factors(ebit.tolist()) == want.tolist()


class TestFormValues:
    def test_values_sum_row_major_whatever_the_batch(self, rng):
        # a sweep over five distances' forms at a shared mu grid, or at one
        # mu each, gives every point the value of that point evaluated
        # alone: the one-at-a-time row-major sum of its (n, m) terms, whether
        # the sums are written out (N = 3) or looped (N = 2, 4)
        for size in (2, 3, 4):
            forms = rng.random((5, 6, size, size)).tolist()
            for grid in (rng.random((4, size)).tolist(), rng.random((5, size)).tolist()):
                sweep = [[form_values(forms[d], p, p) for p in grid] for d in range(5)]
                for d, k, i in itertools.product(range(5), range(len(grid)), range(6)):
                    p = grid[k]
                    want = 0.0
                    for n, m in itertools.product(range(size), repeat=2):
                        want += p[n] * p[m] * forms[d][i][n][m]
                    assert sweep[d][k][i] == want
            p_a, p_b = rng.random((2, size)).tolist()
            values = form_values(forms[0], p_a, p_b)
            for i in range(6):
                want = 0.0
                for n, m in itertools.product(range(size), repeat=2):
                    want += p_a[n] * p_b[m] * forms[0][i][n][m]
                assert values[i] == want

    def test_key_bound_sums_are_the_form_sums(self, rng):
        # the bound's key term of each type is bit for bit the form_values
        # sum of K_t, never negative; with both types it is their sum
        for t_arm in (1.0, 0.3, 1e-3, 1e-7):
            sarg = [key_forms(relay_yields(GYS, t_arm, qnd=qnd)) for qnd in (False, True)]
            bb84 = bb84_forms(*(relay_yields(GYS, t_arm, "bb84", b) for b in ("key", "test")))
            for forms, p in itertools.product(sarg + [bb84], rng.dirichlet([1, 1, 1], 4).tolist()):
                values = form_values(forms, p, p)
                weights = [weighted_emission(p, [0.0] * 3)[2]]
                terms = [tuple(forms[3 * t - 1][n][m] for n, m in KEY_TERMS) for t in (1, 2)]
                for t in (1, 2):
                    assert key_bound(terms[t - 1 : t], weights) == [values[3 * t - 1]]
                    assert values[3 * t - 1] >= 0
                assert key_bound(terms, weights) == [values[2] + values[5]]


class TestBb84Baseline:
    @staticmethod
    def _rate(det, t_arm, p):
        key_y, test_y = (relay_yields(det, t_arm, "bb84", basis) for basis in ("key", "test"))
        forms = bb84_forms(key_y, test_y)
        return bb84_baseline_rate(form_values(forms, p, p), 1.22)

    def test_ideal_lossless_single_photons(self):
        y = relay_yields(IDEAL, 1.0, "bb84")[1][1]
        q11 = y[0] + y[2]
        assert abs(self._rate(IDEAL, 1.0, SINGLE).total - q11) < 1e-12

    def test_zero_yields_give_zero(self):
        empty = np.zeros((3, 3, 4)).tolist()
        b = bb84_baseline_rate(form_values(bb84_forms(empty, empty), SINGLE, SINGLE), 1.22)
        assert (b.G1, b.G2, b.total, b.e_tot_1, b.e_tot_2) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_decreasing_with_distance(self):
        t_arm = [10 ** (-0.21 * (d_km / 2) / 10) for d_km in (0.0, 20.0, 40.0)]
        rates = [self._rate(GYS, t, poisson_probs(0.3, 2)).total for t in t_arm]
        assert rates[0] > rates[1] > rates[2] > 0


class TestRateOracle:
    """The quadratic forms against a term-by-term double loop over (n, m)."""

    DISTANCES = [0.0, 7.5, 45.0, 200.0]
    MUS = [0.02, 0.3, 1.0]

    @pytest.mark.parametrize(
        "scenario, photon_terms, type_selection",
        list(itertools.product(SCENARIOS, PHOTON_TERMS, TYPE_SELECTIONS)),
    )
    def test_sweep_grid_matches_oracle(self, scenario, photon_terms, type_selection):
        config = ScenarioConfig(
            scenario=scenario, photon_terms=photon_terms, type_selection=type_selection
        )
        for mu in self.MUS:
            for point in points_at(config, self.DISTANCES, mu):
                d = point.distance_km
                for field, want in oracle_point(config, d, mu).items():
                    got = getattr(point, field)
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0), (field, d, mu)


class TestRecords:
    """The records are built positionally or by keyword."""

    def test_breakdown_and_bound_by_keyword(self):
        b = KeyRateBreakdown(G1=0.1, G2=-0.2, total=0.1, ec_cost=0.3, e_tot_1=0.01, e_tot_2=0.02)
        assert tuple(b) == (0.1, -0.2, 0.1, 0.3, 0.01, 0.02)
        r = BoundResult(e_ph=0.25, s_star=1.5)
        assert (r.e_ph, r.s_star) == (0.25, 1.5)


def _arrival_setup(scenario, distance_km):
    """The arrival-space values of a scenario at one distance, and its
    emission-space forms, both from the default detector."""
    t_arm = ChannelParams(0.21, distance_km).t_arm
    thin = thinning_matrix(t_arm, 2)
    if scenario == "bb84_baseline":
        key, test = (detector_table(GYS, "bb84", basis) for basis in ("key", "test"))
        terms = bb84_key_terms(*(thinned_cell(y, thin[1], thin[1]) for y in (key, test)))
        values_at = arrival_values(arrival_forms(key, "bb84"), thin, terms)
        forms = bb84_forms(*(relay_yields(GYS, t_arm, "bb84", b) for b in ("key", "test")))
    else:
        qnd = scenario == "qnd_coherent"
        table = detector_table(GYS, qnd=qnd)
        terms = key_terms([thinned_cell(table, thin[n], thin[m]) for n, m in KEY_TERMS])
        values_at = arrival_values(arrival_forms(table), thin, terms)
        forms = key_forms(relay_yields(GYS, t_arm, qnd=qnd))
    return values_at, forms


class TestArrivalSpace:
    """The sums over arriving photons against the emission-space forms."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("distance_km", [0.0, 45.0, 200.0])
    def test_values_equal_emission_forms(self, scenario, distance_km):
        # Q_t = qᵀ S_t q with q = Bᵀp is pᵀ (B S_t Bᵀ) p summed in another
        # order; the key terms are the same sums, bit for bit
        values_at, forms = _arrival_setup(scenario, distance_km)
        for mu in (0.01, 0.05, 0.3, 1.0, 1.5):
            if scenario == "spdc_heralded":
                p = spdc_heralded(mu, GYS)[1]
            else:
                p = poisson_probs(mu, 2)
            got, _ = values_at(weighted_emission(p, [0.0] * 3))
            want = form_values(forms, p, p)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), mu
            assert (got[2], got[5]) == (want[2], want[5]), mu


class TestRateDerivative:
    """The analytic derivative of the rate in log mu against central
    differences of the independent term-by-term oracle."""

    STEP = 1e-5  # in log mu

    @staticmethod
    def _oracle(config, distance_km, mu):
        """The oracle's (rate per pump pulse, G1, G2) at mu."""
        point = oracle_point(config, distance_km, mu)
        herald = 1.0
        if config.scenario == "spdc_heralded":
            herald = spdc_heralded(mu, GYS, 2, config.spdc_pair_statistics)[0] ** 2
        return point["total"] * herald, point["G1"], point["G2"]

    @pytest.mark.parametrize(
        "scenario, pair_statistics, type_selection, photon_terms",
        list(itertools.product(SCENARIOS, ("thermal", "poisson"), TYPE_SELECTIONS, PHOTON_TERMS)),
    )
    def test_slope_matches_central_differences(
        self, scenario, pair_statistics, type_selection, photon_terms
    ):
        config = ScenarioConfig(
            scenario=scenario,
            spdc_pair_statistics=pair_statistics,
            type_selection=type_selection,
            photon_terms=photon_terms,
        )
        emission_at, rates_at = _rates(config)
        checked = 0
        for distance_km in (0.0, 45.0, 200.0):
            rate, _ = rates_at(distance_km)
            for mu in (0.01, 0.03, 0.05, 0.1, 0.3, 1.0, 1.5):
                r, terms, _, _ = rate(emission_at(mu))
                slope = sum(dg for g, dg in terms if g > 0.0)
                up, down = (
                    self._oracle(config, distance_km, mu * math.exp(s * self.STEP)) for s in (1, -1)
                )
                # a difference across a kink, where some G_t crosses 0, is no derivative
                if r <= 0.0 or any((u > 0.0) != (d > 0.0) for u, d in zip(up[1:], down[1:])):
                    continue
                central = (up[0] - down[0]) / (2 * self.STEP)
                assert slope == pytest.approx(central, rel=1e-6, abs=1e-7 * r), (distance_km, mu)
                checked += 1
        assert checked >= 8
