"""Rate assembly in arrival space against the term-by-term oracle, and
key-rate evaluation."""

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
    bb84_key_terms,
    weighted_emission,
    key_bound,
    key_fractions,
    key_terms,
)
from mdi_sarg04.optics import detector_table, thinned_cell, thinning_matrix
from mdi_sarg04.scenario import _rates, points_at
from mdi_sarg04.sources import poisson_probs, spdc_emission, spdc_heralded
from tests.rate_oracle import oracle_point, oracle_values

IDEAL = DetectorParams(eta=1.0, dark=0.0)
GYS = DetectorParams(eta=0.045, dark=8.5e-7)
SINGLE = [0.0, 1.0, 0.0]  # emission probabilities of a single-photon source
ERROR_RATE = np.vectorize(error_rate)  # elementwise over arrays of the yields
ORACLE_REL = 1e-14  # the arrival-space values against the oracle's, relative


def _arrival_setup(det, t_arm, scenario, photon_terms="up_to_two"):
    """The scenario's arrival-space values at the one-arm transmittance
    t_arm, as a sweep builds them: `weighted_emission` -> (values, slopes),
    and the distance's key terms.  The bare relay is the SPDC scenario's."""
    thin = thinning_matrix(t_arm, 2)
    if scenario == "bb84_baseline":
        key, test = (detector_table(det, "bb84", basis) for basis in ("key", "test"))
        terms = bb84_key_terms(*(thinned_cell(y, thin[1], thin[1]) for y in (key, test)))
        return arrival_values(arrival_forms(key, "bb84"), thin, terms), terms
    table = detector_table(det, qnd=scenario == "qnd_coherent")
    cells = KEY_TERMS[:1] if photon_terms == "one_one_only" else KEY_TERMS
    terms = key_terms([thinned_cell(table, thin[n], thin[m]) for n, m in cells])
    return arrival_values(arrival_forms(table), thin, terms), terms


def live_values(p, det, t_arm, scenario, photon_terms="up_to_two"):
    """[Q_1, Q_1 E_tot,1, pᵀ K_1 p, Q_2, Q_2 E_tot,2, pᵀ K_2 p] of the
    arrival-space rate at the emission probabilities p of both senders,
    checked against the oracle's term-by-term sums."""
    values_at, _ = _arrival_setup(det, t_arm, scenario, photon_terms)
    values, _ = values_at(weighted_emission(p, [0.0] * 3))
    want = oracle_values(det, t_arm, p, scenario, photon_terms)
    assert values == pytest.approx(want, rel=ORACLE_REL, abs=0.0)
    return values


def type_gains(p, det, t_arm, qnd=False):
    """Per announcement type, at emission probabilities p of both senders:
    the gains q[n, m] = p_n p_m S_t[n, m] and the bit error rates
    ebit[n, m] = E_t[n, m] / S_t[n, m] of the sifted relay yields, and the
    totals q_tot = Q_t and e_tot = Q_t E_tot,t / Q_t of the arrival-space
    rate, of the bare relay or, with `qnd`, the QND relay."""
    y = np.array(relay_yields(det, t_arm, qnd=qnd))
    values = live_values(p, det, t_arm, "qnd_coherent" if qnd else "spdc_heralded")
    p = np.asarray(p)
    gains = []
    for t in (1, 2):
        s, e = (SIFT_FACTOR[t] * y[:, :, i] for i in (2 * t - 2, 2 * t - 1))
        q_tot, errors = values[3 * t - 3 : 3 * t - 1]
        gains.append((p[:, None] * p * s, ERROR_RATE(e, s), q_tot, error_rate(errors, q_tot)))
    return gains


def one_one_fractions(e11_1=0.0, e11_2=0.0, type_selection="both"):
    """Key fractions at a single-photon source of a relay whose only yield
    is the (1,1) term, 0.04 for both types: gains 0.01 (Type1) and 0.005
    (Type2) after sifting, with bit error rates e11_1 and e11_2."""
    values = []
    for t, e_bit in ((1, e11_1), (2, e11_2)):
        q = SIFT_FACTOR[t] * 0.04
        e_ph = phase_bound((1, 1), t, e_bit).e_ph
        values += [q, q * e_bit, q * (1.0 - binary_entropy(min(e_ph, 0.5)))]
    return key_fractions(values, 1.22, INCLUDED_TYPES[type_selection])


class TestAssembleGains:
    """Gains of one pair of emission distributions, per (n, m) from the
    sifted relay yields and in total from the arrival-space rate."""

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
        # N = 4: the (n, m) axes of the relay yields grow, the cells
        # n, m <= 2 that the arrival-space rate sums stay those of N = 3, so
        # its totals are the leading 3 x 3 block of the wider gains, and the
        # bounded key terms stay the same six
        src = poisson_probs(0.4, 3)
        wide = np.array(relay_yields(GYS, 0.5, n_max=3, qnd=qnd))
        narrow = relay_yields(GYS, 0.5, qnd=qnd)
        assert wide.shape == (4, 4, 4)
        assert wide[:3, :3].tolist() == narrow
        p = np.asarray(src)
        for t, (q, ebit, q_tot, e_tot) in zip((1, 2), type_gains(src[:3], GYS, 0.5, qnd=qnd)):
            s, e = (SIFT_FACTOR[t] * wide[:, :, i] for i in (2 * t - 2, 2 * t - 1))
            q_wide = p[:, None] * p * s
            assert q_wide[:3, :3].tolist() == q.tolist()
            assert abs(q_tot - sum(q_wide[:3, :3].ravel().tolist())) <= 1e-15
            errors = sum((q_wide * ERROR_RATE(e, s))[:3, :3].ravel().tolist())
            assert abs(e_tot - errors / q_tot) <= 1e-13 * e_tot
        cells = [[grid[n][m] for n, m in KEY_TERMS] for grid in (wide.tolist(), narrow)]
        assert key_terms(cells[0]) == key_terms(cells[1])

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
        # the SPDC scenario evaluates the bare relay at the weights per pump
        # pulse, reports the joint heralding probability, and divides the
        # fractions by it: those of the conditional emission probabilities
        config = ScenarioConfig(scenario="spdc_heralded")
        p_herald, cond = spdc_heralded(0.1, GYS)
        weights = spdc_emission(0.1, GYS)[1]
        point = points_at(config, [0.0], 0.1)[0]
        assert abs(point.p_herald - p_herald**2) < 1e-15
        herald = p_herald * p_herald
        f, both = config.ec_inefficiency, INCLUDED_TYPES["both"]
        pump, bare = (
            key_fractions(live_values(p, GYS, 1.0, "spdc_heralded"), f, both)
            for p in (weights, cond)
        )
        assert (point.G1, point.G2) == (pump.G1 / herald, pump.G2 / herald)
        assert (point.G1, point.G2) == pytest.approx((bare.G1, bare.G2), rel=1e-13, abs=0.0)


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
        modes = ("up_to_two", "one_one_only")
        b_full, b_only = (
            key_fractions(live_values(src, GYS, 0.5, "spdc_heralded", terms), 1.22, (1, 2))
            for terms in modes
        )
        assert b_full.total >= b_only.total - 1e-15
        (_, full), (_, only) = (_arrival_setup(GYS, 0.5, "spdc_heralded", terms) for terms in modes)
        # the key terms keep the (1,1) term alone
        assert only == [(full[0][0], 0.0, 0.0), (full[1][0], 0.0, 0.0)]
        # with every term, Type1 keeps the mixed terms (1,2) and (2,1) too
        assert all(k > 0.0 for k in full[0])

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
        # at every distance of a sweep, each key term is its case's privacy
        # factor from a per-case bound times its sifted yield, and the terms
        # past the cases are 0
        config = ScenarioConfig(scenario=scenario, distance_step_km=step_km)
        cases = KEY_TERMS[:1] if one_one_only else KEY_TERMS
        table = detector_table(GYS, qnd=scenario == "qnd_coherent")
        for d in config.distances():
            t_arm = ChannelParams(config.loss_db_per_km, d).t_arm
            thin = thinning_matrix(t_arm, 2)
            terms = key_terms([thinned_cell(table, thin[n], thin[m]) for n, m in cases])
            y = relay_yields(GYS, t_arm, qnd=scenario == "qnd_coherent")
            for t in (1, 2):
                want = [0.0] * 3
                for i, (n, m) in enumerate(cases):
                    yld, errors = y[n][m][2 * t - 2], y[n][m][2 * t - 1]
                    e_ph = phase_bound((n, m), t, error_rate(errors, yld)).e_ph
                    want[i] = (1.0 - binary_entropy(min(e_ph, 0.5))) * (SIFT_FACTOR[t] * yld)
                assert list(terms[t - 1]) == want, (d, t)

    def test_absent_cases_skipped(self):
        # key_terms bounds exactly the cells it is given: with the (1,1)
        # cell alone, whose bit error rates are 0.01 (Type1) and 0.02
        # (Type2), the mixed terms are 0
        cell = [0.5, 0.5 * 0.01, 0.5, 0.5 * 0.02]
        want = [1.0 - binary_entropy(x) for x in (0.015, 0.06)]
        got = key_terms([cell])
        assert got == [(w * SIFT_FACTOR[t] * 0.5, 0.0, 0.0) for t, w in zip((1, 2), want)]


class TestFormValues:
    def test_values_sum_row_major_whatever_the_batch(self, rng):
        # a sweep over five distances at a shared grid of emissions, or at
        # one emission each, gives every point the values and slopes of that
        # point evaluated alone, and the values are the oracle's
        # term-by-term sums
        t_arms = rng.random(5).tolist()
        for scenario in SCENARIOS:
            sweep = [_arrival_setup(GYS, t_arm, scenario)[0] for t_arm in t_arms]
            for size in (4, 5):
                grid = rng.dirichlet([1, 1, 1], size).tolist()
                emissions = [weighted_emission(p, rng.normal(size=3).tolist()) for p in grid]
                if size == 4:
                    points = [(d, k) for d in range(5) for k in range(size)]
                else:
                    points = [(d, d) for d in range(5)]
                batch = [sweep[d](emissions[k]) for d, k in points]
                for (d, k), got in zip(points, batch):
                    alone = _arrival_setup(GYS, t_arms[d], scenario)[0](emissions[k])
                    assert got == alone
                    want = oracle_values(GYS, t_arms[d], grid[k], scenario)
                    assert got[0] == pytest.approx(want, rel=ORACLE_REL, abs=0.0)

    def test_key_bound_sums_are_the_form_sums(self, rng):
        # the bound's key term of each type is bit for bit the rate's
        # pᵀ K_t p, never negative, and the oracle's key term to within
        # rounding; with both types it is their sum
        for t_arm in (1.0, 0.3, 1e-3, 1e-7):
            for scenario, p in itertools.product(SCENARIOS, rng.dirichlet([1, 1, 1], 4).tolist()):
                values_at, terms = _arrival_setup(GYS, t_arm, scenario)
                emission = weighted_emission(p, [0.0] * 3)
                values, _ = values_at(emission)
                weights = [emission[2]]
                want = oracle_values(GYS, t_arm, p, scenario)
                for t in (1, 2):
                    assert key_bound(terms[t - 1 : t], weights) == [values[3 * t - 1]]
                    assert values[3 * t - 1] >= 0
                    assert values[3 * t - 1] == pytest.approx(want[3 * t - 1], rel=ORACLE_REL)
                assert key_bound(terms, weights) == [values[2] + values[5]]


class TestBb84Baseline:
    @staticmethod
    def _rate(det, t_arm, p):
        return bb84_baseline_rate(live_values(p, det, t_arm, "bb84_baseline"), 1.22)

    def test_ideal_lossless_single_photons(self):
        y = relay_yields(IDEAL, 1.0, "bb84")[1][1]
        q11 = y[0] + y[2]
        assert abs(self._rate(IDEAL, 1.0, SINGLE).total - q11) < 1e-12

    def test_zero_yields_give_zero(self):
        b = bb84_baseline_rate([0.0] * 6, 1.22)
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


class TestArrivalSpace:
    """The sums over arriving photons against the oracle's sums over the
    emitted photons, and their slopes in log mu against the oracle's."""

    STEP = 1e-5  # in log mu

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("distance_km", [0.0, 45.0, 200.0])
    def test_values_equal_emission_forms(self, scenario, distance_km):
        # Q_t = qᵀ S_t q with q = Bᵀp is pᵀ (B S_t Bᵀ) p summed in another
        # order; each of the six slopes, from q' = Bᵀp', is the central
        # difference of the oracle's value
        t_arm = ChannelParams(0.21, distance_km).t_arm
        values_at, _ = _arrival_setup(GYS, t_arm, scenario)
        emission_at, _ = _rates(ScenarioConfig(scenario=scenario))

        def oracle_at(mu):
            # per pump pulse: the SPDC oracle's values at the conditional
            # emission, times the joint heralding probability
            if scenario == "spdc_heralded":
                p_herald, p = spdc_heralded(mu, GYS)
                return [p_herald * p_herald * v for v in oracle_values(GYS, t_arm, p, scenario)]
            return oracle_values(GYS, t_arm, poisson_probs(mu, 2), scenario)

        for mu in (0.01, 0.05, 0.3, 1.0, 1.5):
            got, slopes = values_at(emission_at(mu))
            assert got == pytest.approx(oracle_at(mu), rel=ORACLE_REL, abs=0.0), mu
            up, down = (oracle_at(mu * math.exp(s * self.STEP)) for s in (1, -1))
            for i, (slope, value) in enumerate(zip(slopes, got)):
                central = (up[i] - down[i]) / (2 * self.STEP)
                assert slope == pytest.approx(central, rel=1e-6, abs=1e-7 * value), (mu, i)


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
                r, terms, _ = rate(emission_at(mu))
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
