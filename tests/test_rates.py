"""Gain assembly and key-rate evaluation."""

import numpy as np
import pytest

from mdi_sarg04.bounds import phase_bound
from mdi_sarg04.config import ConfigError, ScenarioConfig
from mdi_sarg04.optics import DetectorParams
from mdi_sarg04.rates import (
    INCLUDED_TYPES,
    GainTable,
    SIFT_FACTOR,
    TypeGains,
    assemble_gains,
    bb84_baseline_rate,
    fractions_from_factors,
    phase_bounds,
    privacy_factors,
)
from mdi_sarg04.scenario import evaluate_gains, rate_at
from mdi_sarg04.sources import poisson_source, spdc_heralded

IDEAL = DetectorParams(eta=1.0, dark=0.0)
GYS = DetectorParams(eta=0.045, dark=8.5e-7)
SINGLE = np.array([0.0, 1.0, 0.0])  # emission probabilities of a single-photon source


def solved_fractions(gains, ec_inefficiency, one_one_only=False, type_selection="both"):
    """Key fractions of one gain table, with its phase-error bounds solved."""
    factors = privacy_factors(phase_bounds(gains, one_one_only))
    return fractions_from_factors(gains, factors, ec_inefficiency, INCLUDED_TYPES[type_selection])


class TestAssembleGains:
    def test_ideal_single_photons_error_free(self):
        g = assemble_gains(SINGLE, SINGLE, IDEAL, 1.0)
        assert abs(g.type1.e_tot) <= 1e-12
        assert abs(g.type2.e_tot) <= 1e-12
        # only the (1,1) entry carries weight
        assert abs(g.type1.q_tot - g.type1.q[(1, 1)]) <= 1e-15

    def test_sift_factors_applied(self):
        g = assemble_gains(SINGLE, SINGLE, IDEAL, 1.0)
        # ideal (1,1) relay yield is 1/8 per type before sifting
        assert abs(g.type1.q[(1, 1)] - SIFT_FACTOR[1] * 0.125) < 1e-12
        assert abs(g.type2.q[(1, 1)] - SIFT_FACTOR[2] * 0.125) < 1e-12

    def test_error_floor_near_quarter(self):
        src = poisson_source(0.01)
        g = assemble_gains(src, src, IDEAL, 1.0)
        assert 0.24 <= g.type1.e_tot <= 0.26
        assert 0.24 <= g.type2.e_tot <= 0.26

    def test_two_photon_gain_ratios(self):
        src = poisson_source(0.01)
        g = assemble_gains(src, src, IDEAL, 1.0)
        for t in (g.type1, g.type2):
            assert abs(t.q[(1, 1)] / 2 / t.q[(2, 0)] - 1) < 0.1
            assert abs(t.q[(2, 0)] / t.q[(0, 2)] - 1) < 1e-9

    def test_totals_consistent(self):
        src = poisson_source(0.3)
        g = assemble_gains(src, src, GYS, 0.5)
        for t in (g.type1, g.type2):
            assert abs(t.q_tot - sum(t.q.values())) <= 1e-15
            weighted = sum(t.q[nm] * t.ebit[nm] for nm in t.q)
            assert abs(t.e_tot - weighted / t.q_tot) <= 1e-12

    def test_symmetric_source_symmetric_gains(self):
        src = poisson_source(0.2)
        g = assemble_gains(src, src, GYS, 0.6)
        for t in (g.type1, g.type2):
            for n in range(3):
                for m in range(3):
                    assert abs(t.q[(n, m)] - t.q[(m, n)]) <= 1e-15

    def test_qnd_zero_loss_kills_multiphoton_arrivals(self):
        src = poisson_source(0.5)
        g = assemble_gains(src, src, GYS, 1.0, qnd=True)
        assert g.type1.q[(1, 2)] == 0.0
        assert g.type1.q[(2, 1)] == 0.0
        assert g.type2.q[(1, 2)] == 0.0

    def test_qnd_rejects_heralded_source(self):
        # heralded sources meet the bare relay: with no loss, multiphoton
        # arrivals keep the gain the postselection would remove
        g = evaluate_gains(ScenarioConfig(scenario="spdc_heralded"), 0.0, 0.1)
        assert g.type1.q[(1, 2)] > 0.0 and g.type2.q[(2, 1)] > 0.0

    def test_heralded_probability_reported(self):
        p_herald, cond = (v[0] for v in spdc_heralded([0.1], GYS))
        g = evaluate_gains(ScenarioConfig(scenario="spdc_heralded"), 0.0, 0.1)
        assert abs(g.herald_probability - p_herald**2) < 1e-15
        bare = assemble_gains(cond, cond, GYS, 1.0)
        assert g.type1.q == bare.type1.q and g.type2.q == bare.type2.q


class TestKeyRate:
    @staticmethod
    def _table(q11_1=0.01, e11_1=0.0, q11_2=0.005, e11_2=0.0):
        t1 = TypeGains(q={(1, 1): q11_1}, ebit={(1, 1): e11_1}, q_tot=q11_1, e_tot=e11_1)
        t2 = TypeGains(q={(1, 1): q11_2}, ebit={(1, 1): e11_2}, q_tot=q11_2, e_tot=e11_2)
        return GainTable(type1=t1, type2=t2)

    def test_error_free_single_term_keeps_everything(self):
        b = solved_fractions(self._table(), ec_inefficiency=1.22)
        assert abs(b.G1 - 0.01) < 1e-15
        assert abs(b.G2 - 0.005) < 1e-15
        assert abs(b.total - 0.015) < 1e-15

    def test_saturated_phase_error_loses_key(self):
        # (1,1) Type2 phase bound is 3 e_bit: e_bit = 0.2 saturates it
        b = solved_fractions(self._table(e11_2=0.2), ec_inefficiency=1.22)
        assert b.G2 < 0
        assert abs(b.total - max(b.G1, 0.0)) < 1e-15

    def test_negative_terms_clamped_in_total_only(self):
        b = solved_fractions(self._table(e11_1=0.4, e11_2=0.4), ec_inefficiency=1.22)
        assert b.G1 < 0 and b.G2 < 0
        assert b.total == 0.0

    def test_one_one_only_drops_mixed_terms(self):
        src = poisson_source(0.5)
        g = assemble_gains(src, src, GYS, 0.5)
        full = solved_fractions(g, 1.22)
        only = solved_fractions(g, 1.22, one_one_only=True)
        assert full.total >= only.total - 1e-15
        assert all(nm == (1, 1) for (_, nm) in only.contributions)

    def test_type_selection(self):
        b_both = solved_fractions(self._table(), 1.22)
        b_t1 = solved_fractions(self._table(), 1.22, type_selection="type1_only")
        b_t2 = solved_fractions(self._table(), 1.22, type_selection="type2_only")
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
        # the (1,2) and (2,1) bounds of a type come from one stacked call
        config = ScenarioConfig(scenario=scenario, distance_step_km=step_km)
        distances = config.distances()
        gains = rate_at(config, distances)(np.full((len(distances), 1), 0.3))[1]
        bounds = phase_bounds(gains, one_one_only)
        cases = [(1, 1)] if one_one_only else [(1, 1), (1, 2), (2, 1)]
        assert list(bounds) == [(t, nm) for t in (1, 2) for nm in cases]
        for (t, nm), e_ph in bounds.items():
            ebit = gains.for_type(t).ebit[nm]
            assert ebit.shape == (len(distances), 1)
            assert e_ph.tolist() == phase_bound(nm, t, ebit).e_ph.tolist()

    def test_absent_cases_skipped(self):
        bounds = phase_bounds(TestKeyRate._table(e11_1=0.01, e11_2=0.02))
        assert bounds == {(1, (1, 1)): 0.015, (2, (1, 1)): 0.06}


class TestBb84Baseline:
    def test_ideal_lossless_single_photons(self):
        kg = assemble_gains(SINGLE, SINGLE, IDEAL, 1.0, protocol="bb84")
        tg = assemble_gains(SINGLE, SINGLE, IDEAL, 1.0, protocol="bb84", bb84_basis="test")
        r = bb84_baseline_rate(kg, tg, 1.22)
        q11 = kg.type1.q[(1, 1)] + kg.type2.q[(1, 1)]
        assert abs(r - q11) < 1e-12

    def test_zero_yields_give_zero(self):
        empty = TypeGains(q={(1, 1): 0.0}, ebit={(1, 1): 0.5}, q_tot=0.0, e_tot=0.0)
        g = GainTable(type1=empty, type2=empty, protocol="bb84")
        assert bb84_baseline_rate(g, g, 1.22) == 0.0

    def test_decreasing_with_distance(self):
        src = poisson_source(0.3)
        rates = []
        for d_km in (0.0, 20.0, 40.0):
            t = 10 ** (-0.21 * (d_km / 2) / 10)
            kg = assemble_gains(src, src, GYS, t, protocol="bb84")
            tg = assemble_gains(src, src, GYS, t, protocol="bb84", bb84_basis="test")
            rates.append(bb84_baseline_rate(kg, tg, 1.22))
        assert rates[0] > rates[1] > rates[2] > 0
