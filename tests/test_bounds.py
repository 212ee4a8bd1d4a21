"""Entropy, bound intercepts f/g, and the minimized phase-error bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdi_sarg04.bounds import (
    S_MAX,
    BoundResult,
    binary_entropy,
    cubic_value,
    f_type1,
    g_type2,
    golden_section_minimize,
    phase_bound,
)

# independently evaluated at 40 decimal digits
H_011 = 0.4999159581645279956404996


class TestBinaryEntropy:
    def test_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_high_precision_point(self):
        assert abs(binary_entropy(0.11) - H_011) <= 1e-12

    def test_symmetry(self):
        for x in (0.1, 0.3, 0.47):
            assert abs(binary_entropy(x) - binary_entropy(1 - x)) < 1e-14

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.1)
        with pytest.raises(ValueError):
            binary_entropy(-0.1)


class TestTypeOneIntercept:
    def test_value_at_zero(self):
        assert abs(f_type1(0.0) - (3 + math.sqrt(6)) / 6) < 1e-15

    def test_discriminant_minimum_positive(self):
        s = 3 * math.sqrt(2) / 4
        disc = 6 - 6 * math.sqrt(2) * s + 4 * s * s
        assert abs(disc - 1.5) < 1e-12

    def test_monotone_decreasing(self):
        grid = np.arange(0.0, 10.0, 0.05)
        vals = [f_type1(s) for s in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_bound_expression_convex_in_s(self):
        e = 0.07
        grid = np.arange(0.0, 5.0, 0.1)
        vals = [s * e + f_type1(s) for s in grid]
        second = np.diff(vals, 2)
        assert second.min() >= -1e-12

    def test_continuity(self):
        for s in np.arange(0.0, 10.0, 0.25):
            assert abs(f_type1(s + 1e-6) - f_type1(s)) <= 1e-4


class TestTypeTwoIntercept:
    def test_value_at_zero(self):
        assert abs(g_type2(0.0) - 1.0) <= 1e-10

    @pytest.mark.parametrize("s", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_residual(self, s):
        assert abs(cubic_value(s, g_type2(s))) <= 1e-10

    @pytest.mark.parametrize("s", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_is_maximal_root(self, s):
        from mdi_sarg04.bounds import _cubic_coeffs

        roots = np.roots(_cubic_coeffs(s))
        real = roots[np.abs(roots.imag) < 1e-8].real
        assert abs(g_type2(s) - real.max()) < 1e-9

    def test_continuity(self):
        for s in np.arange(0.0, 10.0, 0.25):
            assert abs(g_type2(s + 1e-6) - g_type2(s)) <= 1e-4

    def test_negative_slope_rejected(self):
        with pytest.raises(ValueError):
            g_type2(-0.5)


class TestGoldenSection:
    def test_quadratic_minimum(self):
        x, fx = golden_section_minimize(lambda x: (x - 1.3) ** 2 + 2.0, 0.0, 4.0, 1e-8)
        assert abs(x - 1.3) < 1e-6
        assert abs(fx - 2.0) < 1e-12


class TestPhaseBound:
    def test_one_one_closed_forms(self):
        assert abs(phase_bound((1, 1), 1, 0.1).e_ph - 0.15) < 1e-15
        assert abs(phase_bound((1, 1), 2, 0.1).e_ph - 0.3) < 1e-15
        assert phase_bound((1, 1), 2, 0.0).e_ph == 0.0

    def test_one_one_clamped_to_one(self):
        assert phase_bound((1, 1), 2, 0.9).e_ph == 1.0

    def test_mixed_zero_error_is_intercept_minimum(self):
        dense = min(f_type1(s) for s in np.arange(0.0, 10.0, 1e-4))
        assert abs(phase_bound((1, 2), 1, 0.0).e_ph - dense) <= 1e-6

    @pytest.mark.parametrize("t, intercept", [(1, f_type1), (2, g_type2)])
    def test_window_edges_are_exact(self, t, intercept):
        # e = 0: the objective decreases across the whole window
        r = phase_bound((1, 2), t, 0.0)
        assert r.s_star == S_MAX
        assert r.e_ph == intercept(S_MAX)
        # e = 0.9: the objective increases across the whole window
        assert phase_bound((1, 2), t, 0.9).s_star == 0.0

    def test_role_swapped_case_matches(self):
        for e in (0.0, 0.03, 0.12):
            for t in (1, 2):
                a = phase_bound((1, 2), t, e).e_ph
                b = phase_bound((2, 1), t, e).e_ph
                assert abs(a - b) < 1e-12

    def test_result_structure(self):
        r = phase_bound((1, 2), 2, 0.05)
        assert isinstance(r, BoundResult)
        assert r.s_star >= 0

    def test_min_property_never_above_probes(self):
        for t, intercept in ((1, f_type1), (2, g_type2)):
            r = phase_bound((1, 2), t, 0.07)
            for s in np.arange(0.0, 10.0, 0.37):
                assert r.e_ph <= s * 0.07 + intercept(s) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.0, 1.0),
        st.sampled_from([((1, 1), 1), ((1, 1), 2), ((1, 2), 1), ((1, 2), 2), ((2, 1), 1)]),
    )
    def test_clamped_to_unit_interval(self, e, case_type):
        case, t = case_type
        r = phase_bound(case, t, e)
        assert 0.0 <= r.e_ph <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.0, 0.49),
        st.floats(0.001, 0.01),
        st.sampled_from([((1, 1), 1), ((1, 1), 2), ((1, 2), 1), ((1, 2), 2)]),
    )
    def test_nondecreasing_in_bit_error(self, e, de, case_type):
        case, t = case_type
        lo = phase_bound(case, t, e).e_ph
        hi = phase_bound(case, t, e + de).e_ph
        assert hi >= lo - 1e-9

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            phase_bound((1, 2), 1, 1.5)
        with pytest.raises(ValueError):
            phase_bound((2, 2), 1, 0.1)
        with pytest.raises(ValueError):
            phase_bound((1, 2), 3, 0.1)
