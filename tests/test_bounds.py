"""Entropy, bound intercepts f/g, and the minimized phase-error bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdi_sarg04 import bounds
from mdi_sarg04.bounds import (
    S_MAX,
    BoundResult,
    CubicRootError,
    _cubic_coeffs,
    _depressed_cubic,
    binary_entropy,
    cubic_value,
    f_type1,
    g_type2,
    phase_bound,
)
from tests.golden_search import golden_section_minimize

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

    def test_tolerance_band(self):
        # arguments within 1e-12 of [0, 1] are taken as its ends; beyond, they raise
        assert [binary_entropy(x) for x in (0.0, 1.0, -1e-12, 1 + 1e-12)] == [0.0] * 4
        for bad in (-2e-12, 1 + 2e-12, 1.1):
            with pytest.raises(ValueError):
                binary_entropy(bad)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1e-12, 1 + 1e-12), min_size=1, max_size=50))
    def test_array_equals_float_calls(self, xs):
        # the entropy a sweep row takes of a numpy float equals that of the float alone
        h = [binary_entropy(x) for x in np.array(xs)]
        assert h == [binary_entropy(x) for x in xs]
        assert all(type(v) in (float, np.float64) for v in h)

    def test_matches_log2_reference(self):
        tails = [np.geomspace(1e-300, 0.5, 301), 1 - np.geomspace(1e-16, 0.5, 201)]
        x = np.concatenate(tails + [np.linspace(0, 1, 1001)[1:-1]])
        for v, h in zip(x.tolist(), [binary_entropy(v) for v in x.tolist()]):
            reference = -v * math.log2(v) - (1 - v) * math.log2(1 - v)
            assert math.isclose(h, reference, rel_tol=1e-15), v


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
        with pytest.raises(ValueError):
            g_type2(np.float64(-0.5))
        with pytest.raises(ValueError):
            g_type2(np.nan)

    def test_batched_equals_scalar_root(self):
        # s = 0 and s = 1 zero the constant coefficient, which np.roots strips
        s = np.concatenate(
            [[0.0, 1e-6, 1.0, S_MAX - 1e-6, S_MAX], np.random.default_rng(5).uniform(0, S_MAX, 200)]
        )
        # a sweep over slopes equals the same slope alone, as float or numpy float
        batched = [g_type2(x) for x in s]
        assert batched == [g_type2(x) for x in s.tolist()]
        # oracle: the companion-matrix eigenvalues of np.roots, slope by slope
        for x, g in zip(s.tolist(), batched):
            roots = np.roots(_cubic_coeffs(x))
            assert abs(g - roots[np.abs(roots.imag) < 1e-8].real.max()) <= 1e-14, x

    def test_residual_across_window(self):
        s = np.linspace(0.0, S_MAX, 100_001).tolist()
        assert max(abs(cubic_value(x, g_type2(x))) for x in s) <= 1e-14

    def test_smaller_root_rejected(self, monkeypatch):
        # the middle root has zero residual; only the maximality certificate catches it
        def middle_root(coeffs):
            return float(np.sort(np.roots(coeffs).real)[1])

        monkeypatch.setattr(bounds, "_max_real_root_cardano", middle_root)
        with pytest.raises(CubicRootError, match="not the largest"):
            [g_type2(x) for x in np.linspace(0.0, S_MAX, 10).tolist()]
        with pytest.raises(CubicRootError, match="not the largest"):
            g_type2(2.0)

    def test_offset_root_rejected(self, monkeypatch):
        cardano = bounds._max_real_root_cardano
        monkeypatch.setattr(bounds, "_max_real_root_cardano", lambda coeffs: cardano(coeffs) + 1e-6)
        with pytest.raises(CubicRootError, match="residual too large"):
            [g_type2(x) for x in np.linspace(0.0, S_MAX, 10).tolist()]

    def test_certified_at_large_slopes(self):
        # the coefficients grow as s^2: an absolute residual bound of 1e-10
        # once rejected correct roots from s = 862.07 on
        s = np.linspace(0.0, 1e4, 100_001)
        a3, a2, a1, a0 = np.broadcast_arrays(*_cubic_coeffs(s))
        # np.roots' companion matrices, every slope in one call; all roots are real
        companion = np.zeros((s.size, 3, 3))
        companion[:, 0] = -np.stack([a2, a1, a0], axis=-1) / a3[:, None]
        companion[:, 1, 0] = companion[:, 2, 1] = 1.0
        largest = np.linalg.eigvals(companion).real.max(axis=-1)
        assert np.abs(np.array([g_type2(x) for x in s.tolist()]) - largest).max() <= 1e-14

    def test_three_real_roots_for_every_slope(self):
        # Cardano's trigonometric form holds where (q/2)^2 + (p/3)^3 < 0
        s = np.concatenate([np.linspace(0.0, 10.0, 10_001), np.geomspace(10.0, 1e6, 10_001)])
        _, p, q = _depressed_cubic(*_cubic_coeffs(s))
        disc = (q / 2) ** 2 + (p / 3) ** 3
        exact = -(4 * s**6 - 10 * s**4 + 39 * s**2 + 1) / 6912
        assert (np.abs(disc - exact) <= 1e-12 * np.abs(exact)).all()
        assert (disc < 0).all()


class TestGoldenSection:
    def test_quadratic_minimum(self):
        x, fx = golden_section_minimize(lambda x: (x - 1.3) ** 2 + 2.0, 0.0, 4.0, 1e-8)
        assert type(x) is type(fx) is float
        assert abs(x - 1.3) < 1e-6
        assert abs(fx - 2.0) < 1e-12

    def test_last_call_is_at_returned_point(self):
        calls = []

        def fun(x):
            calls.append(x)
            return (x - 1.3) ** 2

        x, _ = golden_section_minimize(fun, 0.0, 4.0, 1e-6)
        assert calls[-1] == x


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

    @pytest.mark.parametrize("t", [1, 2])
    def test_array_equals_scalar(self, t):
        # the bounds of a sweep over error rates, as numpy floats, equal each
        # rate's bound alone, for both role-swapped cases
        e = np.linspace(0.0, 1.0, 1001)
        scalar = [phase_bound((1, 2), t, x) for x in e.tolist()]
        for case in ((1, 2), (2, 1)):
            r = [phase_bound(case, t, x) for x in e]
            assert [b.e_ph for b in r] == [b.e_ph for b in scalar]
            assert [b.s_star for b in r] == [b.s_star for b in scalar]
        grid = [[phase_bound((1, 2), t, x).e_ph for x in row] for row in e.reshape(77, 13)]
        assert grid == np.reshape([b.e_ph for b in scalar], (77, 13)).tolist()

    @pytest.mark.parametrize("case", [(1, 2), (2, 1)])
    @pytest.mark.parametrize("t, intercept", [(1, f_type1), (2, g_type2)])
    def test_stationary_slope_against_golden_search(self, case, t, intercept):
        # oracle: golden-section search over the whole window to 1e-6, the
        # objective at a feasible slope and so itself a valid bound
        e = np.linspace(0.0, 1.0, 1001)
        golden = np.array(
            [golden_section_minimize(lambda s: s * x + intercept(s), 0, S_MAX, 1e-6)[1] for x in e]
        )
        golden = np.clip(golden, 0.0, 1.0)
        r = BoundResult(*np.array([phase_bound(case, t, x) for x in e.tolist()]).T)
        key = golden < 0.5
        assert (r.e_ph[key] <= golden[key] + 1e-15).all()
        # e_ph >= 0.5 carries no key
        assert (r.e_ph[~key] <= golden[~key] + 1e-14).all()
        assert ((0.0 <= r.s_star) & (r.s_star <= S_MAX)).all()
        intercepts = np.array([intercept(s) for s in r.s_star.tolist()])
        assert r.e_ph.tolist() == np.clip(r.s_star * e + intercepts, 0.0, 1.0).tolist()
        if t == 1:
            # inside the window f'(s) = -e has the closed-form minimum
            inside = (0.0 < r.s_star) & (r.s_star < S_MAX)
            c = 1 - 3 * e[inside]
            closed = 0.5 + (np.sqrt(6 * (1 - c * c)) - 3 * math.sqrt(2) * c) / 12
            assert np.abs(r.e_ph[inside] - closed).max() <= 1e-14

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            phase_bound((1, 2), 1, np.float64(1.5))
        with pytest.raises(ValueError):
            phase_bound((1, 2), 1, 1.5)
        with pytest.raises(ValueError):
            phase_bound((2, 2), 1, 0.1)
        with pytest.raises(ValueError):
            phase_bound((1, 2), 3, 0.1)
