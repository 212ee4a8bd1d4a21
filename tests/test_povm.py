"""POVM triples, adversarial states and bound certificates.

The package works on lists and tuples; the tests wrap its results in
`np.asarray`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdi_sarg04 import linalg
from mdi_sarg04.bounds import f_type1, g_type2
from mdi_sarg04.linalg import filter2
from mdi_sarg04.povm import (
    CASES,
    FilteredOutError,
    attack_state_22,
    block_basis,
    block_residual,
    build_povm,
    error_rates,
    project_attack_from_bell_pairs,
    to_blocks,
    verify_bound_certificate,
)
from mdi_sarg04.verify import FRONTIER_GRID, MIXED_LABELS, _contraction
from tests.conftest import random_density

ALL_TRIPLES = [(case, t) for case in CASES for t in (1, 2)]
A = np.asarray


@pytest.mark.parametrize("case,atype", ALL_TRIPLES)
class TestConstruction:
    def test_dimensions(self, case, atype):
        p = build_povm(case, atype)
        assert A(p.fil).shape == A(p.bit).shape == A(p.ph).shape == (p.dim, p.dim)
        assert p.dim == 2 ** sum(case)

    # np.linalg.eigvalsh is the oracle here, on the full space; the package
    # makes no LAPACK call
    def test_hermitian_psd(self, case, atype):
        p = build_povm(case, atype)
        for op in map(A, (p.fil, p.bit, p.ph)):
            assert np.abs(op - op.T).max() <= 1e-12
            assert np.linalg.eigvalsh(op)[0] >= -1e-10

    def test_errors_dominated_by_filter(self, case, atype):
        p = build_povm(case, atype)
        assert np.linalg.eigvalsh(A(p.fil) - p.bit)[0] >= -1e-10
        assert np.linalg.eigvalsh(A(p.fil) - p.ph)[0] >= -1e-10


class TestMemoized:
    """`build_povm` and `block_basis` hand every caller the same object, so
    it must not be writable: one write would change every later result."""

    def test_povm_is_read_only(self):
        p = build_povm((1, 2), 1)
        assert build_povm((1, 2), 1) is p
        for op in (p.fil, p.bit, p.ph):
            with pytest.raises(TypeError):
                op[0][0] = 1.0
            with pytest.raises(TypeError):
                op[0] = (1.0,) * p.dim

    def test_angle_is_part_of_the_key(self):
        p = build_povm((1, 2), 1)
        assert build_povm((1, 2), 1, np.pi / 8 + 0.0) == p
        assert build_povm((1, 2), 1, np.pi / 8 + 1e-3) != p

    def test_one_entry_per_angle_however_passed(self):
        p = build_povm((1, 2), 1)
        assert build_povm((1, 2), 1, np.pi / 8) is p
        assert build_povm((1, 2), 1, angle=np.pi / 8) is p

    def test_block_basis_is_read_only(self):
        q, kernel = block_basis((2, 1))
        assert block_basis((2, 1)) == (q, kernel)
        assert block_basis((2, 1))[0] is q
        with pytest.raises(TypeError):
            q[0][0][0] = 1.0
        with pytest.raises(TypeError):
            kernel[0] = q[0][0]


class TestInvalidInput:
    def test_bad_case(self):
        with pytest.raises(ValueError):
            build_povm((3, 1), 1)

    def test_bad_type(self):
        with pytest.raises(ValueError):
            build_povm((1, 1), 3)


class TestOneOneIdentities:
    def test_type1_phase_is_three_halves_bit(self):
        p = build_povm((1, 1), 1)
        assert np.abs(A(p.ph) - 1.5 * A(p.bit)).max() <= 1e-12

    def test_type2_slope_three_certificate(self):
        assert verify_bound_certificate((1, 1), 2, 3.0, 0.0) >= -1e-10

    def test_type2_slope_below_three_fails(self):
        assert verify_bound_certificate((1, 1), 2, 2.5, 0.0) < -1e-6


class TestMixedCaseFrontiers:
    GRID = np.round(np.arange(0.0, 5.0 + 1e-9, 0.25), 10)

    @pytest.mark.parametrize("case", [(1, 2), (2, 1)])
    def test_type1_frontier(self, case):
        for s in self.GRID:
            t = f_type1(float(s))
            assert verify_bound_certificate(case, 1, float(s), t * (1 + 1e-6)) >= -1e-9

    @pytest.mark.parametrize("case", [(1, 2), (2, 1)])
    def test_type2_frontier(self, case):
        for s in self.GRID:
            t = g_type2(float(s))
            assert verify_bound_certificate(case, 2, float(s), t * (1 + 1e-6)) >= -1e-9

    @pytest.mark.parametrize("atype,intercept", [(1, f_type1), (2, g_type2)])
    def test_frontier_is_tight_somewhere(self, atype, intercept):
        worst = min(
            verify_bound_certificate((1, 2), atype, float(s), intercept(float(s)) * (1 - 1e-2))
            for s in self.GRID
        )
        assert worst <= -1e-8

    def test_near_tight_at_unit_slope(self):
        m = verify_bound_certificate((1, 2), 1, 1.0, f_type1(1.0))
        assert -1e-9 <= m <= 0.05
        assert verify_bound_certificate((1, 2), 1, 1.0, f_type1(1.0) - 0.01) < 0


class TestBlocks:
    """The reduction to blocks of order <= 3 keeps every eigenvalue, with
    np.linalg.eigvalsh as the oracle on the full space."""

    @staticmethod
    def _blocks(case, stack: np.ndarray) -> np.ndarray:
        """`to_blocks` of each operator of a stack (n, dim, dim), shape (n, 2, k, k)."""
        return np.array([to_blocks(case, op) for op in stack.tolist()])

    @staticmethod
    def _union(blocks: np.ndarray, zeros: int) -> np.ndarray:
        """The sorted eigenvalues of the blocks (..., b, k, k) and `zeros` zeros."""
        eig = np.linalg.eigvalsh(blocks).reshape(blocks.shape[:-3] + (-1,))
        return np.sort(np.concatenate([eig, np.zeros(eig.shape[:-1] + (zeros,))], axis=-1), axis=-1)

    @pytest.mark.parametrize("offset", [0.0, 1e-3])
    def test_frontier_spectrum_is_blocks_and_kernel(self, offset):
        s = A(FRONTIER_GRID)[:, None, None]
        intercepts = {1: f_type1, 2: g_type2}
        for label, (case, atype) in MIXED_LABELS.items():
            p = build_povm(case, atype, np.pi / 8 + offset)
            t = np.array([intercepts[atype](x) for x in FRONTIER_GRID])[:, None, None]
            for factor in (1 + 1e-6, 1 - 1e-2):
                full = s * A(p.bit) + t * factor * A(p.fil) - A(p.ph)
                assert full.shape == (41, 8, 8)
                got = self._union(self._blocks(case, full), zeros=2)
                err = np.abs(got - np.linalg.eigvalsh(full)).max()
                assert err <= 1e-14, (label, factor, err)

    @pytest.mark.parametrize("offset", [0.0, 1e-3])
    def test_two_qubit_spectrum_is_parity_blocks(self, offset):
        ops = [_contraction(filter2(np.pi / 8 + offset))]
        for atype in (1, 2):
            p = build_povm((1, 1), atype, np.pi / 8 + offset)
            ops += [p.bit, p.fil, p.ph] + [s * A(p.bit) - p.ph for s in FRONTIER_GRID]
        ops = np.stack(ops)
        got = self._union(self._blocks((1, 1), ops), zeros=0)
        assert np.abs(got - np.linalg.eigvalsh(ops)).max() <= 1e-14

    @pytest.mark.parametrize("case", [(1, 1), (1, 2), (2, 1)])
    def test_basis_is_orthonormal(self, case):
        q, kernel = block_basis(case)
        rows = np.array([*q[0], *q[1], *kernel])
        assert rows.shape == (2 ** sum(case),) * 2
        assert np.abs(rows @ rows.T - np.eye(len(rows))).max() <= 1e-15

    @pytest.mark.parametrize("case", [(1, 1), (1, 2), (2, 1)])
    def test_residual_sees_a_dropped_entry(self, case):
        p = build_povm(case, 1)
        assert block_residual(case, [p.bit, p.fil, p.ph]) <= 1e-15
        q, kernel = block_basis(case)
        leak = np.outer(q[0][0], q[1][0])
        leaked = A(p.fil) + 1e-3 * (leak + leak.T)
        assert abs(block_residual(case, [leaked.tolist()]) - 1e-3) <= 1e-15
        if len(kernel):
            kept = A(p.fil) + 1e-3 * np.outer(kernel[0], kernel[0])
            assert abs(block_residual(case, [kept.tolist()]) - 1e-3) <= 1e-15

    def test_two_two_has_no_small_blocks(self):
        with pytest.raises(ValueError):
            block_basis((2, 2))
        with pytest.raises(ValueError):
            verify_bound_certificate((2, 2), 1, 1.0, 1.0)


class TestCertificateAtAngle:
    """`verify_bound_certificate` at a filter angle against np.linalg.eigvalsh
    on the blocks Q_b M Q_bᵀ of the full operator M = s*bit + t*fil - ph: at
    t = 0 for (1,1) Type2, and at both frontier sides for (1,2) and (2,1)."""

    @pytest.mark.parametrize("offset", [0.0, 1e-3])
    @pytest.mark.parametrize("case,atype", [((1, 1), 2), ((1, 2), 1), ((1, 2), 2), ((2, 1), 1), ((2, 1), 2)])
    def test_matches_blocks_of_full_operator(self, case, atype, offset):
        angle = np.pi / 8 + offset
        p = build_povm(case, atype, angle)
        q = [A(rows) for rows in block_basis(case)[0]]
        intercept = f_type1 if atype == 1 else g_type2
        for s in FRONTIER_GRID:
            ts = [0.0] if case == (1, 1) else [intercept(s) * f for f in (1 + 1e-6, 1 - 1e-2)]
            for t in ts:
                full = s * A(p.bit) + t * A(p.fil) - A(p.ph)
                want = min(np.linalg.eigvalsh(qb @ full @ qb.T)[0] for qb in q)
                got = verify_bound_certificate(case, atype, s, t, angle)
                assert abs(got - want) <= 1e-14, (s, t, got - want)


class TestErrorRates:
    def test_maximally_mixed_matches_traces(self):
        p = build_povm((1, 1), 1)
        rho = np.eye(4, dtype=complex) / 4
        r = error_rates(p, rho)
        assert abs(r.e_bit - np.trace(p.bit).real / np.trace(p.fil).real) < 1e-12
        assert abs(r.p_fil - np.trace(p.fil).real / 4) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            error_rates(build_povm((1, 1), 1), np.eye(8) / 8)

    def test_filtered_out_state_raises(self):
        p = build_povm((1, 1), 1)
        # the filter image never contains |1x 1x> components only when the
        # state is orthogonal to all rotated filter columns; the zero
        # matrix is the trivially filtered-out "state"
        with pytest.raises(FilteredOutError):
            error_rates(p, np.zeros((4, 4), dtype=complex))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(ALL_TRIPLES))
    def test_error_traces_never_exceed_filter(self, seed, triple):
        case, atype = triple
        p = build_povm(case, atype)
        rho = random_density(p.dim, seed)
        p_fil = np.trace(A(p.fil) @ rho).real
        assert np.trace(A(p.bit) @ rho).real <= p_fil + 1e-10
        assert np.trace(A(p.ph) @ rho).real <= p_fil + 1e-10


class TestTwoTwoAttack:
    def test_mu_states_normalized_and_orthogonal(self):
        mu1, mu2 = attack_state_22(1, 1), attack_state_22(1, 2)
        assert abs(np.linalg.norm(mu1) - 1) < 1e-12
        assert abs(np.linalg.norm(mu2) - 1) < 1e-12
        assert abs(np.vdot(mu1, mu2)) < 1e-12

    def test_nu_states_pairwise_orthogonal(self):
        nus = [attack_state_22(2, w) for w in (1, 2, 3, 4)]
        for a in range(4):
            assert abs(np.linalg.norm(nus[a]) - 1) < 1e-12
            for b in range(a + 1, 4):
                assert abs(np.vdot(nus[a], nus[b])) < 1e-12

    def test_type1_attack_error_rates(self):
        p = build_povm((2, 2), 1)
        r1 = error_rates(p, linalg.projector(attack_state_22(1, 1)))
        r2 = error_rates(p, linalg.projector(attack_state_22(1, 2)))
        assert abs(r1.e_bit) <= 1e-12 and abs(r1.e_ph - 0.5) <= 1e-12
        assert abs(r2.e_bit - 0.5) <= 1e-12 and abs(r2.e_ph - 0.5) <= 1e-12

    def test_type2_mixture_error_rates(self):
        p = build_povm((2, 2), 2)
        nus = [attack_state_22(2, w) for w in (1, 2, 3, 4)]
        proj = [A(linalg.projector(nu)) for nu in nus]
        ra = error_rates(p, 0.25 * proj[0] + 0.75 * proj[1])
        rb = error_rates(p, 0.75 * proj[2] + 0.25 * proj[3])
        assert abs(ra.e_bit) <= 1e-12 and abs(ra.e_ph - 0.5) <= 1e-12
        assert abs(rb.e_bit - 0.5) <= 1e-12 and abs(rb.e_ph - 0.5) <= 1e-12

    @pytest.mark.parametrize("atype,which", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (2, 4)])
    def test_bell_pair_projection(self, atype, which):
        proj = project_attack_from_bell_pairs(atype, which)
        p_succ = float(np.vdot(proj, proj).real)
        assert abs(p_succ - 1 / 16) <= 1e-12
        # the heralded state is the attack state itself, scaled by 1/4
        target = A(attack_state_22(atype, which)) / 4
        assert np.abs(proj - target).max() <= 1e-12

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            attack_state_22(1, 3)
        with pytest.raises(ValueError):
            attack_state_22(2, 5)
