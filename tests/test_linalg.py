"""State/operator constructors and small-matrix utilities.

The package works on lists; the tests wrap its results in `np.asarray`."""

import math
import warnings

import numpy as np
import pytest

from mdi_sarg04 import linalg
from mdi_sarg04.linalg import (
    basis_ket,
    bell_state,
    block_min_eigenvalue,
    filter1,
    filter2,
    kron,
    partial_project,
    permute_qubits,
    phi_state,
    projector,
    rotation,
)

COS8 = math.cos(math.pi / 8)
SIN8 = math.sin(math.pi / 8)
A = np.asarray


class TestBasisKets:
    def test_x_basis_is_computational(self):
        np.testing.assert_allclose(basis_ket("0x"), [1, 0])
        np.testing.assert_allclose(basis_ket("1x"), [0, 1])

    def test_z_from_x_superposition(self):
        np.testing.assert_allclose(
            basis_ket("0z"), (A(basis_ket("0x")) + basis_ket("1x")) / math.sqrt(2)
        )
        np.testing.assert_allclose(
            basis_ket("1z"), (A(basis_ket("0x")) - basis_ket("1x")) / math.sqrt(2)
        )

    def test_orthonormality(self):
        for a, b in (("0x", "1x"), ("0z", "1z")):
            assert abs(np.vdot(basis_ket(a), basis_ket(b))) < 1e-15
        for lbl in ("0x", "1x", "0z", "1z"):
            assert abs(np.linalg.norm(basis_ket(lbl)) - 1) < 1e-15

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            basis_ket("0y")


class TestSignalStates:
    def test_closed_forms(self):
        np.testing.assert_allclose(phi_state(0), [COS8, SIN8])
        np.testing.assert_allclose(phi_state(1), [COS8, -SIN8])
        np.testing.assert_allclose(phi_state(2), [SIN8, -COS8])
        np.testing.assert_allclose(phi_state(3), [SIN8, COS8])

    def test_neighbor_overlap_is_inv_sqrt2(self):
        assert abs(abs(np.vdot(phi_state(0), phi_state(1))) - 1 / math.sqrt(2)) < 1e-15

    def test_opposite_states_orthogonal(self):
        assert abs(np.vdot(phi_state(0), phi_state(2))) < 1e-15
        assert abs(np.vdot(phi_state(1), phi_state(3))) < 1e-15

    def test_normalized(self):
        for i in range(4):
            assert abs(np.linalg.norm(phi_state(i)) - 1) < 1e-15

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            phi_state(4)


class TestRotation:
    def test_cycles_signal_states(self):
        for i in range(4):
            ov = np.vdot(phi_state((i + 1) % 4), A(rotation(1)) @ phi_state(i))
            assert abs(abs(ov) - 1) < 1e-12

    def test_sign_convention(self):
        np.testing.assert_allclose(A(rotation(1)) @ phi_state(0), phi_state(1), atol=1e-15)

    def test_power_zero_is_identity(self):
        np.testing.assert_allclose(rotation(0), np.eye(2))

    def test_fourth_power_is_minus_identity_ray(self):
        r4 = A(rotation(1)) @ rotation(3)
        assert min(np.abs(r4 - np.eye(2)).max(), np.abs(r4 + np.eye(2)).max()) < 1e-12

    def test_orthogonal(self):
        for k in range(4):
            rk = A(rotation(k))
            np.testing.assert_allclose(rk @ rk.conj().T, np.eye(2), atol=1e-12)

    def test_bad_power_rejected(self):
        with pytest.raises(ValueError):
            rotation(5)


class TestFilters:
    def test_filter1_diagonal_action(self):
        np.testing.assert_allclose(A(filter1()) @ basis_ket("0x"), COS8 * A(basis_ket("0x")))
        np.testing.assert_allclose(A(filter1()) @ basis_ket("1x"), SIN8 * A(basis_ket("1x")))

    def test_filter2_on_psi_plus(self):
        out = A(filter2()) @ bell_state("psi_plus")
        assert abs(np.linalg.norm(out) - 0.5) < 1e-15

    def test_filter2_on_1x0x(self):
        # third term's bra has overlap <psi+|1x0x> = 1/sqrt(2), so the
        # image is cos(pi/8) sin(pi/8) |1x0x>
        out = A(filter2()) @ kron(basis_ket("1x"), basis_ket("0x"))
        expect = COS8 * SIN8 * A(kron(basis_ket("1x"), basis_ket("0x")))
        np.testing.assert_allclose(out, expect, atol=1e-15)

    def test_contractions(self):
        for f in map(A, (filter1(), filter2())):
            m = np.linalg.eigvalsh(np.eye(f.shape[0]) - f.conj().T @ f)[0]
            assert m >= -1e-12


class TestBellStates:
    def test_orthogonal(self):
        assert abs(np.vdot(bell_state("psi_minus"), bell_state("psi_plus"))) < 1e-15

    def test_psi_plus_invariant_under_half_turn(self):
        r2 = A(kron(rotation(2), rotation(2)))
        ov = np.vdot(bell_state("psi_plus"), r2 @ bell_state("psi_plus"))
        assert abs(abs(ov) - 1) < 1e-12

    def test_psi_minus_invariant_under_all_rotations(self):
        for k in range(4):
            rk = A(kron(rotation(k), rotation(k)))
            ov = np.vdot(bell_state("psi_minus"), rk @ bell_state("psi_minus"))
            assert abs(abs(ov) - 1) < 1e-12

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            bell_state("phi_minus")


class TestKron:
    def test_identity_factors(self):
        np.testing.assert_allclose(kron(np.eye(2).tolist(), np.eye(2).tolist()), np.eye(4))

    def test_vector_layout_matches_indexing(self):
        v = kron(basis_ket("0x"), basis_ket("1x"))
        expect = np.zeros(4)
        expect[1] = 1  # |0x 1x> sits at binary index 01
        np.testing.assert_allclose(v, expect)

    def test_associativity(self):
        a, b, c = phi_state(0), phi_state(1), phi_state(2)
        np.testing.assert_allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-15)


class TestMinEigenvalue:
    """`block_min_eigenvalue`, the closed forms of order 1 to 3, one matrix
    (a list of rows) at a time."""

    def test_identity(self):
        for k in (1, 2, 3):
            assert abs(block_min_eigenvalue(np.eye(k).tolist()) - 1) < 1e-12

    def test_diagonal(self):
        assert abs(block_min_eigenvalue(np.diag([2.0, -3.0]).tolist()) + 3) < 1e-12
        assert abs(block_min_eigenvalue(np.diag([2.0, 5.0, -3.0]).tolist()) + 3) < 1e-12

    def test_rank_one_projector(self):
        assert abs(block_min_eigenvalue(projector(basis_ket("0z")))) < 1e-12
        assert abs(block_min_eigenvalue(projector(np.array([1.0, -2.0, 2.0]) / 3))) < 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            block_min_eigenvalue([[0.0, 1.0], [0.0, 0.0]])

    def test_complex_rejected(self):
        with pytest.raises(ValueError):
            block_min_eigenvalue((np.eye(2) + 0j).tolist())

    def test_order_above_three_rejected(self):
        assert block_min_eigenvalue(np.eye(3).tolist()) == 1.0
        with pytest.raises(ValueError):
            block_min_eigenvalue(np.eye(4).tolist())

    @staticmethod
    def _each(stack) -> np.ndarray:
        """The smallest eigenvalue of each matrix of a stack (n, k, k)."""
        return np.array([block_min_eigenvalue(h) for h in stack.tolist()])

    @pytest.mark.parametrize("dtype", [float, np.float32])
    def test_random_stacks_match_eigvalsh(self, rng, dtype):
        # np.linalg.eigvalsh is the oracle here; the package makes no LAPACK
        # call; float32 entries are taken as floats
        for n in (1, 2, 3):
            a = rng.normal(size=(2000, n, n))
            stack = (a + a.swapaxes(-1, -2)).astype(dtype)
            want = np.linalg.eigvalsh(stack.astype(float))
            err = np.abs(self._each(stack) - want[:, 0])
            assert (err <= 1e-14 * np.abs(want).max(axis=1)).all(), (n, err.max())

    def test_repeated_eigenvalue_matches_eigvalsh(self, rng):
        # a double smallest eigenvalue, where acos in Smith's form alone
        # would lose half the digits, and a double largest one
        q = np.stack([np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(500)])
        lam = rng.normal(size=(500, 1)) + np.array([0.0, 0.0, 1.0]) * rng.uniform(0.5, 2.0, size=(500, 1))
        for spectrum in (lam, -lam):
            stack = np.einsum("bij,bj,bkj->bik", q, spectrum, q)
            stack = 0.5 * (stack + stack.swapaxes(-1, -2))
            want = np.linalg.eigvalsh(stack)
            err = np.abs(self._each(stack) - want[:, 0])
            assert (err <= 1e-14 * np.abs(want).max(axis=1)).all(), err.max()

    def test_special_matrices(self):
        v = np.array([1.0, 2.0, 3.0])
        assert block_min_eigenvalue([[-2.5]]) == -2.5
        assert block_min_eigenvalue(np.zeros((3, 3)).tolist()) == 0.0
        assert block_min_eigenvalue(np.zeros((2, 2)).tolist()) == 0.0
        assert block_min_eigenvalue(np.eye(3).tolist()) == 1.0
        assert block_min_eigenvalue((-7.0 * np.eye(3)).tolist()) == -7.0
        cases = {
            "rank one": (np.outer(v, v), 0.0),
            "rank one, negative": (-np.outer(v, v), -v @ v),
            "repeated": (np.diag([3.0, -1.0, -1.0]), -1.0),
            "repeated, largest": (np.diag([3.0, -1.0, 3.0]), -1.0),
            "repeated, order 2": (np.array([[2.0, 0.0], [0.0, 2.0]]), 2.0),
            "rank one, order 2": (np.ones((2, 2)), 0.0),
        }
        for name, (h, want) in cases.items():
            assert abs(block_min_eigenvalue(h.tolist()) - want) <= 1e-14 * max(1.0, abs(want)), name

    @pytest.mark.parametrize("power", [500, -500])
    def test_extreme_scales(self, rng, power):
        # scaling by a power of two commutes exactly with the closed forms,
        # and no square overflows or underflows on the way
        factor = 2.0**power
        for n in (1, 2, 3):
            a = rng.normal(size=(50, n, n))
            stack = a + a.swapaxes(-1, -2)
            got = self._each(factor * stack)
            assert np.isfinite(got).all()
            assert np.array_equal(got, factor * self._each(stack))
            want = np.linalg.eigvalsh(stack)
            assert (np.abs(got / factor - want[:, 0]) <= 1e-14 * np.abs(want).max(axis=1)).all()

    def test_no_floating_point_warning(self, rng):
        a = rng.normal(size=(50, 3, 3)).round(1)
        stacks = [
            a + a.swapaxes(-1, -2),
            np.stack([np.diag(rng.integers(-2, 3, size=3).astype(float)) for _ in range(20)]),
            np.ones((3, 3))[None].repeat(3, axis=0),
            np.zeros((4, 3, 3)),
            np.zeros((4, 2, 2)),
        ]
        extreme = np.array([[[np.finfo(float).tiny, 0.0], [0.0, -np.finfo(float).max]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for stack in stacks:
                got = self._each(stack)
                want = np.linalg.eigvalsh(stack)[:, 0]
                assert np.abs(got - want).max() <= 1e-13
            # entries at both ends of the float range: relative to the largest
            got = self._each(extreme)
            want = np.linalg.eigvalsh(extreme)[:, 0]
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_non_hermitian_in_stack_rejected(self):
        # each matrix is checked on its own; malformed input is rejected
        stack = [np.eye(2), np.diag([1.0, -2.0]), np.array([[0.0, 1.0], [0.0, 0.0]])]
        assert [block_min_eigenvalue(h.tolist()) for h in stack[:2]] == [1.0, -2.0]
        with pytest.raises(ValueError):
            block_min_eigenvalue(stack[2].tolist())
        with pytest.raises(ValueError):
            block_min_eigenvalue(np.zeros((2, 3, 4)).tolist())
        with pytest.raises(ValueError):
            block_min_eigenvalue(np.zeros((2, 0, 0)).tolist())
        with pytest.raises(ValueError):
            block_min_eigenvalue(np.zeros(3).tolist())


class TestPartialProject:
    def test_single_qubit_contraction(self):
        v = kron(basis_ket("0x"), basis_ket("1x"))
        out = partial_project(basis_ket("0x"), [0], v)
        np.testing.assert_allclose(out, basis_ket("1x"))

    def test_bell_bra_on_product(self):
        v = kron(basis_ket("0x"), basis_ket("1x"))
        out = partial_project(bell_state("psi_plus"), [0, 1], v)
        assert abs(out[0] - 1 / math.sqrt(2)) < 1e-15

    def test_inconsistent_modes_rejected(self):
        with pytest.raises(ValueError):
            partial_project(basis_ket("0x"), [0, 1], kron(basis_ket("0x"), basis_ket("0x")))


class TestPermuteQubits:
    def test_round_trip_on_product(self):
        v = kron(basis_ket("0x"), basis_ket("1x"), basis_ket("0z"))
        # declare the factors as (c, a, b): sorting moves them to (a, b, c)
        out = permute_qubits(v, ["c", "a", "b"])
        expect = kron(basis_ket("1x"), basis_ket("0z"), basis_ket("0x"))
        np.testing.assert_allclose(out, expect, atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            permute_qubits([0.0] * 4, ["a", "b", "c"])


class TestDeterminism:
    def test_constructors_bit_reproducible(self):
        assert np.array_equal(phi_state(2), phi_state(2))
        assert np.array_equal(filter2(), filter2())
        assert np.array_equal(rotation(3), rotation(3))
