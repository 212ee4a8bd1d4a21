"""Self-verification battery: completeness and sensitivity."""

import math

import pytest

from mdi_sarg04 import verify
from mdi_sarg04.verify import all_passed, verify_suite


class TestVerifySuite:
    def test_all_checks_pass(self):
        checks = verify_suite()
        failed = [c.name for c in checks if not c.passed]
        assert not failed, f"failing checks: {failed}"
        assert all_passed(checks)

    def test_at_least_twelve_named_checks(self):
        checks = verify_suite()
        names = {c.name for c in checks}
        assert len(names) == len(checks) >= 12

    def test_angle_perturbation_breaks_proportionality(self):
        checks = verify_suite(angle_offset=1e-3)
        by_name = {c.name: c for c in checks}
        assert not by_name["povm_11_type1_phase_is_1p5_bit"].passed
        assert not all_passed(checks)

    def test_reduction_holds_at_perturbed_angle(self):
        # the blocks are exact at any filter angle: the perturbation breaks
        # the identities, not the reduction
        for offset in (0.0, 1e-3):
            by_name = {c.name: c for c in verify_suite(angle_offset=offset)}
            assert by_name["block_reduction"].passed, by_name["block_reduction"]

    def test_angle_offset_reaches_the_filter_checks(self):
        # I - F1ᵀF1 = diag(sin², cos²) of the perturbed angle, whose smallest
        # entry is sin² below pi/4
        angle = math.pi / 8 + 0.3
        by_name = {c.name: c for c in verify_suite(angle_offset=0.3)}
        assert by_name["filter1_contraction"].detail == f"min eigenvalue {math.sin(angle) ** 2:.3e}"
        assert by_name["filter2_contraction"].passed
        assert verify_suite(angle_offset=0.0) == verify_suite()


class TestFrontierPins:
    """An intercept off by 1e-9 of itself fails its frontier: too high (a
    looser bound than the exact frontier) fails tightness, too low (no
    bound) fails the valid side, and the other type's frontier holds."""

    @pytest.mark.parametrize("name, atype", [("f_type1", 1), ("g_type2", 2)])
    @pytest.mark.parametrize("scale, failing, holding", [
        (1 + 1e-9, "tightness", "valid_side"),
        (1 - 1e-9, "valid_side", "tightness"),
    ])
    def test_scaled_intercept_fails(self, monkeypatch, name, atype, scale, failing, holding):
        intercept = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda s: intercept(s) * scale)
        by_name = {c.name: c for c in verify_suite()}
        for pair in ("12", "21"):
            assert not by_name[f"frontier_{pair}_type{atype}_{failing}"].passed
            assert by_name[f"frontier_{pair}_type{atype}_{holding}"].passed
            for side in ("valid_side", "tightness"):
                assert by_name[f"frontier_{pair}_type{3 - atype}_{side}"].passed

    def test_no_bound_without_a_positive_definite_filter(self, monkeypatch):
        # the gap bound divides by fil's smallest block eigenvalue m: with
        # m <= 0 it proves nothing, and both sides fail
        monkeypatch.setattr(verify, "_min_eigenvalue", lambda blocks: 0.0)
        checks = verify._frontier_checks(math.pi / 8)
        assert len(checks) == 8 and not any(c.passed for c in checks)
        assert {c.detail[-3:] for c in checks} == {"inf"}
