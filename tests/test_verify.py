"""Self-verification battery: completeness and sensitivity."""

import math

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
