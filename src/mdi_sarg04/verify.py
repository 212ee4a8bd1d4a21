"""Self-contained verification battery for the security-proof numerics.

Each check re-derives one of the operator identities, positivity
frontiers or attack-state error rates and reports pass/fail; the CLI
`verify` subcommand prints one line per check and exits nonzero on any
failure.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import linalg
from .bounds import S_MAX, cubic_value, f_type1, g_type2
from .povm import (
    PovmSet,
    attack_state_22,
    block_residual,
    build_povm,
    build_povm_perturbed,
    error_rates,
    project_attack_from_bell_pairs,
    to_blocks,
)

FRONTIER_GRID = np.round(np.arange(0.0, S_MAX + 1e-9, 0.25), 10)
MIXED_LABELS = {f"{n}{m}_type{atype}": ((n, m), atype) for n, m in ((1, 2), (2, 1)) for atype in (1, 2)}


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _povm(case, atype, angle_offset: float) -> PovmSet:
    if angle_offset:
        return build_povm_perturbed(case, atype, np.pi / 8 + angle_offset)
    return build_povm(case, atype)


def _check(name, passed, detail) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _contraction(f: np.ndarray) -> np.ndarray:
    """I - FᵀF of a filter success operator F."""
    return np.eye(f.shape[0]) - np.einsum("ki,kj->ij", f, f)


def _reduction_check(angle_offset) -> CheckResult:
    """Every operator whose eigenvalues the battery takes on blocks is zero
    on the kernel and between the parity blocks (see `povm.block_residual`):
    `filter2`'s contraction, the (1,1) Type2 bit and phase operators, and
    every (1,2) and (2,1) triple."""
    p11t2 = _povm((1, 1), 2, angle_offset)
    reduced = [((1, 1), [_contraction(linalg.filter2()), p11t2.bit, p11t2.ph])]
    for case, atype in MIXED_LABELS.values():
        p = _povm(case, atype, angle_offset)
        reduced.append((case, [p.bit, p.fil, p.ph]))
    worst = max(block_residual(case, np.stack(ops)) for case, ops in reduced)
    return _check("block_reduction", worst <= 1e-15, f"max residual {worst:.3e} off the blocks")


def _frontier_checks(angle_offset) -> list[CheckResult]:
    """Every frontier s*bit + t(s)*fil - ph over FRONTIER_GRID is PSD on the
    blocks at the raised intercept t*(1+1e-6), and tight at every slope:
    each 1 %-reduced intercept t*(1-1e-2) must fail.  One eigenvalue call
    per label takes its 3 x 3 blocks (side, slope, block, 3, 3)."""
    s = FRONTIER_GRID[:, None, None, None]
    intercepts = {
        t: np.array([intercept(x) for x in FRONTIER_GRID.tolist()])[:, None, None, None]
        for t, intercept in ((1, f_type1), (2, g_type2))
    }
    checks = []
    for label, (case, atype) in MIXED_LABELS.items():
        p, t = _povm(case, atype, angle_offset), intercepts[atype]
        bit, fil, ph = to_blocks(case, np.stack([p.bit, p.fil, p.ph]))
        sides = np.array([s * bit + t * factor * fil - ph for factor in (1 + 1e-6, 1 - 1e-2)])
        valid, invalid = linalg.block_min_eigenvalue(sides).min(axis=-1)
        worst_valid, worst_invalid = valid.min(), invalid.max()
        valid_detail = f"min eigenvalue {worst_valid:.3e} at t*(1+1e-6)"
        invalid_detail = f"min eigenvalue at most {worst_invalid:.3e} at t*(1-1e-2)"
        checks.append(_check(f"frontier_{label}_valid_side", worst_valid >= -1e-9, valid_detail))
        checks.append(_check(f"frontier_{label}_tightness", worst_invalid <= -1e-8, invalid_detail))
    return checks


def verify_suite(angle_offset: float = 0.0) -> list[CheckResult]:
    """Run the full identity/positivity/attack battery.

    `angle_offset` perturbs the filter angle; it exists so the suite's
    sensitivity can itself be demonstrated (a 1e-3 offset must break the
    proportionality check).
    """
    checks: list[CheckResult] = []

    # rotation cycles the four signal states
    worst = 0.0
    r = linalg.rotation(1)
    for i in range(4):
        ov = abs(np.einsum("i,ij,j->", linalg.phi_state((i + 1) % 4), r, linalg.phi_state(i)))
        worst = max(worst, abs(ov - 1.0))
    checks.append(_check("rotation_cycles_signal_states", worst <= 1e-12, f"max deviation {worst:.3e}"))

    # filters are contractions: F'F <= identity
    contractions = (
        ("filter1", _contraction(linalg.filter1())),
        ("filter2", to_blocks((1, 1), _contraction(linalg.filter2()))),
    )
    for name, blocks in contractions:
        m = np.min(linalg.block_min_eigenvalue(blocks))
        checks.append(_check(f"{name}_contraction", m >= -1e-12, f"min eigenvalue {m:.3e}"))

    p11t1 = _povm((1, 1), 1, angle_offset)
    dev = np.abs(p11t1.ph - 1.5 * p11t1.bit).max()
    checks.append(
        _check("povm_11_type1_phase_is_1p5_bit", dev <= 1e-12, f"max-abs deviation {dev:.3e}")
    )

    p11t2 = _povm((1, 1), 2, angle_offset)
    blocks = to_blocks((1, 1), np.stack([s * p11t2.bit - p11t2.ph for s in (3, 2.9)]))
    m3, m29 = linalg.block_min_eigenvalue(blocks).min(axis=-1)
    checks.append(_check("povm_11_type2_s3_psd", m3 >= -1e-10, f"min eigenvalue {m3:.3e}"))
    checks.append(
        _check("povm_11_type2_s2p9_fails", m29 <= -1e-6, f"min eigenvalue {m29:.3e}")
    )

    checks.append(_reduction_check(angle_offset))
    checks.extend(_frontier_checks(angle_offset))

    # cubic root quality for the Type2 intercept
    g = {s: g_type2(s) for s in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, S_MAX)}
    worst_res = max(abs(cubic_value(s, root)) for s, root in g.items())
    checks.append(_check("g_cubic_residual", worst_res <= 1e-10, f"max residual {worst_res:.3e}"))
    g0 = g[0.0]
    checks.append(_check("g_at_zero_is_one", abs(g0 - 1.0) <= 1e-10, f"g(0) = {g0!r}"))

    # (2,2) attack states reach phase error 0.5
    p22t1 = _povm((2, 2), 1, angle_offset)
    mu1 = attack_state_22(1, 1)
    mu2 = attack_state_22(1, 2)
    r1 = error_rates(p22t1, linalg.projector(mu1))
    r2 = error_rates(p22t1, linalg.projector(mu2))
    checks.append(
        _check(
            "attack_22_type1_mu1",
            abs(r1.e_bit) <= 1e-12 and abs(r1.e_ph - 0.5) <= 1e-12,
            f"(e_bit, e_ph) = ({r1.e_bit:.3e}, {r1.e_ph:.12f})",
        )
    )
    checks.append(
        _check(
            "attack_22_type1_mu2",
            abs(r2.e_bit - 0.5) <= 1e-12 and abs(r2.e_ph - 0.5) <= 1e-12,
            f"(e_bit, e_ph) = ({r2.e_bit:.12f}, {r2.e_ph:.12f})",
        )
    )
    ortho = abs(np.einsum("i,i->", mu1, mu2))
    checks.append(_check("attack_22_mu_orthogonal", ortho <= 1e-12, f"|<mu1|mu2>| = {ortho:.3e}"))

    p22t2 = _povm((2, 2), 2, angle_offset)
    nus = [attack_state_22(2, w) for w in (1, 2, 3, 4)]
    rho_a = 0.25 * linalg.projector(nus[0]) + 0.75 * linalg.projector(nus[1])
    rho_b = 0.75 * linalg.projector(nus[2]) + 0.25 * linalg.projector(nus[3])
    ra = error_rates(p22t2, rho_a)
    rb = error_rates(p22t2, rho_b)
    checks.append(
        _check(
            "attack_22_type2_mix_a",
            abs(ra.e_bit) <= 1e-12 and abs(ra.e_ph - 0.5) <= 1e-12,
            f"(e_bit, e_ph) = ({ra.e_bit:.3e}, {ra.e_ph:.12f})",
        )
    )
    checks.append(
        _check(
            "attack_22_type2_mix_b",
            abs(rb.e_bit - 0.5) <= 1e-12 and abs(rb.e_ph - 0.5) <= 1e-12,
            f"(e_bit, e_ph) = ({rb.e_bit:.12f}, {rb.e_ph:.12f})",
        )
    )

    # heralding the attack from Bell pairs succeeds with probability 1/16
    proj = project_attack_from_bell_pairs(1, 1)
    p_succ = float(np.einsum("i,i->", proj, proj))
    checks.append(
        _check(
            "attack_projection_probability",
            abs(p_succ - 1 / 16) <= 1e-12,
            f"success probability {p_succ:.12f}",
        )
    )

    return checks


def all_passed(checks: list[CheckResult]) -> bool:
    return all(c.passed for c in checks)
