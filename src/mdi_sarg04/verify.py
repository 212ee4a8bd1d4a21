"""Self-contained verification battery for the security-proof numerics.

Each check re-derives one of the operator identities, positivity
frontiers or attack-state error rates and reports pass/fail; the CLI
`verify` subcommand prints one line per check and exits nonzero on any
failure.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import linalg
from .bounds import S_MAX, cubic_value, f_type1, g_type2
from .povm import (
    attack_state_22,
    block_residual,
    build_povm,
    error_rates,
    project_attack_from_bell_pairs,
    to_blocks,
    verify_bound_certificate,
)

# the slopes 0, 0.25, ..., S_MAX
FRONTIER_GRID = [0.25 * i for i in range(41)]
MIXED_LABELS = {f"{n}{m}_type{atype}": ((n, m), atype) for n, m in ((1, 2), (2, 1)) for atype in (1, 2)}


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _check(name, passed, detail) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _contraction(f: linalg.Matrix) -> list[list[float]]:
    """I - FᵀF of a filter success operator F."""
    cols = list(zip(*f))
    return [
        [float(i == j) - linalg.sum_product(u, w) for j, w in enumerate(cols)] for i, u in enumerate(cols)
    ]


def _mixture(w: float, a: linalg.Vector, b: linalg.Vector) -> list[list[float]]:
    """The density operator w |a><a| + (1 - w) |b><b|."""
    pairs = zip(linalg.projector(a), linalg.projector(b))
    return [[w * x + (1 - w) * y for x, y in zip(*rows)] for rows in pairs]


def _min_eigenvalue(blocks) -> float:
    return min(linalg.block_min_eigenvalue(block) for block in blocks)


def _reduction_check(angle: float) -> CheckResult:
    """Every operator whose eigenvalues the battery takes on blocks is zero
    on the kernel and between the parity blocks (see `povm.block_residual`):
    `filter2`'s contraction, the (1,1) Type2 bit and phase operators, and
    every (1,2) and (2,1) triple."""
    p11t2 = build_povm((1, 1), 2, angle)
    reduced = [((1, 1), [_contraction(linalg.filter2(angle)), p11t2.bit, p11t2.ph])]
    for case, atype in MIXED_LABELS.values():
        p = build_povm(case, atype, angle)
        reduced.append((case, [p.bit, p.fil, p.ph]))
    worst = max(block_residual(case, ops) for case, ops in reduced)
    return _check("block_reduction", worst <= 1e-15, f"max residual {worst:.3e} off the blocks")


def _frontier_checks(angle: float) -> list[CheckResult]:
    """Every intercept t = f_type1(s) or g_type2(s) over FRONTIER_GRID is the
    exact frontier t* of s*bit + t*fil - ph on the blocks to 1e-12 of t.
    Where `fil` is positive definite there, smallest eigenvalue m > 0, the
    smallest block eigenvalue d(t) rises with slope at least m and is 0 at
    t*: t - t* has the sign of d, and |t - t*| <= |d|/m.  So t >= t*(1 -
    1e-12) (valid side) where every d/(m t) >= -1e-12, and t <= t*(1 +
    1e-12) (tightness) where every d/(m t) <= 1e-12.  With m <= 0 both fail."""
    checks = []
    for label, (case, atype) in MIXED_LABELS.items():
        m = _min_eigenvalue(to_blocks(case, build_povm(case, atype, angle).fil))
        intercepts = [(s, (f_type1 if atype == 1 else g_type2)(s)) for s in FRONTIER_GRID if m > 0]
        gaps = [verify_bound_certificate(case, atype, s, t, angle) / (m * t) for s, t in intercepts]
        lo, hi = min(gaps, default=-math.inf), max(gaps, default=math.inf)
        below, above = f"(t* - t)/t at most {max(0.0, -lo):.3e}", f"(t - t*)/t at most {max(0.0, hi):.3e}"
        checks.append(_check(f"frontier_{label}_valid_side", lo >= -1e-12, below))
        checks.append(_check(f"frontier_{label}_tightness", hi <= 1e-12, above))
    return checks


def verify_suite(angle_offset: float = 0.0) -> list[CheckResult]:
    """Run the full identity/positivity/attack battery.

    `angle_offset` perturbs the filter angle of every filter and POVM
    check; it exists so the suite's sensitivity can itself be demonstrated
    (a 1e-3 offset must break the proportionality check).
    """
    checks: list[CheckResult] = []
    angle = math.pi / 8 + angle_offset

    # rotation cycles the four signal states
    worst = 0.0
    r = linalg.rotation(1)
    for i in range(4):
        # <phi_(i+1)| R |phi_i> as one sum over (j, l) of (a_j R_jl) b_l
        a, b = linalg.phi_state((i + 1) % 4), linalg.phi_state(i)
        ov = abs(linalg.sum_product([x * y for x, row in zip(a, r) for y in row], b * len(a)))
        worst = max(worst, abs(ov - 1.0))
    checks.append(_check("rotation_cycles_signal_states", worst <= 1e-12, f"max deviation {worst:.3e}"))

    # filters are contractions: F'F <= identity
    contractions = (
        ("filter1", [_contraction(linalg.filter1(angle))]),
        ("filter2", to_blocks((1, 1), _contraction(linalg.filter2(angle)))),
    )
    for name, blocks in contractions:
        m = _min_eigenvalue(blocks)
        checks.append(_check(f"{name}_contraction", m >= -1e-12, f"min eigenvalue {m:.3e}"))

    p11t1 = build_povm((1, 1), 1, angle)
    dev = max(abs(z - 1.5 * x) for rows in zip(p11t1.ph, p11t1.bit) for z, x in zip(*rows))
    checks.append(
        _check("povm_11_type1_phase_is_1p5_bit", dev <= 1e-12, f"max-abs deviation {dev:.3e}")
    )

    m3, m29 = (verify_bound_certificate((1, 1), 2, s, 0.0, angle) for s in (3.0, 2.9))
    checks.append(_check("povm_11_type2_s3_psd", m3 >= -1e-10, f"min eigenvalue {m3:.3e}"))
    checks.append(
        _check("povm_11_type2_s2p9_fails", m29 <= -1e-6, f"min eigenvalue {m29:.3e}")
    )

    checks.append(_reduction_check(angle))
    checks.extend(_frontier_checks(angle))

    # cubic root quality for the Type2 intercept
    g = {s: g_type2(s) for s in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, S_MAX)}
    worst_res = max(abs(cubic_value(s, root)) for s, root in g.items())
    checks.append(_check("g_cubic_residual", worst_res <= 1e-10, f"max residual {worst_res:.3e}"))
    g0 = g[0.0]
    checks.append(_check("g_at_zero_is_one", abs(g0 - 1.0) <= 1e-10, f"g(0) = {g0!r}"))

    # (2,2) attack states reach phase error 0.5, with bit error 0 or 0.5
    mu1, mu2 = attack_state_22(1, 1), attack_state_22(1, 2)
    nus = [attack_state_22(2, w) for w in (1, 2, 3, 4)]
    attacks = (
        ("attack_22_type1_mu1", 1, linalg.projector(mu1), 0.0),
        ("attack_22_type1_mu2", 1, linalg.projector(mu2), 0.5),
        ("attack_22_type2_mix_a", 2, _mixture(0.25, nus[0], nus[1]), 0.0),
        ("attack_22_type2_mix_b", 2, _mixture(0.75, nus[2], nus[3]), 0.5),
    )
    for name, atype, rho, e_bit in attacks:
        r = error_rates(build_povm((2, 2), atype, angle), rho)
        passed = abs(r.e_bit - e_bit) <= 1e-12 and abs(r.e_ph - 0.5) <= 1e-12
        form = ".12f" if e_bit else ".3e"
        checks.append(_check(name, passed, f"(e_bit, e_ph) = ({r.e_bit:{form}}, {r.e_ph:.12f})"))
    # between the Type1 and the Type2 attack lines
    ortho = abs(linalg.sum_product(mu1, mu2))
    checks.insert(-2, _check("attack_22_mu_orthogonal", ortho <= 1e-12, f"|<mu1|mu2>| = {ortho:.3e}"))

    # heralding the attack from Bell pairs succeeds with probability 1/16
    proj = project_attack_from_bell_pairs(1, 1)
    p_succ = linalg.sum_product(proj, proj)
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
