"""Acceptance gate: the eight headline checks of this package.

Each test prints one PASS/FAIL line (run with -s or check captured
output) and asserts the stated tolerance.  Criteria with runtime budgets
also assert wall-clock time.
"""

import json
import math
import time

import numpy as np

from mdi_sarg04 import linalg
from mdi_sarg04.bounds import cubic_value, f_type1, g_type2, phase_bound
from mdi_sarg04.cli import main
from mdi_sarg04.config import ScenarioConfig
from mdi_sarg04.optics import DetectorParams, error_rate, relay_yields
from mdi_sarg04.povm import (
    attack_state_22,
    build_povm,
    error_rates,
    project_attack_from_bell_pairs,
    verify_bound_certificate,
)
from mdi_sarg04.scenario import run_sweep
from mdi_sarg04.sources import poisson_probs

SQRT2 = math.sqrt(2.0)


def _report(index: int, label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] acceptance {index}: {label}{suffix}")
    return ok


def test_criterion_1_phase_povm_proportionality():
    start = time.perf_counter()
    p = build_povm((1, 1), 1)
    dev = float(np.abs(np.asarray(p.ph) - 1.5 * np.asarray(p.bit)).max())
    elapsed = time.perf_counter() - start
    ok = dev <= 1e-12 and elapsed < 1.0
    assert _report(
        1, "(1,1) Type1 phase POVM = 1.5 x bit POVM", ok, f"max dev {dev:.2e}, {elapsed:.2f}s"
    )


def test_criterion_2_type2_slope_three_boundary():
    start = time.perf_counter()
    m3 = verify_bound_certificate((1, 1), 2, 3.0, 0.0)
    m29 = verify_bound_certificate((1, 1), 2, 2.9, 0.0)
    elapsed = time.perf_counter() - start
    ok = m3 >= -1e-10 and m29 <= -1e-6 and elapsed < 1.0
    assert _report(
        2,
        "(1,1) Type2 bound valid at slope 3, invalid at 2.9",
        ok,
        f"min eig {m3:.2e} / {m29:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_mixed_case_frontiers():
    start = time.perf_counter()
    grid = np.round(np.arange(0.0, 5.0 + 1e-9, 0.25), 10)
    worst_valid = math.inf
    best_invalid = {1: math.inf, 2: math.inf}
    for atype, intercept in ((1, f_type1), (2, g_type2)):
        for s in grid:
            t = intercept(float(s))
            worst_valid = min(
                worst_valid, verify_bound_certificate((1, 2), atype, float(s), t * (1 + 1e-6))
            )
            best_invalid[atype] = min(
                best_invalid[atype],
                verify_bound_certificate((1, 2), atype, float(s), t * (1 - 1e-2)),
            )
    residual = max(abs(cubic_value(float(s), g_type2(float(s)))) for s in grid)
    g0_dev = abs(g_type2(0.0) - 1.0)
    elapsed = time.perf_counter() - start
    ok = (
        worst_valid >= -1e-9
        and best_invalid[1] < 0
        and best_invalid[2] < 0
        and residual <= 1e-10
        and g0_dev <= 1e-10
        and elapsed < 5.0
    )
    assert _report(
        3,
        "(1,2) frontiers tight for f and g, cubic root exact",
        ok,
        f"valid {worst_valid:.2e}, invalid {best_invalid[1]:.2e}/{best_invalid[2]:.2e}, "
        f"residual {residual:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_two_photon_attack():
    p1 = build_povm((2, 2), 1)
    p2 = build_povm((2, 2), 2)
    r_mu1 = error_rates(p1, linalg.projector(attack_state_22(1, 1)))
    r_mu2 = error_rates(p1, linalg.projector(attack_state_22(1, 2)))
    nus = [attack_state_22(2, w) for w in (1, 2, 3, 4)]
    proj_nu = [np.asarray(linalg.projector(nu)) for nu in nus]
    r_nua = error_rates(p2, 0.25 * proj_nu[0] + 0.75 * proj_nu[1])
    r_nub = error_rates(p2, 0.75 * proj_nu[2] + 0.25 * proj_nu[3])
    proj = project_attack_from_bell_pairs(1, 1)
    p_succ = float(np.vdot(proj, proj).real)
    tol = 1e-12
    ok = (
        abs(r_mu1.e_bit) <= tol
        and abs(r_mu1.e_ph - 0.5) <= tol
        and abs(r_mu2.e_bit - 0.5) <= tol
        and abs(r_mu2.e_ph - 0.5) <= tol
        and abs(r_nua.e_bit) <= tol
        and abs(r_nua.e_ph - 0.5) <= tol
        and abs(r_nub.e_bit - 0.5) <= tol
        and abs(r_nub.e_ph - 0.5) <= tol
        and abs(p_succ - 1 / 16) <= tol
    )
    assert _report(
        4,
        "(2,2) attack states reach the error targets, heralding prob 1/16",
        ok,
        f"p_succ {p_succ:.12f}",
    )


def test_criterion_5_two_photon_error_floor():
    ideal = DetectorParams(eta=1.0, dark=0.0)
    src = np.array(poisson_probs(0.01, 2))
    y = np.array(relay_yields(ideal, 1.0))  # y[n, m] = (yield_1, error_1, yield_2, error_2)
    # per type, the sums of p_n p_m Y[n, m] and of its errors: the sift factor
    # scales both alike, so it drops out of their ratio e_tot
    weighted = (src[:, None, None] * src[:, None] * y).sum(axis=(0, 1))
    e_tot = weighted[1::2] / weighted[0::2]
    ebit = np.vectorize(error_rate)(y[..., 1::2], y[..., 0::2]).transpose(2, 0, 1)
    floor_ok = 0.24 <= e_tot[0] <= 0.26 and 0.24 <= e_tot[1] <= 0.26
    half_ok = all(abs(e[nm] - 0.5) <= 1e-10 for e in ebit for nm in ((2, 0), (0, 2)))
    zero_ok = all(abs(e[(1, 1)]) <= 1e-12 for e in ebit)
    ok = floor_ok and half_ok and zero_ok
    assert _report(
        5,
        "two-photon emissions pin the total error rate near 0.25",
        ok,
        f"e_tot {e_tot[0]:.4f}/{e_tot[1]:.4f}",
    )


def test_criterion_6_rate_curve_properties():
    start = time.perf_counter()
    base = ScenarioConfig()  # GYS defaults, 0-60 km step 2
    full = run_sweep(base)
    only = run_sweep(base._replace(photon_terms="one_one_only"))
    bb84 = run_sweep(base._replace(scenario="bb84_baseline"))

    below_bb84 = all(f.total <= b.total + 1e-12 for f, b in zip(full, bb84))
    full_ge_only = all(f.total >= o.total - 1e-12 for f, o in zip(full, only))

    # the QND relay's unsifted gains p_n p_m Y_t[n, m] at 0 km and the optimal mu
    det = DetectorParams(eta=base.eta, dark=base.dark)
    p0 = np.array(poisson_probs(full[0].mu_opt, 2))
    y0 = np.array(relay_yields(det, 1.0, qnd=True))[..., 0::2].transpose(2, 0, 1)
    gains0 = p0[:, None] * p0 * y0
    q12_zero = (
        gains0[0][(1, 2)] == 0.0
        and gains0[0][(2, 1)] == 0.0
        and gains0[1][(1, 2)] == 0.0
        and gains0[1][(2, 1)] == 0.0
    )
    zero_km_agree = abs(full[0].total - only[0].total) <= 1e-9

    # the optimal mu is a root found to 1e-10 relative (LOG_MU_TOL); 2e-4 is ample jitter
    mus = [p.mu_opt for p in only]
    mu_monotone = all(b <= a * (1 + 2e-4) for a, b in zip(mus, mus[1:]))

    elapsed = time.perf_counter() - start
    ok = below_bb84 and full_ge_only and q12_zero and zero_km_agree and mu_monotone
    ok = ok and elapsed < 120.0
    assert _report(
        6,
        "rate curves ordered, zero-distance degeneracy, monotone optimal mu",
        ok,
        f"{elapsed:.1f}s for 3 sweeps of {len(full)} distances",
    )


def test_criterion_7_deterministic_csv(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"scenario": "qnd_coherent", "distance_stop_km": 60.0, "distance_step_km": 10.0}
        )
    )
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    rc1 = main(["rate-curve", "--config", str(cfg), "-o", str(out1)])
    rc2 = main(["rate-curve", "--config", str(cfg), "-o", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and identical
    assert _report(7, "repeated rate-curve runs emit byte-identical CSV", ok)


def _dense_g(s_grid: np.ndarray) -> np.ndarray:
    """Vectorized maximal real root of the Type2 intercept cubic."""
    a3 = 4 * SQRT2
    a2 = 2 * (1 - 3 * SQRT2 + 3 * SQRT2 * s_grid)
    a1 = 2 * (-1 + SQRT2 + (1 - 3 * SQRT2) * s_grid + SQRT2 * s_grid**2)
    a0 = (SQRT2 - 1) * s_grid + (1 - SQRT2) * s_grid**2
    b, c, d = a2 / a3, a1 / a3, a0 / a3
    p = c - b * b / 3
    q = 2 * b**3 / 27 - b * c / 3 + d
    shift = -b / 3
    disc = (q / 2) ** 2 + (p / 3) ** 3
    with np.errstate(invalid="ignore", divide="ignore"):
        sq = np.sqrt(np.maximum(disc, 0.0))
        one_real = np.cbrt(-q / 2 + sq) + np.cbrt(-q / 2 - sq) + shift
        r = np.sqrt(np.maximum(-p / 3, 0.0))
        arg = np.clip(3 * q / (2 * p * r), -1.0, 1.0)
        theta = np.arccos(arg) / 3
        three_real = (
            2
            * r
            * np.max(
                [np.cos(theta - 2 * np.pi * j / 3) for j in range(3)],
                axis=0,
            )
            + shift
        )
    return np.where(disc > 0, one_real, np.where(p == 0, shift, three_real))


def test_criterion_8_minimized_bound_matches_dense_grid():
    s = np.arange(0.0, 10.0 + 1e-9, 1e-5)
    f_vals = (3 - 2 * s + np.sqrt(6 - 6 * SQRT2 * s + 4 * s * s)) / 6
    g_vals = _dense_g(s)
    worst = 0.0
    for e in (0.0, 0.05, 0.1):
        for atype, vals in ((1, f_vals), (2, g_vals)):
            dense = float(np.minimum(1.0, np.maximum(0.0, (s * e + vals))).min())
            got = phase_bound((1, 2), atype, e).e_ph
            worst = max(worst, abs(got - dense))
    ok = worst <= 1e-6
    assert _report(
        8,
        "minimized phase bounds match a step-1e-5 dense grid",
        ok,
        f"max deviation {worst:.2e}",
    )
