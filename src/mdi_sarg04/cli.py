"""Command-line interface.

Subcommands: verify, bounds, mu-table, rate-curve, optimize-mu.
Exit codes: 0 success, 1 check failure, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bounds import f_type1, g_type2, phase_bound
from .config import ScenarioConfig
from .optics import ChannelParams, DetectorParams, mu_response
from .scenario import _fmt, csv_lines, optimize_mu, points_at, run_sweep
from .verify import all_passed, verify_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2


def _write_lines(lines: list[str], path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(args) -> int:
    checks = verify_suite()
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: {c.detail}")
    ok = all_passed(checks)
    print(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_bounds(args) -> int:
    lines = [
        "s,f_s,g_s,e_bit,e_ph_11_t1,e_ph_11_t2,e_ph_12_t1,e_ph_12_t2"
    ]
    s = np.round(np.arange(0.0, 5.0 + 1e-9, 0.05), 10)
    e_bit = s / 10.0
    columns = [s, f_type1(s), g_type2(s), e_bit] + [
        phase_bound(case, t, e_bit).e_ph for case in ((1, 1), (1, 2)) for t in (1, 2)
    ]
    lines += [",".join(_fmt(v) for v in row) for row in zip(*(c.tolist() for c in columns))]
    _write_lines(lines, args.output)
    return EXIT_OK


def _cmd_mu_table(args) -> int:
    det = DetectorParams(eta=args.eta, dark=args.dark)
    t_arm = ChannelParams(args.loss, args.distance).t_arm
    table = mu_response(det, t_arm, protocol=args.protocol, n_max=args.n_max)
    lines = ["n,m,yield_t1,ebit_t1,yield_t2,ebit_t2"]
    for (n, m), e in sorted(table.entries.items()):
        lines.append(
            ",".join(
                [str(n), str(m)]
                + [_fmt(v) for v in (e.yield_type1, e.ebit_type1, e.yield_type2, e.ebit_type2)]
            )
        )
    _write_lines(lines, args.output)
    return EXIT_OK


def _load_config(args) -> ScenarioConfig:
    if args.config:
        config = ScenarioConfig.load(args.config)
    else:
        config = ScenarioConfig()
    overrides = {}
    if getattr(args, "scenario", None):
        overrides["scenario"] = args.scenario
    if getattr(args, "distance", None) is not None:
        overrides["distance_start_km"] = args.distance
        overrides["distance_stop_km"] = args.distance
    if overrides:
        import dataclasses

        config = ScenarioConfig.from_dict({**dataclasses.asdict(config), **overrides})
    return config


def _cmd_rate_curve(args) -> int:
    config = _load_config(args)
    if args.mu is not None:
        points = points_at(config, config.distances(), args.mu)
    else:
        points = run_sweep(config)
    _write_lines(csv_lines(points), args.output or config.output_path)
    return EXIT_OK


def _cmd_optimize_mu(args) -> int:
    config = _load_config(args)
    point = optimize_mu(config, args.distance)
    out = {
        "distance_km": point.distance_km,
        "mu_opt": point.mu_opt,
        "total": point.total,
        "total_per_pulse": point.total_per_pulse,
        "G1": point.G1,
        "G2": point.G2,
        "zero_rate": point.zero_rate,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdi-sarg04",
        description="MDI-SARG04 security verification and key-rate simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify", help="run the security-proof verification battery")

    p = sub.add_parser("bounds", help="emit the phase-error bound tables as CSV")
    p.add_argument("-o", "--output", default=None, help="output CSV path (default stdout)")

    p = sub.add_parser("mu-table", help="dump the relay yield/error table as CSV")
    p.add_argument("--eta", type=float, default=0.045)
    p.add_argument("--dark", type=float, default=8.5e-7)
    p.add_argument("--loss", type=float, default=0.21, help="fiber loss in dB/km")
    p.add_argument("--distance", type=float, default=0.0, help="total distance in km")
    p.add_argument("--protocol", choices=("sarg04", "bb84"), default="sarg04")
    p.add_argument("--n-max", type=int, default=2)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("rate-curve", help="sweep key rate versus distance")
    p.add_argument("--config", default=None, help="JSON scenario config path")
    p.add_argument("--scenario", default=None, help="override the configured scenario")
    p.add_argument("--distance", type=float, default=None, help="single-distance override (km)")
    p.add_argument("--mu", type=float, default=None, help="fixed mean photon number (skip optimization)")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("optimize-mu", help="optimize the mean photon number at one distance")
    p.add_argument("--config", default=None)
    p.add_argument("--scenario", default=None)
    p.add_argument("--distance", type=float, required=True)

    return parser


_HANDLERS = {
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
    "mu-table": _cmd_mu_table,
    "rate-curve": _cmd_rate_curve,
    "optimize-mu": _cmd_optimize_mu,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, FileNotFoundError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
