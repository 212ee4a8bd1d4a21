"""Command-line interface.

Subcommands: verify, bounds, mu-table, rate-curve, optimize-mu.
Exit codes: 0 success, 1 check failure, 2 bad configuration.

One table, COMMANDS, holds each subcommand's handler, help line and flags,
and drives parsing, defaults and ``-h``; parsing imports nothing.  The
standard library's parser, with the gettext and locale modules it loads,
cost every cold process about 7 ms and 0.5-0.6 MB of peak memory, and
answered a parse error with a usage block rather than one line.
"""

from __future__ import annotations

import sys
import types

from .bounds import f_type1, g_type2, phase_bound
from .config import ScenarioConfig
from .optics import (
    N_MAX_CAP,
    N_MAX_DEFAULT,
    ChannelParams,
    DetectorParams,
    error_rate,
    relay_yields,
)
from .scenario import _fmt, csv_lines, optimize_distances, optimize_mu, points_at, write_csv

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2


def _cmd_verify(args) -> int:
    from .verify import all_passed, verify_suite  # loads povm: no other command does

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
    for i in range(101):  # s = 0, 0.05, ..., 5, each rounded to 10 decimals
        s = round(i * 0.05 * 1e10) / 1e10
        e_bit = s / 10.0
        row = [s, f_type1(s), g_type2(s), e_bit] + [
            phase_bound(case, t, e_bit).e_ph for case in ((1, 1), (1, 2)) for t in (1, 2)
        ]
        lines.append(",".join(_fmt(v) for v in row))
    write_csv(lines, args.output)
    return EXIT_OK


def _cmd_mu_table(args) -> int:
    det = DetectorParams(eta=args.eta, dark=args.dark)
    t_arm = ChannelParams(args.loss, args.distance).t_arm
    y = relay_yields(det, t_arm, protocol=args.protocol, n_max=args.n_max)
    lines = ["n,m,yield_t1,ebit_t1,yield_t2,ebit_t2"]
    for n, row in enumerate(y):
        for m, (y1, e1, y2, e2) in enumerate(row):
            # the bit error rates are 0.5 where nothing is detected
            values = (y1, error_rate(e1, y1), y2, error_rate(e2, y2))
            lines.append(",".join([str(n), str(m)] + [_fmt(v) for v in values]))
    write_csv(lines, args.output)
    return EXIT_OK


def _load_config(args) -> ScenarioConfig:
    if args.config:
        config = ScenarioConfig.load(args.config)
    else:
        config = ScenarioConfig()
    overrides = {}
    if getattr(args, "scenario", None) is not None:
        overrides["scenario"] = args.scenario
    if getattr(args, "distance", None) is not None:
        # the grid's 9 decimals, so the one point is the distance itself
        distance = round(args.distance, 9)
        overrides["distance_start_km"] = distance
        overrides["distance_stop_km"] = distance
    return config._replace(**overrides)


def _cmd_rate_curve(args) -> int:
    config = _load_config(args)
    if args.mu is not None:
        points = points_at(config, config.distances(), args.mu)
    else:
        points = optimize_distances(config, config.distances())
    write_csv(csv_lines(points), config.output_path if args.output is None else args.output)
    return EXIT_OK


def _cmd_optimize_mu(args) -> int:
    import json

    config = _load_config(args)
    # the grid point rate-curve reports: 9 decimals, and -0.0 becomes 0.0
    point = optimize_mu(config, config.distances()[0])
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


def _cmd_help(args) -> int:
    print(_usage(args.commands))
    return EXIT_OK


def path(text: str) -> str:
    """A file path; an empty one would silently mean standard output."""
    if not text:
        raise ValueError(text)
    return text


_CONFIG_FLAGS = {
    "--config": (path, None, "JSON scenario config path"),
    "--scenario": (str, None, "override the configured scenario"),
}
_REQUIRED = ...  # the default of a flag that every call must give
_DEFAULTS = ScenarioConfig._field_defaults  # the detector and fiber of mu-table

# command: (handler, help line, {flag: (type or choices, default, help)});
# the handler reads a flag's value as the attribute named like it: --n-max
# as args.n_max
COMMANDS = {
    "verify": (_cmd_verify, "run the security-proof verification battery", {}),
    "bounds": (
        _cmd_bounds,
        "emit the phase-error bound tables as CSV",
        {"--output": (path, None, "output CSV path (default stdout)")},
    ),
    "mu-table": (
        _cmd_mu_table,
        "dump the relay yield/error table as CSV",
        {
            "--eta": (float, _DEFAULTS["eta"], "detector efficiency"),
            "--dark": (float, _DEFAULTS["dark"], "dark-count probability"),
            "--loss": (float, _DEFAULTS["loss_db_per_km"], "fiber loss in dB/km"),
            "--distance": (float, 0.0, "total distance in km"),
            "--protocol": (("sarg04", "bb84"), "sarg04", "relay protocol"),
            "--n-max": (int, N_MAX_DEFAULT, f"photon-number cutoff, 0 to {N_MAX_CAP}"),
            "--output": (path, None, "output CSV path (default stdout)"),
        },
    ),
    "rate-curve": (
        _cmd_rate_curve,
        "sweep key rate versus distance",
        {
            **_CONFIG_FLAGS,
            "--distance": (float, None, "single-distance override (km)"),
            "--mu": (float, None, "fixed mean photon number (skip optimization)"),
            "--output": (path, None, "output CSV path (default the config's output_path)"),
        },
    ),
    "optimize-mu": (
        _cmd_optimize_mu,
        "optimize the mean photon number at one distance",
        {**_CONFIG_FLAGS, "--distance": (float, _REQUIRED, "distance in km")},
    ),
}
_SHORT = {"-h": "--help", "-o": "--output"}


def _metavar(kind) -> str:
    return "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else kind.__name__.upper()


def _value(kind, text: str):
    """text read as kind, a type such as float or a tuple of the allowed strings."""
    if not isinstance(kind, tuple):
        return kind(text)
    if text not in kind:
        raise ValueError(text)
    return text


def _usage(commands: list[str]) -> str:
    """The help text of the listed commands: each one's help line and flags."""
    lines = [f"usage: mdi-sarg04 {'|'.join(commands)} [--FLAG VALUE]... [-h]"]
    if len(commands) > 1:
        lines.append("MDI-SARG04 security verification and key-rate simulation")
    for command in commands:
        lines += ["", f"{command}: {COMMANDS[command][1]}"]
        for flag, (kind, default, text) in COMMANDS[command][2].items():
            short = "".join(f"{s}, " for s, full in _SHORT.items() if full == flag)
            if default is not None:
                text += " (required)" if default is _REQUIRED else f" (default {default})"
            lines.append(f"  {short}{flag} {_metavar(kind)}: {text}")
    return "\n".join(lines)


def _flag(name: str, flags, where: str) -> str:
    """The one flag of flags that name is, stands for (-h, -o) or begins."""
    full = _SHORT.get(name, name)
    found = [flag for flag in flags if flag.startswith(full) and len(full) > 2]
    if full in flags:
        return full
    if len(found) == 1:
        return found[0]
    if found:
        raise ValueError(f"{where}: ambiguous flag {name!r}: {' or '.join(found)}")
    raise ValueError(f"{where}: unknown flag {name!r}")


def _parse_args(argv: list[str]):
    """Read argv against COMMANDS: the handler to call and its arguments.

    ``--flag value``, ``--flag=value``, ``-o path`` and a unique prefix of a
    long flag all work.  The argument after a flag is its value, even when
    it starts with "-", and a repeated flag keeps its last value.  Every
    error raises ValueError with a one-line message.
    """
    command = argv[0] if argv else ""
    if command.startswith("-"):  # -h, --help or a prefix of --help
        _flag(command, ["--help"], "mdi-sarg04")
        return _cmd_help, types.SimpleNamespace(commands=list(COMMANDS))
    if command not in COMMANDS:
        given = f", not {command!r}" if argv else ""
        raise ValueError(f"expected a command ({', '.join(COMMANDS)}){given}")
    handler, _, flags = COMMANDS[command]
    values = {flag: default for flag, (_, default, _) in flags.items()}
    rest = iter(argv[1:])
    for arg in rest:
        if arg[:2] in _SHORT:  # -o path, -opath or -o=path
            name, value = arg[:2], arg[2:].removeprefix("=") if len(arg) > 2 else None
        elif arg.startswith("--"):
            name, eq, value = arg.partition("=")
            value = value if eq else None
        else:
            raise ValueError(f"{command}: unexpected argument {arg!r}")
        flag = _flag(name, [*flags, "--help"], command)
        if flag == "--help":
            return _cmd_help, types.SimpleNamespace(commands=[command])
        value = next(rest, None) if value is None else value
        if value is None:
            raise ValueError(f"{command}: {flag} needs a value")
        kind = flags[flag][0]
        try:
            values[flag] = _value(kind, value)
        except ValueError:
            raise ValueError(f"{command}: {flag} takes {_metavar(kind)}, not {value!r}") from None
    missing = [flag for flag, value in values.items() if value is _REQUIRED]
    if missing:
        raise ValueError(f"{command}: {' and '.join(missing)} is required")
    attributes = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
    return handler, types.SimpleNamespace(**attributes)


def main(argv: list[str] | None = None) -> int:
    try:
        handler, args = _parse_args(sys.argv[1:] if argv is None else argv)
        return handler(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
