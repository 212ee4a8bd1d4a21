#!/usr/bin/env python3
"""Print one `name md5` line per CLI output, to show which outputs a change moves.

Runs `mdi_sarg04.cli.main` in this process, with its standard output
captured, on a fixed set of calls: `verify`; `bounds`; `mu-table` for both
protocols, cutoffs 0 to 3, at 0, 20 and 100 km; `optimize-mu` for the three
scenarios at 0, 30 and 100 km; `rate-curve` for the three default sweeps
and the (1,1)-only sweep; `rate-curve --mu 0.3` for each scenario; and
0-300 km sweeps at 2 km of the QND scenario (both types, (1,1) terms only,
Type1 only, Type2 only), of SPDC (thermal and Poisson pairs, dark count
1e-4, efficiency 0.9, Type2 only) and of the BB84 comparator, so every
named value of every config option is reached.  A call that exits
nonzero has its exit code appended to its line.

The package is imported from the path, so listings of two trees compare:

    PYTHONPATH=<old tree>/src python scripts/output_digest.py > old.txt
    PYTHONPATH=src python scripts/output_digest.py > new.txt
    diff old.txt new.txt
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from mdi_sarg04.cli import main as cli_main

SCENARIOS = ("qnd_coherent", "spdc_heralded", "bb84_baseline")
FAR = {"distance_start_km": 0, "distance_stop_km": 300, "distance_step_km": 2}


def calls(config_path):
    """(name, argv) of every output, with config_path(name, fields) the path
    of a JSON config file holding fields."""
    yield "verify", ["verify"]
    yield "bounds", ["bounds"]
    for protocol in ("sarg04", "bb84"):
        for n_max in range(4):
            for distance in (0, 20, 100):
                argv = ["--protocol", protocol, "--n-max", str(n_max), "--distance", str(distance)]
                yield f"mu-table:{protocol}:n-max={n_max}:{distance}km", ["mu-table", *argv]
    for scenario in SCENARIOS:
        for distance in (0, 30, 100):
            argv = ["--scenario", scenario, "--distance", str(distance)]
            yield f"optimize-mu:{scenario}:{distance}km", ["optimize-mu", *argv]
    for scenario in SCENARIOS:
        yield f"rate-curve:{scenario}", ["rate-curve", "--scenario", scenario]
    one_one = config_path("one_one_only", {"photon_terms": "one_one_only"})
    yield "rate-curve:qnd_coherent:one_one_only", ["rate-curve", "--config", one_one]
    for scenario in SCENARIOS:
        yield f"rate-curve:{scenario}:mu=0.3", ["rate-curve", "--scenario", scenario, "--mu", "0.3"]
    far = {
        "qnd_coherent": {},
        "qnd_coherent:one_one_only": {"photon_terms": "one_one_only"},
        "qnd_coherent:type2_only": {"type_selection": "type2_only"},
        "qnd_coherent:type1_only": {"type_selection": "type1_only"},
        "spdc_heralded": {"scenario": "spdc_heralded"},
        "spdc_heralded:poisson": {"scenario": "spdc_heralded", "spdc_pair_statistics": "poisson"},
        "spdc_heralded:dark=1e-4": {"scenario": "spdc_heralded", "dark": 1e-4},
        "spdc_heralded:eta=0.9": {"scenario": "spdc_heralded", "eta": 0.9},
        "spdc_heralded:type2_only": {"scenario": "spdc_heralded", "type_selection": "type2_only"},
        "bb84_baseline": {"scenario": "bb84_baseline"},
    }
    for name, fields in far.items():
        path = config_path(f"far_{name.replace(':', '_')}", {**fields, **FAR})
        yield f"rate-curve:{name}:0-300km", ["rate-curve", "--config", path]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:

        def config_path(name, fields):
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(fields, fh)
            return path

        for name, argv in calls(config_path):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(argv)
            digest = hashlib.md5(out.getvalue().encode()).hexdigest()
            print(f"{name} {digest}" + (f" exit {code}" if code else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
