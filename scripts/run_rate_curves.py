#!/usr/bin/env python3
"""Reproduce the headline key-rate-versus-distance curves.

Sweeps the three configured scenarios (coherent sources with relay
photon-number postselection, heralded SPDC sources, and the MDI-BB84
comparator) over a distance grid with per-distance mean-photon-number
optimization, and writes one CSV per scenario plus a (1,1)-only variant
of the first scenario for the crossover comparison.
"""

import argparse
import pathlib
import sys
import time

from mdi_sarg04.config import ScenarioConfig
from mdi_sarg04.scenario import run_sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory for CSVs")
    parser.add_argument("--stop-km", type=float, default=60.0, help="last distance (km)")
    parser.add_argument("--step-km", type=float, default=2.0, help="distance step (km)")
    args = parser.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    base = ScenarioConfig(distance_stop_km=args.stop_km, distance_step_km=args.step_km)
    runs = {
        "qnd_coherent": base,
        "qnd_coherent_11_only": base._replace(photon_terms="one_one_only"),
        "spdc_heralded": base._replace(scenario="spdc_heralded"),
        "bb84_baseline": base._replace(scenario="bb84_baseline"),
    }
    for name, cfg in runs.items():
        t0 = time.perf_counter()
        path = outdir / f"rate_curve_{name}.csv"
        points = run_sweep(cfg._replace(output_path=str(path)))
        cutoff = next((p.distance_km for p in points if p.total_per_pulse <= 0), None)
        reach = f"rate reaches 0 at {cutoff:g} km" if cutoff is not None else "positive everywhere"
        print(f"{name}: {len(points)} points in {time.perf_counter() - t0:.1f}s -> {path} ({reach})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
