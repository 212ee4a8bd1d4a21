#!/usr/bin/env python3
"""Regenerate the reference outputs in ``perfbench/refs`` from the current code.

    python3 perfbench/make_refs.py

Runs every step of every workload, for every distance-grid phase, once and
untraced, and copies each checked output to its reference path.  The stored
references were made at the commit that added the benchmark; regenerate
them only when a change of output is intended and recorded.
"""

from __future__ import annotations

import random
import shutil
import sys

import run


def main() -> int:
    env = run.child_env()
    run.prepare(env)
    for name, make in run.WORKLOADS.items():
        for phase in range(run.N_PHASES):
            workload = make(phase, random.Random(0))
            for i, step in enumerate(workload.steps):
                step_dir = run.OUT / "refs" / name / f"phase{phase}" / f"step{i}"
                if run.run_step(step, step_dir, env).returncode != 0:
                    raise SystemExit(f"{name} phase {phase}: {' '.join(step.args)} failed")
                if step.ref is not None:
                    ref = run.REFS / step.ref
                    ref.parent.mkdir(parents=True, exist_ok=True)
                    shutil.copyfile(step_dir / step.output, ref)
            print(f"{name} phase {phase}: done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
