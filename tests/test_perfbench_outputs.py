"""The benchmark's output checks, run in-process.

Every step of every workload and phase of `perfbench/run.py` is one CLI
call; here each runs through `cli.main` in this process, and the step's own
check compares its output with the stored reference under `perfbench/refs`.
So a change that moves a benchmarked output beyond the benchmark's
tolerances fails here first.  Nothing under `perfbench/` is written.
"""

import contextlib
import importlib.util
import io
import json
import pathlib
import random
import sys

import pytest

from mdi_sarg04.cli import main

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load_run():
    # run.py imports its siblings `check` and `tracer`; no bytecode is
    # written next to them
    sys.path.insert(0, str(BENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = dont_write
    return module


RUN = _load_run()


@pytest.mark.parametrize("phase", range(RUN.N_PHASES))
@pytest.mark.parametrize("workload", sorted(RUN.WORKLOADS))
def test_every_step_passes_its_check(workload, phase, tmp_path):
    attempted, failures = 0, []
    for i, step in enumerate(RUN.WORKLOADS[workload](phase, random.Random(phase)).steps):
        step_dir = tmp_path / f"step{i}"
        step_dir.mkdir()
        if step.config is not None:
            (step_dir / "config.json").write_text(json.dumps(step.config))
        args = [a.replace("{out}", str(step_dir)) for a in step.args]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(args)
        assert code == 0, args
        text = stdout.getvalue() if step.output == "stdout" else (step_dir / step.output).read_text()
        n, bad = step.check(text, (RUN.REFS / step.ref).read_text() if step.ref else None)
        attempted += n
        failures += [f"{' '.join(args)}: {msg}" for msg in bad]
    assert attempted > 0
    assert not failures, failures[:10]
