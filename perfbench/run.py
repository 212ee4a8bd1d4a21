#!/usr/bin/env python3
"""Cold-process benchmark of mdi_sarg04: rate-curve sweeps and one-shot CLI queries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed.  Every step of a workload is one call of
the package's command-line entry point in a fresh interpreter, because each
CLI user pays for cold caches: the float-keyed ``lru_cache``s make a second
sweep in a warm process far cheaper.  Steps run one at a time, with
``MDI_SARG04_WORKERS`` removed and BLAS/OpenMP pinned to one thread.  A run
repeats the workload's steps (one pass) until ``--seconds`` have elapsed.

Workloads.  ``--seed`` picks one of ``N_PHASES`` shifts of the distances and
the order of the point queries; the references in ``refs/`` cover each shift.

* ``curves_relay``: ``rate-curve`` for ``spdc_heralded`` and for
  ``bb84_baseline``, 31 distances each, 60 km in 2 km steps.  The exact
  Fock-optics relay response is recomputed per distance and dominates.
* ``curves_qnd``: ``rate-curve`` for ``qnd_coherent`` and its (1,1)-only
  variant, 121 distances each, 60 km in 0.5 km steps.  The optics runs once
  per sweep; the time goes to sources, gain assembly, key rates, phase
  bounds and the mu optimiser.
* ``point_queries``: ``verify``, ``bounds``, ``mu-table --n-max 3`` for
  SARG04 and BB84, and ``optimize-mu`` for the three scenarios.  Nothing is
  amortised, and only this workload runs ``linalg``, ``povm`` and ``verify``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
medians over the untraced passes of ``wall_s`` (spawn to exit of every step
of a pass), ``cpu_s`` (their user + sys time) and ``peak_rss_mb`` (their
largest resident set), and ``setup_s``, the median time a fresh interpreter
takes to ``import mdi_sarg04``, over ``SETUP_SAMPLES`` bare imports made
before the timed passes and the import of every step.  With
``--trace 1`` it carries the per-layer metrics of ``BENCHMARK.json``:
untraced and traced passes alternate, the traced ones wrap the layer
functions (see ``tracer.py``), ``-X importtime`` gives the per-module import
self times, and ``trace.overhead_s`` is the traced minus the untraced median
pass wall time.  Every output is checked against ``refs/`` (see
``check.py``).  The line before the result records the machine, the
versions, the code and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
from tracer import CACHES, TRACED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
OUT = ROOT / ".bench_out"
REFS = check.REFS

PINNED_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
N_PHASES = 4
IMPORTTIME_SAMPLES = 3
SETUP_SAMPLES = 15
# a run must end within 180 s: no pass starts that would end after RUN_LIMIT_S,
# and a child still running at KILL_AFTER_S is killed and its operations fail
RUN_LIMIT_S = 120.0
KILL_AFTER_S = 165.0


@dataclass(frozen=True)
class Step:
    """One CLI call in a fresh child process.

    ``{out}`` in args is the step's directory; ``config``, if given, is
    written there as config.json.  ``check`` compares the step's ``output``
    file ("stdout" is its captured standard output) with ``ref``, a path
    under ``refs/``, and returns (operations attempted, failures).
    """

    args: tuple[str, ...]
    output: str
    ref: str | None
    check: Callable[[str, str | None], tuple[int, list[str]]]
    config: dict | None = None


@dataclass(frozen=True)
class Workload:
    steps: list[Step]
    points: int  # distance points optimised per pass


def _sweeps(workload: str, phase: int, grid: dict, configs: dict[str, dict]) -> list[Step]:
    return [
        Step(
            ("rate-curve", "--config", "{out}/config.json", "-o", "{out}/curve.csv"),
            "curve.csv",
            f"{workload}/phase{phase}/{name}.csv",
            check.check_sweep,
            {**config, **grid},
        )
        for name, config in configs.items()
    ]


def curves_relay(phase: int, rng: random.Random) -> Workload:
    start = 0.5 * phase
    grid = {"distance_start_km": start, "distance_stop_km": start + 60.0, "distance_step_km": 2.0}
    configs = {
        "spdc_heralded": {"scenario": "spdc_heralded"},
        "bb84_baseline": {"scenario": "bb84_baseline"},
    }
    return Workload(_sweeps("curves_relay", phase, grid, configs), points=2 * 31)


def curves_qnd(phase: int, rng: random.Random) -> Workload:
    start = 0.125 * phase
    grid = {"distance_start_km": start, "distance_stop_km": start + 60.0, "distance_step_km": 0.5}
    configs = {
        "qnd_coherent": {"scenario": "qnd_coherent"},
        "qnd_coherent_11_only": {"scenario": "qnd_coherent", "photon_terms": "one_one_only"},
    }
    return Workload(_sweeps("curves_qnd", phase, grid, configs), points=2 * 121)


def point_queries(phase: int, rng: random.Random) -> Workload:
    table_km = str(20.0 + 0.5 * phase)
    optimize_km = str(30.0 + 0.5 * phase)
    here = f"point_queries/phase{phase}"
    steps = [
        Step(("verify",), "stdout", None, check.check_verify),
        Step(("bounds", "-o", "{out}/bounds.csv"), "bounds.csv", "point_queries/bounds.csv", check.check_bounds),
    ]
    for protocol in ("sarg04", "bb84"):
        steps.append(
            Step(
                ("mu-table", "--n-max", "3", "--distance", table_km,
                 "--protocol", protocol, "-o", "{out}/mu_table.csv"),
                "mu_table.csv",
                f"{here}/mu_table_{protocol}.csv",
                check.check_mu_table,
            )
        )
    for scenario in ("qnd_coherent", "spdc_heralded", "bb84_baseline"):
        steps.append(
            Step(
                ("optimize-mu", "--distance", optimize_km, "--scenario", scenario),
                "stdout",
                f"{here}/optimize_mu_{scenario}.json",
                check.check_optimize,
            )
        )
    rng.shuffle(steps)
    return Workload(steps, points=3)


WORKLOADS = {
    "curves_relay": curves_relay,
    "curves_qnd": curves_qnd,
    "point_queries": point_queries,
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MDI_SARG04_WORKERS", None)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # same set and dict iteration order in every pass
    return env


@dataclass
class StepResult:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    import_s: float | None = None
    trace: dict | None = None


def run_step(step: Step, step_dir: Path, env: dict, traced: bool = False,
             timeout_s: float | None = None) -> StepResult:
    """Run one child to completion, timing it from spawn to reap."""
    step_dir.mkdir(parents=True, exist_ok=True)
    if step.config is not None:
        (step_dir / "config.json").write_text(json.dumps(step.config))
    args = [a.replace("{out}", str(step_dir)) for a in step.args]
    argv = [sys.executable, str(CHILD), str(step_dir), *(["--trace"] if traced else []), *args]
    with open(step_dir / "stdout", "wb") as out, open(step_dir / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT
        )
        watchdog = threading.Timer(timeout_s, proc.kill) if timeout_s is not None else None
        if watchdog:
            watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            if watchdog:
                watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = StepResult(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
    )
    if proc.returncode == 0:
        result.import_s = float((step_dir / "import_s").read_text())
        if traced:
            result.trace = json.loads((step_dir / "spans.json").read_text())
    return result


@dataclass
class PassResult:
    traced: bool
    steps: list[StepResult]
    attempted: int
    failed: int
    messages: list[str]

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.steps)

    @property
    def cpu_s(self) -> float:
        return sum(s.cpu_s for s in self.steps)

    @property
    def rss_mb(self) -> float:
        return max(s.rss_mb for s in self.steps)


def run_pass(workload: Workload, pass_dir: Path, env: dict, traced: bool, kill_at: float) -> PassResult:
    """Run and check every step of the workload once; ``kill_at`` is a
    perf_counter deadline after which a running child is killed."""
    steps, attempted, failed, messages = [], 0, 0, []
    for i, step in enumerate(workload.steps):
        step_dir = pass_dir / f"step{i}"
        timeout = max(kill_at - time.perf_counter(), 0.1)
        result = run_step(step, step_dir, env, traced, timeout)
        steps.append(result)
        path = step_dir / step.output
        text = path.read_text() if result.returncode == 0 and path.exists() else ""
        n, bad = step.check(text, (REFS / step.ref).read_text() if step.ref else None)
        attempted += n
        failed += len(bad)
        messages += [f"{' '.join(step.args)}: {msg}" for msg in bad]
        if result.returncode != 0:
            tail = (step_dir / "stderr").read_text(errors="replace")[-2000:]
            messages.append(f"{' '.join(step.args)}: exit code {result.returncode}\n{tail}")
    return PassResult(traced, steps, attempted, failed, messages)


def import_self_times(env: dict) -> dict[str, float]:
    """Per-module import self time in seconds, from ``-X importtime``."""
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import mdi_sarg04, mdi_sarg04.cli"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    )
    times = {}
    for line in out.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            times[fields[2].strip()] = int(fields[0]) / 1e6
    return times


def import_time(env: dict) -> float:
    """Seconds a fresh interpreter takes to ``import mdi_sarg04``."""
    probe = "import time; t = time.perf_counter(); import mdi_sarg04; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT, capture_output=True,
                         text=True, check=True)
    return float(out.stdout)


def layer_metrics(p: PassResult, points: int) -> dict[str, float]:
    calls = {name: 0 for name in TRACED}
    self_s = {name: 0.0 for name in TRACED}
    cache = {label: (0, 0) for label in CACHES}
    for trace in (step.trace for step in p.steps if step.trace is not None):
        for name, f in trace["functions"].items():
            calls[name] += f["calls"]
            self_s[name] += f["self_s"]
        for label, info in trace["caches"].items():
            if info is not None:
                hits, misses = cache[label]
                cache[label] = (hits + info["hits"], misses + info["misses"])
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    metrics["scenario.evaluate_rate.per_point"] = calls["scenario.evaluate_rate"] / points
    n_bounds = calls["bounds.phase_bound"]
    metrics["bounds.g_type2.per_phase_bound"] = calls["bounds.g_type2"] / n_bounds if n_bounds else 0.0
    for label, (hits, misses) in cache.items():
        metrics[f"cache.{label}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return metrics


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def prepare(env: dict) -> dict:
    """Byte-compile the package and check that it imports from ``src/``."""
    if not (SRC / "mdi_sarg04" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {SRC / 'mdi_sarg04'}")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], env=env, check=True)
    probe = (
        "import json, platform, numpy, mdi_sarg04; print(json.dumps({'python': platform.python_version(),"
        " 'numpy': numpy.__version__, 'package': mdi_sarg04.__file__}))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"error: cannot import mdi_sarg04 from {SRC}\n{out.stderr}")
    info = json.loads(out.stdout)
    if not Path(info.pop("package")).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit("error: mdi_sarg04 was not imported from src/")
    return {"nproc": os.cpu_count(), **info, "git_commit": git_commit()}


def _stats(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values), "n": len(values)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through run_step so that the running child is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    launched = time.perf_counter()
    kill_at = launched + KILL_AFTER_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    check.selftest()
    env = child_env()
    machine = prepare(env)
    rng = random.Random(args.seed)
    phase = rng.randrange(N_PHASES)
    workload = WORKLOADS[args.workload](phase, rng)
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)

    samples: dict[str, list[float]] = {}
    absent = []  # traced names the package no longer has
    if args.trace:
        imports = [import_self_times(env) for _ in range(IMPORTTIME_SAMPLES)]
        for m in wanted:
            name = m["name"]
            if name.startswith("import.") and name.endswith(".self_s"):
                module = name.removeprefix("import.").removesuffix(".self_s")
                if module not in imports[0]:
                    absent.append(name)
                samples[name] = [t.get(module, 0.0) for t in imports]
    else:
        samples["setup_s"] = [import_time(env) for _ in range(SETUP_SAMPLES)]

    start = time.perf_counter()
    passes: list[PassResult] = []
    pass_times: list[float] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        passes.append(run_pass(workload, out_dir / f"pass{len(passes)}", env, traced, kill_at))
        pass_times.append(time.perf_counter() - t0)
        now = time.perf_counter()
        enough = now - start >= args.seconds and len(passes) >= 1 + args.trace
        if enough or now - launched + max(pass_times) > RUN_LIMIT_S:
            break

    plain = [p for p in passes if not p.traced]
    samples["wall_s"] = [p.wall_s for p in plain]
    if args.trace:
        traced_passes = [p for p in passes if p.traced]
        for p in traced_passes:
            for name, value in layer_metrics(p, workload.points).items():
                samples.setdefault(name, []).append(value)
        samples["traced.wall_s"] = [p.wall_s for p in traced_passes]
        samples["trace.overhead_s"] = [
            statistics.median(samples["traced.wall_s"]) - statistics.median(samples["wall_s"])
        ]
        absent += sorted(
            {n for p in traced_passes for step in p.steps if step.trace for n in step.trace["absent"]}
        )
    else:
        samples["cpu_s"] = [p.cpu_s for p in plain]
        samples["peak_rss_mb"] = [p.rss_mb for p in plain]
        samples["setup_s"] += [s.import_s for p in plain for s in p.steps if s.import_s is not None]

    for msg in [msg for p in passes for msg in p.messages][:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    metrics = {}
    for m in wanted:
        if m["name"] not in samples:
            raise SystemExit(f"error: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "phase": phase,
        "trace": args.trace,
        "passes": {"untraced": len(plain), "traced": len(passes) - len(plain)},
        "steps_per_pass": len(workload.steps),
        "machine": machine,
        "absent": absent,
        "samples": {name: _stats(values) for name, values in samples.items()},
    }
    print(json.dumps(info))
    failed = sum(p.failed for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
