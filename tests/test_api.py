"""The package's public names."""

import ast
import os
import pathlib
import subprocess
import sys
import types

import pytest

import mdi_sarg04


def test_every_export_resolves():
    missing = [name for name in mdi_sarg04.__all__ if not hasattr(mdi_sarg04, name)]
    assert not missing
    assert len(set(mdi_sarg04.__all__)) == len(mdi_sarg04.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from mdi_sarg04 import *", namespace)
    assert set(mdi_sarg04.__all__) <= set(namespace)


_IMPORT_PROBE = """
import sys, tempfile
import mdi_sarg04

RATE_PATH = ("config", "optics", "sources", "bounds", "rates", "scenario")

def loaded(*names):
    return {name: name in sys.modules for name in names}

proof = ("mdi_sarg04.linalg", "mdi_sarg04.povm", "mdi_sarg04.verify")
out = {
    "import": loaded(*(f"mdi_sarg04.{m}" for m in RATE_PATH)),
    "absent": loaded(*proof, "numpy", "json"),
}
from mdi_sarg04 import cli

with tempfile.TemporaryDirectory() as tmp:
    assert cli.main(["bounds", "-o", f"{tmp}/bounds.csv"]) == 0
    assert cli.main(["mu-table", "-o", f"{tmp}/mu.csv"]) == 0
out["rate_commands"] = loaded(*proof)
assert cli.main(["verify"]) == 0
out["verify"] = loaded(*proof)
out["numpy"] = loaded("numpy")
out["same"] = mdi_sarg04.verify_suite is mdi_sarg04.verify.verify_suite
print(repr(out))
"""


def test_import_loads_the_rate_path_only():
    """A fresh `import mdi_sarg04` loads the rate path only; the
    security-proof modules wait until `verify` uses them, json is not
    loaded, and numpy is never loaded, not even by `verify`."""
    src = os.path.dirname(os.path.dirname(mdi_sarg04.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    out = ast.literal_eval(run.stdout.splitlines()[-1])
    assert all(out["import"].values()), out["import"]
    assert not any(out["absent"].values()), out["absent"]
    assert not any(out["rate_commands"].values()), out["rate_commands"]
    assert all(out["verify"].values()), out["verify"]
    assert not any(out["numpy"].values()), out["numpy"]
    assert out["same"]


_DATACLASSES_PROBE = """
import io, sys, contextlib
from mdi_sarg04.cli import main

unused = ["dataclasses", "argparse", "gettext", "locale", "numpy"]
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(sys.argv[1:])
print(out.getvalue().splitlines()[-1])
print(repr((code, any(m in sys.modules for m in unused))))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["rate-curve", "--distance", "10"],
        ["bounds"],
        ["mu-table", "--n-max", "3"],
        ["optimize-mu", "--distance", "10"],
        ["rate-curve", "-h"],
        ["mu-table", "--n-max", "3", "--protocol", "bb84"],
        ["optimize-mu", "--distance", "10", "--scenario", "spdc_heralded"],
        ["optimize-mu", "--distance", "10", "--scenario", "bb84_baseline"],
        ["rate-curve", "--distance", "10", "--scenario", "spdc_heralded"],
        ["rate-curve", "--distance", "10", "--scenario", "bb84_baseline"],
    ],
    ids=" ".join,
)
def test_cli_process_imports_no_dataclasses(argv):
    """Every record is a NamedTuple, so no CLI process pays for importing
    `dataclasses` or for building a dataclass; the CLI reads its arguments
    from its own option table, so no CLI process imports `argparse` or the
    `gettext` and `locale` modules it loads; and every module is plain
    Python, so no process imports numpy."""
    src = os.path.dirname(os.path.dirname(mdi_sarg04.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cmd = [sys.executable, "-c", _DATACLASSES_PROBE, *argv]
    run = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert ast.literal_eval(run.stdout.splitlines()[-1]) == (0, False)
    if argv == ["verify"]:
        assert run.stdout.splitlines()[-2] == "23/23 checks passed"


_NO_NUMPY_PROBE = """
import importlib.abc, io, sys, contextlib, tempfile


class BlockNumpy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, BlockNumpy())
try:
    import numpy
except ImportError:
    pass
else:
    raise AssertionError("numpy was importable")
from mdi_sarg04.cli import main

with tempfile.TemporaryDirectory() as tmp:
    runs = {
        "verify": ["verify"],
        "bounds": ["bounds", "-o", f"{tmp}/bounds.csv"],
        "mu-table": ["mu-table", "--n-max", "3", "-o", f"{tmp}/mu.csv"],
        "rate-curve": ["rate-curve", "--distance", "10", "-o", f"{tmp}/curve.csv"],
        "optimize-mu": ["optimize-mu", "--distance", "10"],
    }
    codes, last = {}, {}
    for name, argv in runs.items():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            codes[name] = main(argv)
        last[name] = out.getvalue().splitlines()[-1:]
print(repr((codes, last["verify"])))
"""


def test_every_command_runs_with_numpy_unimportable():
    """No module needs numpy: with `import numpy` made to fail, all five
    subcommands exit 0, and `verify` passes every check."""
    src = os.path.dirname(os.path.dirname(mdi_sarg04.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _NO_NUMPY_PROBE], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    codes, verify_tail = ast.literal_eval(run.stdout.splitlines()[-1])
    assert codes == dict.fromkeys(["verify", "bounds", "mu-table", "rate-curve", "optimize-mu"], 0)
    assert verify_tail == ["23/23 checks passed"]


def test_lazy_names_resolve_once_and_are_listed():
    assert set(mdi_sarg04.__all__) | {"povm", "verify"} <= set(dir(mdi_sarg04))
    assert isinstance(mdi_sarg04.povm, types.ModuleType)
    assert isinstance(mdi_sarg04.verify, types.ModuleType)
    assert mdi_sarg04.build_povm is mdi_sarg04.povm.build_povm
    # cached in the module globals: the next lookup does not reach __getattr__
    assert vars(mdi_sarg04)["build_povm"] is mdi_sarg04.povm.build_povm
    with pytest.raises(AttributeError):
        mdi_sarg04.no_such_name


def test_no_unused_imports():
    """Every name a module imports is used in it; the package's own
    re-exports, listed in `__all__`, count as used."""
    package = pathlib.Path(mdi_sarg04.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= set(mdi_sarg04.__all__)
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused, unused
