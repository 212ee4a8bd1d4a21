"""Correctness checks for the benchmark's outputs against stored references.

Every operation (one sweep distance point or one CLI query) is compared
with the output the seed commit produced for the same input, stored under
``perfbench/refs``.  An operation fails when its process exits nonzero,
when it prints a non-finite value, a negative key rate or an error rate
outside [0, 1], or when it drifts from the reference by more than:

* ``TIGHT`` for outputs of fixed inputs (the ``bounds`` and ``mu-table``
  tables, and the distance column); the CSVs carry 12 significant digits;
* ``MU_REL_TOL`` relative for ``mu_opt`` and every column that depends on
  the optimised mean photon number, which is the relative tolerance of the
  seed commit's golden-section search over mu.

Run ``python3 perfbench/check.py`` to self-test the checks: it perturbs
reference outputs and confirms that each perturbation is counted as failed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

MU_REL_TOL = 1e-4
# (relative, absolute) tolerances
TIGHT = (1e-9, 1e-15)
MU_DEPENDENT = (MU_REL_TOL, 1e-15)
# sweep CSV columns and optimize-mu JSON keys that depend on the optimised mu
MU_COLUMNS = frozenset(
    ("mu_opt", "G1", "G2", "total", "total_per_pulse", "e_tot_1", "e_tot_2", "p_herald")
)

_VERIFY_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


def close(value: float, ref: float, tol: tuple[float, float]) -> bool:
    rel, absolute = tol
    return abs(value - ref) <= rel * max(abs(value), abs(ref)) + absolute


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _row_errors(row: dict[str, str], ref: dict[str, str]) -> list[str]:
    errors = []
    for col, ref_text in ref.items():
        try:
            value = float(row.get(col) or "nan")
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            errors.append(f"{col}={row.get(col)!r} is not a finite number")
        elif not close(value, float(ref_text), MU_DEPENDENT if col in MU_COLUMNS else TIGHT):
            errors.append(f"{col}={value!r} drifts from reference {ref_text}")
    return errors


def _physical_errors(row: dict[str, str]) -> list[str]:
    errors = []
    if "total" in row and float(row["total"]) < 0:
        errors.append(f"total={row['total']} is negative")
    for col in ("e_tot_1", "e_tot_2"):
        if col in row and not 0.0 <= float(row[col]) <= 1.0:
            errors.append(f"{col}={row[col]} outside [0, 1]")
    return errors


def check_table(text: str, ref_text: str, key: tuple[str, ...]) -> tuple[int, list[str]]:
    """Compare a CSV table row by row; returns (rows attempted, failures).

    Each reference row is one operation; a row missing from the output
    counts as failed.
    """
    ref_rows = _rows(ref_text)
    try:
        rows = {tuple(r[k] for k in key): r for r in _rows(text)}
    except (KeyError, csv.Error) as exc:
        return len(ref_rows), [f"unreadable table: {exc!r}"] * len(ref_rows)
    failures = []
    for ref in ref_rows:
        k = tuple(ref[c] for c in key)
        row = rows.get(k)
        if row is None:
            failures.append(f"row {k} missing")
            continue
        errors = _row_errors(row, ref)
        if not errors:
            errors = _physical_errors(row)
        if errors:
            failures.append(f"row {k}: " + "; ".join(errors))
    return len(ref_rows), failures


def check_sweep(text: str, ref_text: str) -> tuple[int, list[str]]:
    return check_table(text, ref_text, ("distance_km",))


def check_bounds(text: str, ref_text: str) -> tuple[int, list[str]]:
    """The whole ``bounds`` table is one operation."""
    return 1, check_table(text, ref_text, ("s",))[1][:1]


def check_mu_table(text: str, ref_text: str) -> tuple[int, list[str]]:
    """The whole ``mu-table`` table is one operation."""
    return 1, check_table(text, ref_text, ("n", "m"))[1][:1]


def check_optimize(text: str, ref_text: str) -> tuple[int, list[str]]:
    ref = json.loads(ref_text)
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return 1, [f"unreadable JSON: {exc}"]
    if out.get("zero_rate") != ref["zero_rate"]:
        return 1, [f"zero_rate={out.get('zero_rate')!r}, reference {ref['zero_rate']!r}"]
    numbers = {k: str(v) for k, v in ref.items() if k != "zero_rate"}
    row = {k: str(out.get(k)) for k in numbers}
    errors = _row_errors(row, numbers)
    if not errors:
        errors = _physical_errors(row)
    return 1, ["; ".join(errors)] if errors else []


def check_verify(text: str, ref_text: str | None = None) -> tuple[int, list[str]]:
    """Every check of the battery must pass; there is no reference file."""
    lines = text.strip().splitlines()
    match = _VERIFY_SUMMARY.match(lines[-1]) if lines else None
    if match is None:
        return 1, ["no 'N/M checks passed' summary line"]
    passed, total = int(match[1]), int(match[2])
    if total == 0 or passed < total:
        return 1, [f"verify: {passed}/{total} checks passed"]
    return 1, []


def _perturb_cell(text: str, row: int, col: str, fn) -> str:
    rows = _rows(text)
    rows[row][col] = fn(rows[row][col])
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(f"check self-test: {message}")


def selftest() -> None:
    """Raise AssertionError unless perturbed outputs count as failed."""
    sweep = (REFS / "curves_qnd" / "phase0" / "qnd_coherent.csv").read_text()
    _expect(check_sweep(sweep, sweep) == (121, []), "reference sweep does not match itself")
    n, failures = check_sweep("", sweep)
    _expect(n == 121 and len(failures) == 121, "empty sweep output not counted as 121 failures")

    def scale(factor):
        return lambda v: repr(float(v) * factor)

    inside = _perturb_cell(sweep, 10, "mu_opt", scale(1 + MU_REL_TOL / 10))
    _expect(not check_sweep(inside, sweep)[1], "perturbation inside the tolerance counted as failed")
    for col, fn in (
        ("mu_opt", scale(1 + 3 * MU_REL_TOL)),
        ("G1", scale(1 - 3 * MU_REL_TOL)),
        ("distance_km", lambda v: repr(float(v) + 1e-6)),
        ("total", lambda v: "nan"),
    ):
        bad = _perturb_cell(sweep, 10, col, fn)
        _expect(len(check_sweep(bad, sweep)[1]) == 1, f"perturbed {col} not counted as failed")
    # physically meaningless rows fail even when the reference agrees
    for col, value in (("total", "-1e-9"), ("e_tot_1", "1.5"), ("e_tot_2", "-0.1")):
        bad = _perturb_cell(sweep, 10, col, lambda v: value)
        _expect(len(check_sweep(bad, bad)[1]) == 1, f"{col}={value} not counted as failed")

    table = (REFS / "point_queries" / "bounds.csv").read_text()
    _expect(check_bounds(table, table) == (1, []), "reference bounds table does not match itself")
    bad = _perturb_cell(table, 40, "e_ph_12_t2", scale(1 + 1e-7))
    n, failures = check_bounds(bad, table)
    _expect(n == 1 and len(failures) == 1, "perturbed bounds table not counted as one failure")

    ref = (REFS / "point_queries" / "phase0" / "optimize_mu_qnd_coherent.json").read_text()
    _expect(check_optimize(ref, ref) == (1, []), "reference optimize-mu output does not match itself")
    out = json.loads(ref)
    out["mu_opt"] *= 1 + 3 * MU_REL_TOL
    _expect(bool(check_optimize(json.dumps(out), ref)[1]), "perturbed optimize-mu not counted as failed")
    _expect(bool(check_optimize("", ref)[1]), "empty optimize-mu output not counted as failed")

    _expect(check_verify("22/22 checks passed\n") == (1, []), "passing verify counted as failed")
    _expect(bool(check_verify("21/22 checks passed\n")[1]), "failed verify check not counted")


if __name__ == "__main__":
    selftest()
    print("check self-test passed")
