"""Reading `pvlab sweep` CSV output: failed units, unit times and the check
against committed reference outputs.

Rows are read by column name, so a later header that adds columns still
compares on the columns named here.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict

# A row whose value fields are all empty is an error row: the unit raised.
VALUE_FIELDS = ("l2_error", "entrywise_err", "statistic", "adv")

# Floats may move by this much relative to the reference (BLAS kernels may
# reorder sums); a success bit may not move at all.
REL_TOL = 1e-6

Unit = tuple[int, int, float, int]


def parse_rows(csv_text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(csv_text)))


def unit_of(row: dict) -> Unit:
    return int(row["N"]), int(row["n"]), float(row["rho"]), int(row["trial"])


def is_error_row(row: dict) -> bool:
    return all(not row.get(f) for f in VALUE_FIELDS)


def failed_units(rows: list[dict] | None, units: list[Unit], tasks: tuple[str, ...]) -> int:
    """Units that did not complete: every unit of a sweep that raised (rows is
    None), and each unit with a missing task row or an error row."""
    if rows is None:
        return len(units)
    by_unit: dict[Unit, list[dict]] = defaultdict(list)
    for row in rows:
        by_unit[unit_of(row)].append(row)
    failed = 0
    for unit in units:
        got = by_unit.get(unit, [])
        if sorted(r["task"] for r in got) != sorted(tasks) or any(map(is_error_row, got)):
            failed += 1
    return failed


def error_rows(rows: list[dict] | None) -> int:
    return sum(map(is_error_row, rows or []))


def unit_times_ms(rows: list[dict]) -> dict[Unit, float]:
    """Time of each unit: its rows' `elapsed_ms` summed."""
    out: dict[Unit, float] = defaultdict(float)
    for row in rows:
        if row.get("elapsed_ms"):
            out[unit_of(row)] += float(row["elapsed_ms"])
    return dict(out)


def without_timing(rows: list[dict]) -> list[tuple]:
    """Rows with the wall-clock column dropped, for run-to-run comparison."""
    return [tuple(v for k, v in row.items() if k != "elapsed_ms") for row in rows]


def _key(row: dict) -> tuple:
    return unit_of(row) + (row["task"],)


def compare_to_reference(rows: list[dict], reference: list[dict]) -> list[str]:
    """Differences that fail the output check: a row missing on either side,
    a success bit that differs, or a value field that leaves REL_TOL."""
    got = {_key(r): r for r in rows}
    want = {_key(r): r for r in reference}
    issues = [f"missing row {k}" for k in want.keys() - got.keys()]
    issues += [f"unexpected row {k}" for k in got.keys() - want.keys()]
    for key in want.keys() & got.keys():
        g, w = got[key], want[key]
        if g["success"] != w["success"]:
            issues.append(f"{key}: success {g['success']} != reference {w['success']}")
        for f in VALUE_FIELDS:
            a, b = g.get(f, ""), w.get(f, "")
            if (a == "") != (b == ""):
                issues.append(f"{key}: {f} {a!r} vs reference {b!r}")
            elif a and not math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=0.0):
                issues.append(f"{key}: {f} {a} vs reference {b} beyond rel_tol {REL_TOL:g}")
    return sorted(issues)
