"""Checks of one job's output files.

``inspect_outputs`` parses every file a job wrote, rejects any number that
is not finite (a NaN written to a CSV by a process that exits 0 is a
failure), checks the invariants that hold for any seed, and extracts the
values that ``compare_reference`` compares against the values committed in
``reference_values.json``. The reference applies when the scenario's
SHA-256 matches the one recorded with it: always for ``ref_compare``, and
for the default seed of the other workloads.

Tolerances accept round-off from another BLAS build or thread split but
catch a wrong answer: resistances are grid values and must match to 1e-12;
continuous results to 1e-7 relative (FRF columns norm-wise); mode
frequencies to 1e-9 relative; reductions to 1e-6 percentage points.
"""

from __future__ import annotations

import csv
import json
import math
import os
from pathlib import Path

REFERENCE_VALUES = Path(__file__).resolve().parent / "reference_values.json"

GRID_RTOL = 1e-12
VALUE_RTOL = 1e-7
FREQ_RTOL = 1e-9
PCT_ATOL = 1e-6
FRF_ROWS = 60  # rows of each FRF file kept in the reference

WIRINGS = ("separated", "connected")
OUTPUT_FILES = {  # CLI command (None: descent job) -> files it writes
    "modes": {"modes.csv"},
    "frf": {"frf.csv"},
    "compare": {"report.json", *(f"sweep_{m}.csv" for m in WIRINGS),
                *(f"frf_{m}_{c}.csv" for m in WIRINGS for c in ("oc", "opt"))},
    None: {"descent.json"},
}


class OutputError(Exception):
    """An output file is malformed or breaks an invariant."""


def _finite(value, where: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return
    if not math.isfinite(value):
        raise OutputError(f"{where}: non-finite number {value!r}")


def _walk_json(obj, where: str):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _walk_json(v, f"{where}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _walk_json(v, f"{where}[{i}]")
    else:
        _finite(obj, where)


def read_json(path: Path):
    obj = json.loads(path.read_text(encoding="utf-8"))
    _walk_json(obj, path.name)
    return obj


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    """Header and float rows; every field must parse to a finite number."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for n, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise OutputError(f"{path.name}:{n}: {len(row)} fields, header has {len(header)}")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise OutputError(f"{path.name}:{n}: {exc}") from None
            for v in values:
                _finite(v, f"{path.name}:{n}")
            rows.append(values)
    if not rows:
        raise OutputError(f"{path.name}: no data rows")
    return header, rows


def _frf_sample(path: Path) -> dict[str, list[float]]:
    header, rows = read_csv(path)
    stride = max(1, len(rows) // FRF_ROWS)
    kept = rows[::stride][:FRF_ROWS]
    return {name: [r[i] for r in kept] for i, name in enumerate(header)}


def _in_range(r: float, lo: float, hi: float, what: str):
    if not lo <= r <= hi:
        raise OutputError(f"{what} {r!r} lies outside the sweep range [{lo!r}, {hi!r}]")


def inspect_outputs(command: str | None, out_dir: Path, scenario: dict) -> dict:
    """Check every output file of one job; return the values to compare."""
    out_dir = Path(out_dir)
    written = set(os.listdir(out_dir))
    if written != OUTPUT_FILES[command]:
        raise OutputError(f"expected files {sorted(OUTPUT_FILES[command])}, "
                          f"found {sorted(written)}")
    sweep = scenario.get("sweep", {})
    r_min, r_max = sweep.get("r_min_ohms", 100.0), sweep.get("r_max_ohms", 1e6)
    values: dict = {}
    if command == "modes":
        header, rows = read_csv(out_dir / "modes.csv")
        values["freq_hz"] = [r[header.index("freq_hz")] for r in rows]
    elif command == "frf":
        values["frf"] = _frf_sample(out_dir / "frf.csv")
    elif command == "compare":
        report = read_json(out_dir / "report.json")
        for mode in WIRINGS:
            side = report[mode]
            _in_range(side["r_opt_ohms"], r_min, r_max, f"{mode} sweep optimum")
            values[f"{mode}.r_opt_ohms"] = side["r_opt_ohms"]
            values[f"{mode}.objective"] = side["objective_peak_velocity_ms_per_n"]
            values[f"{mode}.reduction_pct"] = [row[mode]["reduction_pct"]
                                               for row in report["modes"]]
            read_csv(out_dir / f"sweep_{mode}.csv")
            for case in ("oc", "opt"):
                values[f"frf_{mode}_{case}"] = _frf_sample(out_dir / f"frf_{mode}_{case}.csv")
    else:
        result = read_json(out_dir / "descent.json")
        _in_range(result["uniform_r_opt_ohms"], r_min, r_max, "uniform sweep optimum")
        for r in result["resistances_ohms"]:
            _in_range(r, r_min, r_max, "per-patch resistance")
        if not result["objective_ms_per_n"] <= result["uniform_objective_ms_per_n"]:
            raise OutputError("descent objective exceeds the uniform optimum")
        values.update(result)
    return values


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _norm_rel(a: list[float], b: list[float]) -> float:
    if len(a) != len(b):
        return math.inf
    diff = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    ref = math.sqrt(sum(y * y for y in b))
    return diff / ref if ref else diff


def compare_reference(values: dict, reference: dict) -> list[str]:
    """Differences between a job's values and the committed reference."""
    problems = []
    for key, ref in reference.items():
        got = values.get(key)
        if got is None:
            problems.append(f"{key}: missing")
        elif isinstance(ref, dict):  # an FRF sample, column by column
            for col, ref_col in ref.items():
                err = _norm_rel(got.get(col, []), ref_col)
                if not err <= VALUE_RTOL:
                    problems.append(f"{key}.{col}: norm-wise relative error {err:.3g}")
        elif key == "freq_hz":
            worst = max((_rel(a, b) for a, b in zip(got, ref)), default=0.0)
            if len(got) != len(ref) or not worst <= FREQ_RTOL:
                problems.append(f"freq_hz: relative error {worst:.3g}")
        elif key.endswith("reduction_pct"):
            worst = max((abs(a - b) for a, b in zip(got, ref)), default=0.0)
            if len(got) != len(ref) or not worst <= PCT_ATOL:
                problems.append(f"{key}: differs by {worst:.3g} percentage points")
        elif key.endswith("_ohms"):
            got, ref = (got, ref) if isinstance(ref, list) else ([got], [ref])
            worst = max((_rel(a, b) for a, b in zip(got, ref)), default=0.0)
            if len(got) != len(ref) or not worst <= GRID_RTOL:
                problems.append(f"{key}: relative error {worst:.3g}")
        elif not _rel(got, ref) <= VALUE_RTOL:
            problems.append(f"{key}: {got!r} against reference {ref!r}")
    return problems


def load_reference(workload: str, scenario_sha256: str) -> dict | None:
    """Committed reference values for this workload, if the scenario matches."""
    entry = json.loads(REFERENCE_VALUES.read_text(encoding="utf-8")).get(workload)
    if entry is None or entry["scenario_sha256"] != scenario_sha256:
        return None
    return entry["values"]
