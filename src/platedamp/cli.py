"""Command-line front end.

    platedamp <command> --config <path> --out <dir>

Commands:
    modes    write modes.csv (frequencies, per-patch coupling, capacitance)
    frf      write frf.csv for the configured topology and loads
    sweep    write sweep.csv and report.json for the configured topology
    compare  run separated and connected with their own sweep optima and
             write a combined report.json plus sweep/FRF data for both

CSV numbers are written with 17 significant digits, and report.json numbers
as ``json.dumps`` writes them: the shortest repr that reads back to the same
double. With fixed newlines, repeated runs produce byte-identical files at
any OpenBLAS thread count. A CSV file holds exactly the bytes
``np.savetxt(fmt="%.17g", delimiter=",")`` writes for its rows:
``_csv_format`` works out the digits and layout of a block of numbers at once
with numpy and passes only the numbers it cannot certify, such as exact ties,
to CPython's own formatting. NaN or inf is refused before a file is opened.
Exit codes: 0 success, 2 configuration error, unusable ``--out`` or an unknown
option, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .config import SWEEP_RANGE_KEYS, ScenarioConfig, parse_config, to_dict
from .electromech import with_coupling
from .errors import AssemblyError, ConfigError, DomainError, SolverError
# frf_connected and frf_separated are not called here; bench/test_bench.py
# checks that tracing wraps their bindings in this module
from .response import (FrfResult, ImpedanceLaw, ShuntTopology, frf,
                       frf_connected, frf_separated, retained_mode_count)
from .ritz import ModalModel, build_model
from .tuning import (ModeReduction, SweepResult, SweepSpec, mode_windows,
                     percent_reduction, sweep_resistance)

_CSV_BLOCK_VALUES = 4096  # numbers formatted per block: one block's arrays stay under 1 MB
_POW10_SPAN = 300  # the table holds 10**n for |n| <= 300; other scales take the fallback
# A number's field before padding is dropped: sign, "0.000", the digits d0..d16 each
# followed by a slot for the point (d_i at byte 6 + 2i), "e", the exponent's sign and
# three digits, and the separator.
_FIELD = 45


@functools.cache
def _csv_tables():
    """Tables for ``_csv_digits`` and ``_csv_format``, built on the first write.

    ``pow10[:, n + _POW10_SPAN]`` is 10**n as a double-double ``hi + lo``, with
    ``hi`` split into its upper 26 bits and the rest for Dekker's product.
    ``keep[(neg * 23 + cat) * 17 + k - 1]`` marks the field bytes ``%.17g``
    prints for a number with sign ``neg``, ``k`` digits kept after trailing
    zeros are dropped, and category ``cat``: X + 4 for fixed notation
    (-4 <= X <= 16), 21 for a two-digit exponent, 22 for a three-digit one.
    ``template`` is a field with every constant byte in place; ``quads[i]``
    and ``exponents[X + 324]`` are the characters of ``"%04d" % i`` and of
    ``"%+04d" % X``.
    """
    pow10 = np.empty((4, 2 * _POW10_SPAN + 1))
    for i, n in enumerate(range(-_POW10_SPAN, _POW10_SPAN + 1)):
        num, den = (10 ** n, 1) if n >= 0 else (1, 10 ** -n)
        hi = num / den  # int / int rounds correctly
        a, b = hi.as_integer_ratio()
        split = 134217729.0 * hi
        upper = split - (split - hi)
        pow10[:, i] = hi, (num * b - a * den) / (den * b), upper, hi - upper

    neg, cat, k = (g[..., None] for g in np.meshgrid(
        [0, 1], np.arange(23), np.arange(1, 18), indexing="ij"))
    fixed, x = cat <= 20, cat - 4
    col = np.arange(_FIELD)
    i = (col - 6) // 2  # the digit at, or just before, this byte
    digits = (col >= 6) & (col <= 38)
    keep = ((col == 0) & (neg == 1)  # sign
            | (col >= 1) & (col <= 5) & fixed & (x < 0) & (col - 3 < -x - 1)  # "0.00"
            | digits & (col % 2 == 0) & ((i < k) | fixed & (i <= x))  # digits, integer zeros
            | digits & (col % 2 == 1) & (i + 1 < k) & (i == np.where(fixed, x, 0))  # point
            | (col >= 39) & (col <= 43) & ~fixed & ((col != 41) | (cat == 22))  # exponent
            | (col == 44))  # separator
    template = np.full(_FIELD, ord("0"), np.uint8)
    template[[0, 2, 39, 44]] = list(b"-.e,")
    template[7:39:2] = ord(".")

    def decimal(values, width):  # the characters of "%0*d" % (width, v), v >= 0
        return (values[:, None] // 10 ** np.arange(width - 1, -1, -1, dtype=np.int16) % 10
                + ord("0")).astype(np.uint8)

    exponent = np.arange(-324, 309, dtype=np.int16)
    exponents = np.column_stack([np.where(exponent < 0, ord("-"), ord("+")).astype(np.uint8),
                                 decimal(np.abs(exponent), 3)])
    return (pow10, keep.reshape(-1, _FIELD), template,
            decimal(np.arange(10000, dtype=np.int16), 4), exponents)


def _csv_digits(x):
    """Each |x| rounded to 17 significant digits, as ``"%.16e" % x`` rounds it:
    the integer D in [1e16, 1e17) and the decimal exponent X of D * 10**(X - 16).
    A zero gives D = X = 0.

    With n = 16 - floor(log10 |x|), clipped to the table, y = |x| * 10**n is
    found as p + q to about 1e-14 by Dekker's exact product with the
    double-double power; pure float64, no FMA. D = round(y) and X = 16 - n are
    certain, whatever log10 returned, when floor(y) and D lie in [1e16, 1e17)
    and frac(y) is more than 1e-6 from one half. Every other number (ties, a carry into
    the next decade, a log10 one off next to a power of ten, a split that
    overflows to NaN, a scale past the table) is parsed from ``"%.16e" % x``.
    """
    pow10 = _csv_tables()[0]
    ax = np.abs(x)
    zero = ax == 0.0
    ax[zero] = 1.0
    n = np.clip(16 - np.floor(np.log10(ax)).astype(np.int64), -_POW10_SPAN, _POW10_SPAN)
    hi, lo, hi_upper, hi_lower = pow10.take(n + _POW10_SPAN, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        upper = 134217729.0 * ax
        upper -= upper - ax
        lower = ax - upper
        p = ax * hi
        q = upper * hi_upper - p
        q += upper * hi_lower
        q += lower * hi_upper
        q += lower * hi_lower  # ax * hi == p + q exactly
        q += ax * lo
        floor_q = np.floor(q)
        frac = q - floor_q
        ok = np.abs(frac - 0.5) > 1e-6
    floor_y = p.astype(np.int64) + np.where(ok, floor_q, 0.0).astype(np.int64)
    D = floor_y + (frac > 0.5)
    ok &= (floor_y >= 10 ** 16) & (D < 10 ** 17)
    X = 16 - n
    slow = np.flatnonzero(~ok)
    if len(slow):
        text = ["%.16e" % v for v in ax[slow].tolist()]
        D[slow] = [int(s[0] + s[2:18]) for s in text]
        X[slow] = [int(s[19:]) for s in text]
    D[zero] = 0
    X[zero] = 0
    return D, X


def _csv_format(rows):
    """The bytes ``np.savetxt(fh, rows, fmt="%.17g", delimiter=",")`` writes for
    a 2-D float64 block."""
    _, keep, template, quads, exponents = _csv_tables()
    x = rows.ravel()
    D, X = _csv_digits(x)
    chars = np.empty((len(x), _FIELD), np.uint8)
    chars[:] = template
    zero = D == 0
    for i in (13, 9, 5, 1):  # digits i..i+3, four at a time, last first
        top = D // 10000
        chars[:, 6 + 2 * i:14 + 2 * i:2] = quads.take(D - 10000 * top, axis=0)
        D = top
    chars[:, 6] = D + ord("0")
    chars[:, 40:44] = exponents.take(X + 324, axis=0)
    chars[rows.shape[1] - 1::rows.shape[1], 44] = ord("\n")
    k = 17 - np.argmax(chars[:, 38:5:-2] != ord("0"), axis=1)
    k[zero] = 1
    cat = np.where((X >= -4) & (X <= 16), X + 4, np.where(np.abs(X) >= 100, 22, 21))
    code = (np.signbit(x) * 23 + cat) * 17 + k - 1
    chars *= keep.take(code, axis=0)  # a dropped byte becomes 0, which no field holds
    return chars.tobytes().translate(None, b"\0")


def _write_csv(path: str, header: list[str], columns) -> None:
    """Write the header line, then the rows of ``columns`` (1-D columns and
    2-D groups of columns of equal length), each block of rows cut straight
    from the columns."""
    if not all(np.isfinite(c).all() for c in columns):
        raise SolverError(f"non-finite number in {os.path.basename(path)}")
    width = sum(1 if np.ndim(c) == 1 else np.shape(c)[1] for c in columns)
    step = max(1, _CSV_BLOCK_VALUES // width)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(columns[0]), step):
            rows = np.column_stack([c[start:start + step] for c in columns])
            fh.write(_csv_format(rows.astype(np.float64, copy=False)))


def _write_json(path: str, obj) -> None:
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise SolverError(f"non-finite number in {os.path.basename(path)}") from exc
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def _build(config: ScenarioConfig) -> ModalModel:
    return with_coupling(build_model(config.plate, config.patches, config.basis))


def write_modes_csv(path: str, model: ModalModel) -> None:
    k = len(model.patches)
    header = ["mode", "freq_hz"]
    header += [f"theta_p{i + 1}" for i in range(k)]
    header += [f"cap_p{i + 1}_farad" for i in range(k)]
    n = model.n_modes
    _write_csv(path, header, [np.arange(1, n + 1), model.frequencies_hz, model.coupling,
                              np.tile(model.capacitances, (n, 1))])


def write_frf_csv(path: str, result: FrfResult) -> None:
    k = result.voltages.shape[1]
    header = ["freq_hz", "disp_re", "disp_im", "vel_re", "vel_im", "|vel|"]
    for i in range(k):
        header += [f"v{i + 1}_re", f"v{i + 1}_im"]
    _write_csv(path, header, [result.frequencies_hz,
                              result.displacement.real, result.displacement.imag,
                              result.velocity.real, result.velocity.imag,
                              np.abs(result.velocity),
                              # v1_re, v1_im, v2_re, ...: the voltages' own memory layout
                              np.ascontiguousarray(result.voltages).view(np.float64)])


def write_sweep_csv(path: str, sweep_result: SweepResult) -> None:
    _write_csv(path, ["resistance_ohm", "peak_velocity_ms_per_n", "peak_freq_hz"],
               [sweep_result.r_values, sweep_result.objective_values,
                sweep_result.peak_freqs_hz])


def _report_entries(reductions: tuple[ModeReduction, ...]) -> list[dict]:
    """One row per mode window; a window without grid points has no peaks: null."""
    def number(x):
        return x if math.isfinite(x) else None

    out = []
    for e in reductions:
        item = {
            "mode": e.mode,
            "window_hz": [e.window_hz[0], e.window_hz[1]],
            "oc_peak_ms_per_n": number(e.oc_peak),
            "oc_peak_hz": number(e.oc_peak_hz),
            "shunted_peak_ms_per_n": number(e.shunted_peak),
            "shunted_peak_hz": number(e.shunted_peak_hz),
            "reduction_pct": number(e.reduction_pct),
            "flagged": e.flagged,
        }
        if e.note:
            item["note"] = e.note
        out.append(item)
    return out


def _metadata(config: ScenarioConfig, model: ModalModel) -> dict:
    scenario = to_dict(config)
    meta = {
        "basis": scenario["basis"],
        "mode_count": model.n_modes,
        "retained_modes": retained_mode_count(model, config.grid.frequencies()),
        "grid": scenario["grid"],
    }
    if config.sweep is not None:
        meta["sweep"] = {key: scenario["sweep"][key] for key, *_ in SWEEP_RANGE_KEYS}
    return meta


def _run_topology(config: ScenarioConfig, model: ModalModel, mode: str, sweep: SweepSpec):
    """Sweep one topology, then evaluate its OC baseline and optimum FRFs,
    the optimum's per-load resistances and its mode reductions."""
    grid = config.grid.frequencies()
    k = len(model.patches)
    sweep_result = sweep_resistance(model, config.force, config.target, grid,
                                    sweep, topology_mode=mode)
    oc = ShuntTopology.uniform(mode, k, ImpedanceLaw.open())
    opt = ShuntTopology.uniform(mode, k, ImpedanceLaw.resistor(sweep_result.r_opt))
    frf_oc = frf(model, oc, config.force, config.target, grid)
    frf_opt = frf(model, opt, config.force, config.target, grid)
    windows = mode_windows(model, sweep.report_modes, grid)
    reductions = percent_reduction(frf_oc, frf_opt, windows)
    return sweep_result, frf_oc, frf_opt, [law.ohms for law in opt.loads], reductions


def cmd_modes(config: ScenarioConfig, out_dir: str, threads: int) -> None:
    model = _build(config)
    write_modes_csv(os.path.join(out_dir, "modes.csv"), model)


def cmd_frf(config: ScenarioConfig, out_dir: str, threads: int) -> None:
    model = _build(config)
    result = frf(model, config.topology, config.force, config.target,
                 config.grid.frequencies())
    write_frf_csv(os.path.join(out_dir, "frf.csv"), result)


def cmd_sweep(config: ScenarioConfig, out_dir: str, threads: int) -> None:
    model = _build(config)
    sweep = config.sweep if config.sweep is not None else SweepSpec()
    mode = config.topology.mode
    sweep_result, _, _, resistances, reductions = _run_topology(config, model, mode, sweep)
    write_sweep_csv(os.path.join(out_dir, "sweep.csv"), sweep_result)
    _write_json(os.path.join(out_dir, "report.json"), {
        "command": "sweep",
        "topology": mode,
        "r_opt_ohms": sweep_result.r_opt,
        "objective_peak_velocity_ms_per_n": sweep_result.objective_opt,
        "objective_peak_hz": sweep_result.peak_hz_opt,
        "resistances_ohms": resistances,
        "reductions": _report_entries(reductions),
        "metadata": _metadata(config, model),
    })


def cmd_compare(config: ScenarioConfig, out_dir: str, threads: int) -> None:
    if not config.patches:
        raise DomainError("compare runs the connected wiring, which requires at least one patch")
    model = _build(config)
    sweep = config.sweep if config.sweep is not None else SweepSpec()
    sides = {}
    mode_rows: list[dict] = []
    for mode in ("separated", "connected"):
        sweep_result, frf_oc, frf_opt, resistances, reductions = _run_topology(
            config, model, mode, sweep)
        write_sweep_csv(os.path.join(out_dir, f"sweep_{mode}.csv"), sweep_result)
        write_frf_csv(os.path.join(out_dir, f"frf_{mode}_oc.csv"), frf_oc)
        write_frf_csv(os.path.join(out_dir, f"frf_{mode}_opt.csv"), frf_opt)
        sides[mode] = {
            "r_opt_ohms": sweep_result.r_opt,
            "objective_peak_velocity_ms_per_n": sweep_result.objective_opt,
            "resistances_ohms": resistances,
        }
        for i, entry in enumerate(_report_entries(reductions)):
            if len(mode_rows) <= i:
                mode_rows.append({"mode": entry["mode"],
                                  "window_hz": entry["window_hz"]})
            row = dict(entry)
            row.pop("mode")
            row.pop("window_hz")
            mode_rows[i][mode] = row
    _write_json(os.path.join(out_dir, "report.json"), {
        "command": "compare",
        "separated": sides["separated"],
        "connected": sides["connected"],
        "modes": mode_rows,
        "metadata": _metadata(config, model),
    })


# Every handler takes (config, out_dir, threads). ``threads`` is ignored and
# kept because bench/job.py calls the handlers with it; ``main`` passes 1.
COMMANDS = {
    "modes": cmd_modes,
    "frf": cmd_frf,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="platedamp",
        description="Piezoelectric shunt damping of fully clamped plates.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config)
    except (ConfigError, DomainError) as exc:
        print(f"platedamp: config error: {exc}", file=sys.stderr)
        return 2

    try:
        os.makedirs(args.out, exist_ok=True)
        COMMANDS[args.command](config, args.out, 1)
    except (ConfigError, DomainError) as exc:
        print(f"platedamp: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"platedamp: cannot write output: {exc}", file=sys.stderr)
        return 2
    except (AssemblyError, SolverError, np.linalg.LinAlgError) as exc:
        print(f"platedamp: numerical failure ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
