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
``np.savetxt(fmt="%.17g", delimiter=",")`` writes for its rows, formatted
with numpy a block of rows at a time: ``_csv_digits`` finds each number's 17
digits and exponent, passing only the numbers it cannot certify, such as
exact ties, to CPython's own formatting; ``_csv_fields`` looks up six
little-endian 8-byte words per number, [pad, sign, "0.000", d0], d1..d16 as
four words of (point slot, digit) pairs, and [e, exponent sign, three
digits, separator, pad, pad], with 0 in every byte ``%.17g`` does not print;
one ``bytes.translate`` drops those. NaN or inf is refused before a file is
opened.
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
# frf_connected, frf_separated and sweep_resistance are not called here;
# bench/test_bench.py checks that tracing wraps their bindings in this module
from .response import (FrfResult, ImpedanceLaw, ShuntTopology, frf,
                       frf_connected, frf_separated, retained_mode_count)
from .ritz import ModalModel, build_model
from .tuning import (ModeReduction, SweepResult, SweepSpec, VelocityObjective,
                     _uniform_sweep, mode_windows, percent_reduction, sweep_resistance)

_CSV_BLOCK_VALUES = 4096  # numbers formatted per block: one block's arrays stay under 1 MB
# The power table holds 10**n for |n| <= 40: numbers from 1e-24 to below 1e57 (outputs
# reach 1e-12 to 1e6) take the fast path, all others the exact fallback
_POW10_SPAN = 40
_ROW_END = (ord(",") ^ ord("\n")) << 40  # turns the separator of a last word into a newline


@functools.cache
def _csv_tables():
    """Tables for ``_csv_digits`` and ``_csv_fields``, built on the first write.

    ``pow10[:, n + _POW10_SPAN + 1]`` is 10**n as a double-double ``hi + lo``,
    with ``hi`` split into its upper 26 bits and the rest for Dekker's product;
    its first and last columns, for the scales past the table, are 0.
    A number with exponent X has category ``cats[X + 324]``: X + 4 in fixed
    notation (-4 <= X <= 16), 21 with a two-digit exponent, 22 with three.
    Its words, sign and prefix already dropped where ``%.17g`` drops them, are
    ``first[(neg * 23 + cat) * 10 + d0]``, ``quads[v] & masks[j, cat * 17 + k - 1]``
    for the j-th four digits v, k being the digits kept once trailing zeros
    go (``zeros[v]`` counts those of v), and ``exponents[X + 324]``.
    """
    pow10 = np.zeros((4, 2 * _POW10_SPAN + 3))
    for i, n in enumerate(range(-_POW10_SPAN, _POW10_SPAN + 1), 1):
        num, den = (10 ** n, 1) if n >= 0 else (1, 10 ** -n)
        hi = num / den  # int / int rounds correctly
        a, b = hi.as_integer_ratio()
        split = 134217729.0 * hi
        upper = split - (split - hi)
        pow10[:, i] = hi, (num * b - a * den) / (den * b), upper, hi - upper

    first = np.frombuffer(b"".join(  # [pad, sign, "0." and -X - 1 zeros for X < 0, d0]
        b"\0" + b"\0-"[neg:neg + 1] + (b"0.000"[:5 - cat] if cat < 4 else b"").ljust(5, b"\0")
        + b"%d" % d0 for neg in (0, 1) for cat in range(23) for d0 in range(10)), "<u8")

    cat, k, i, digit = np.ix_(np.arange(23), np.arange(1, 18), np.arange(1, 17), [0, 1])
    fixed, x = cat <= 20, cat - 4
    keep = np.where(digit == 1, (i < k) | fixed & (i <= x),  # digits, integer zeros
                    (i < k) & (i - 1 == np.where(fixed, x, 0)))  # the point after d_(i-1)
    masks = (np.uint8(255) * keep).reshape(-1, 32).view("<u8").T.copy()

    quad = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # the digits of v, v < 10000
    chars = np.full((10000, 8), ord("."), np.uint8)
    chars[:, 1::2] = quad + ord("0")
    v = np.arange(10000, dtype=np.int16)
    zeros = sum((v % 10 ** m == 0).view(np.uint8) for m in range(1, 5))

    def exponent_word(x):  # "e%+04d" % x, its leading 0 dropped below 100, and a separator
        if -4 <= x <= 16:  # fixed notation
            return b"\0\0\0\0\0,\0\0"
        text = b"e%+04d,\0\0" % x
        return text.replace(b"0", b"\0", 1) if abs(x) < 100 else text

    exponent = range(-324, 309)
    cats = np.array([x + 4 if -4 <= x <= 16 else 21 if abs(x) < 100 else 22 for x in exponent],
                    np.intp)
    exponents = np.frombuffer(b"".join(map(exponent_word, exponent)), "<u8")
    return pow10, cats, first, chars.view("<u8").ravel(), masks, exponents, zeros


def _csv_digits(x):
    """Each |x| rounded to 17 significant digits, as ``"%.16e" % x`` rounds it:
    the integer D in [1e16, 1e17) and the decimal exponent X of D * 10**(X - 16).
    A zero gives D = X = 0.

    With n = 16 - floor(log10 |x|), y = |x| * 10**n is found as p + q to
    about 1e-14 by Dekker's exact product with the double-double power; pure
    float64, no FMA. A scale past the table takes its power 0 instead, so y
    is 0 or NaN, never too large for int64. D = round(y) and X = 16 - n are
    certain, whatever log10 returned, when floor(y) and D lie in [1e16, 1e17)
    and frac(y) is more than 1e-6 from one half. Every other number (ties, a carry into
    the next decade, a log10 one off next to a power of ten, a split that
    overflows to NaN, a scale past the table) is parsed from ``"%.16e" % x``.
    """
    pow10 = _csv_tables()[0]
    ax = np.abs(x)
    zero = ax == 0.0
    ax[zero] = 1.0
    edge = _POW10_SPAN + 1
    n = np.clip(16 - np.floor(np.log10(ax)).astype(np.int64), -edge, edge)
    hi, lo, hi_upper, hi_lower = pow10.take(n + edge, axis=1)
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


def _csv_fields(x, width):
    """The six words of each number of ``x``, each row of ``width`` numbers
    ending in a newline."""
    _, cats, first, quads, masks, exponents, zeros = _csv_tables()
    D, X = _csv_digits(x)
    hi = D // 10 ** 8  # d0..d8
    lo = (D - hi * 10 ** 8).astype(np.int32)
    hi = hi.astype(np.int32)
    top = hi // 10 ** 4
    d0 = top // 10 ** 4
    q = np.empty((4, len(x)), np.intp)  # d1..d4, d5..d8, d9..d12, d13..d16
    q[0] = top - d0 * 10 ** 4
    q[1] = hi - top * 10 ** 4
    q[2] = lo // 10 ** 4
    q[3] = lo - q[2] * 10 ** 4
    z = zeros.take(q)
    full = z == 4
    kept = 16 - (z[3] + full[3] * (z[2] + full[2] * (z[1] + full[1] * z[0])))  # k - 1
    X += 324
    cat = cats.take(X)
    fields = np.empty((len(x), 6), np.uint64)
    fields[:, 0] = first.take(np.signbit(x) * 230 + cat * 10 + d0)
    code = cat * 17 + kept
    for j in range(4):
        np.bitwise_and(quads.take(q[j]), masks[j].take(code), out=fields[:, 1 + j])
    fields[:, 5] = exponents.take(X)
    fields[width - 1::width, 5] ^= _ROW_END
    return fields


def _csv_format(rows):
    """The bytes ``np.savetxt(fh, rows, fmt="%.17g", delimiter=",")`` writes for
    a 2-D float64 block: the fields of its numbers without their 0 bytes.
    The fields' temporaries are gone before their bytes are copied."""
    return _csv_fields(rows.ravel(), rows.shape[1]).tobytes().translate(None, b"\0")


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


def _run_topology(objective: VelocityObjective, mode: str, sweep: SweepSpec):
    """Sweep one wiring on ``objective``, then evaluate its OC baseline and
    optimum FRFs, the optimum's per-load resistances and its mode
    reductions. A command builds one objective and runs every wiring on its
    kernel: the uniform sweep and both FRFs, which keep the retained modes
    of ``frf`` and go to the kernel as one stack, so each grid block's
    structural blocks are computed once for both."""
    model, grid = objective.model, objective.grid_hz
    k = len(model.patches)
    sweep_result = _uniform_sweep(objective, sweep, mode)[0]
    oc = ShuntTopology.uniform(mode, k, ImpedanceLaw.open())
    opt = ShuntTopology.uniform(mode, k, ImpedanceLaw.resistor(sweep_result.r_opt))
    frf_oc, frf_opt = objective._kernel.run(grid, [oc, opt])
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
    objective = VelocityObjective(model, config.force, config.target, config.grid.frequencies())
    sweep_result, _, _, resistances, reductions = _run_topology(objective, mode, sweep)
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
    objective = VelocityObjective(model, config.force, config.target, config.grid.frequencies())
    sides = {}
    mode_rows: list[dict] = []
    for mode in ("separated", "connected"):
        sweep_result, frf_oc, frf_opt, resistances, reductions = _run_topology(
            objective, mode, sweep)
        write_sweep_csv(os.path.join(out_dir, f"sweep_{mode}.csv"), sweep_result)
        write_frf_csv(os.path.join(out_dir, f"frf_{mode}_oc.csv"), frf_oc)
        write_frf_csv(os.path.join(out_dir, f"frf_{mode}_opt.csv"), frf_opt)
        del frf_oc, frf_opt  # written: freed before the next wiring's FRFs
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
