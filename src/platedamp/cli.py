"""Command-line front end.

    platedamp <command> --config <path> --out <dir>

Commands:
    modes    write modes.csv (frequencies, per-patch coupling, capacitance)
    frf      write frf.csv for the configured topology and loads
    sweep    write sweep.csv and report.json for the configured topology
    compare  run separated and connected with their own sweep optima and
             write a combined report.json plus sweep/FRF data for both

All numbers are written with 17 significant digits and fixed newlines,
so repeated runs produce byte-identical files. Exit codes: 0 success,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
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
from .tuning import (ReductionReport, SweepResult, SweepSpec, mode_windows,
                     percent_reduction, sweep_resistance)


def _write_csv(path: str, header: list[str], columns) -> None:
    rows = np.column_stack(columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",")


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


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
    volts = result.voltages
    _write_csv(path, header, [result.frequencies_hz,
                              result.displacement.real, result.displacement.imag,
                              result.velocity.real, result.velocity.imag,
                              np.abs(result.velocity),
                              np.stack((volts.real, volts.imag), axis=-1).reshape(len(volts), -1)])


def write_sweep_csv(path: str, sweep_result: SweepResult) -> None:
    _write_csv(path, ["resistance_ohm", "peak_velocity_ms_per_n", "peak_freq_hz"],
               [sweep_result.r_values, sweep_result.objective_values,
                sweep_result.peak_freqs_hz])


def _report_entries(report: ReductionReport) -> list[dict]:
    out = []
    for e in report.entries:
        item = {
            "mode": e.mode,
            "window_hz": [e.window_hz[0], e.window_hz[1]],
            "oc_peak_ms_per_n": e.oc_peak,
            "oc_peak_hz": e.oc_peak_hz,
            "shunted_peak_ms_per_n": e.shunted_peak,
            "shunted_peak_hz": e.shunted_peak_hz,
            "reduction_pct": e.reduction_pct,
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
    """Sweep one topology, then evaluate its OC baseline and optimum FRFs."""
    grid = config.grid.frequencies()
    k = len(model.patches)
    sweep_result = sweep_resistance(model, config.force, config.target, grid,
                                    sweep, topology_mode=mode)
    oc = ShuntTopology.uniform(mode, k, ImpedanceLaw.open())
    opt = ShuntTopology.uniform(mode, k, ImpedanceLaw.resistor(sweep_result.r_opt))
    frf_oc = frf(model, oc, config.force, config.target, grid)
    frf_opt = frf(model, opt, config.force, config.target, grid)
    windows = mode_windows(model, sweep.report_modes, grid)
    report = percent_reduction(frf_oc, frf_opt, windows, topology=mode,
                               resistances=[law.ohms for law in opt.loads])
    return sweep_result, frf_oc, frf_opt, report


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
    sweep_result, _, _, report = _run_topology(config, model, mode, sweep)
    write_sweep_csv(os.path.join(out_dir, "sweep.csv"), sweep_result)
    _write_json(os.path.join(out_dir, "report.json"), {
        "command": "sweep",
        "topology": mode,
        "r_opt_ohms": sweep_result.r_opt,
        "objective_peak_velocity_ms_per_n": sweep_result.objective_opt,
        "objective_peak_hz": sweep_result.peak_hz_opt,
        "resistances_ohms": list(report.resistances_ohms),
        "reductions": _report_entries(report),
        "metadata": _metadata(config, model),
    })


def cmd_compare(config: ScenarioConfig, out_dir: str, threads: int) -> None:
    model = _build(config)
    sweep = config.sweep if config.sweep is not None else SweepSpec()
    sides = {}
    mode_rows: list[dict] = []
    for mode in ("separated", "connected"):
        sweep_result, frf_oc, frf_opt, report = _run_topology(config, model, mode, sweep)
        write_sweep_csv(os.path.join(out_dir, f"sweep_{mode}.csv"), sweep_result)
        write_frf_csv(os.path.join(out_dir, f"frf_{mode}_oc.csv"), frf_oc)
        write_frf_csv(os.path.join(out_dir, f"frf_{mode}_opt.csv"), frf_opt)
        sides[mode] = {
            "r_opt_ohms": sweep_result.r_opt,
            "objective_peak_velocity_ms_per_n": sweep_result.objective_opt,
            "resistances_ohms": list(report.resistances_ohms),
        }
        for i, entry in enumerate(_report_entries(report)):
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


# Every handler takes (config, out_dir, threads). ``threads``, like the
# --threads flag, is ignored and kept only because bench/job.py passes it.
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
    parser.add_argument("--threads", type=int, default=1,
                        help="ignored; kept for scripts that still pass it")
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config)
    except (ConfigError, DomainError) as exc:
        print(f"platedamp: config error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(args.out, exist_ok=True)
    try:
        COMMANDS[args.command](config, args.out, args.threads)
    except (ConfigError, DomainError) as exc:
        print(f"platedamp: config error: {exc}", file=sys.stderr)
        return 2
    except (AssemblyError, SolverError, np.linalg.LinAlgError) as exc:
        print(f"platedamp: numerical failure ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
