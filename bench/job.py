"""One benchmark job in a fresh process.

    python3 bench/job.py --report R.json --config C.json --out DIR
        (--command {modes,frf,sweep,compare} --threads N | --descent | --probe)
        [--trace]

Imports ``platedamp.cli`` and parses the scenario (the set-up a command-line
user pays), then runs one job and writes a JSON report with monotonic-clock
timestamps, the job's CPU seconds and the process's peak resident memory.
``--command`` runs a CLI command through ``platedamp.cli.COMMANDS``;
``--descent`` runs the library job ``optimize_per_patch`` on the scenario;
``--probe`` stops after set-up and reports the numeric libraries' versions
and BLAS threading. ``--trace`` wraps the package's layers first and adds
the per-layer metrics to the report.

Exceptions propagate, so a failed job exits non-zero with a traceback.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time

# Descent runs a fixed number of cycles (rel_tol 0 never stops early), so
# every seed does the same amount of work.
DESCENT_CYCLES = 2


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def blas_libraries() -> list[dict]:
    """OpenBLAS libraries mapped into this process, with version and threads."""
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    paths.add(path)
    except OSError:
        return []
    out = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    info["threads"] = get_threads()
                    info["config"] = get_config().decode("ascii", "replace").strip()
                    break
            if "threads" in info:
                break
        out.append(info)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--report", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    kind = ap.add_mutually_exclusive_group(required=True)
    kind.add_argument("--command")
    kind.add_argument("--descent", action="store_true")
    kind.add_argument("--probe", action="store_true")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import platedamp.cli as cli

    tracer = None
    if args.trace:
        import layers
        tracer = layers.install()
    config = cli.parse_config(args.config)
    t_ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    cpu0 = _cpu_s()

    report = {"platedamp": os.path.dirname(os.path.realpath(cli.__file__))}
    if args.probe:
        import numpy
        import scipy
        report.update(python=sys.version.split()[0], numpy=numpy.__version__,
                      scipy=scipy.__version__, blas=blas_libraries())
    elif args.descent:
        from platedamp import electromech, ritz, tuning
        model = electromech.with_coupling(
            ritz.build_model(config.plate, config.patches, config.basis))
        resistances, objective, base = tuning.optimize_per_patch(
            model, config.force, config.target, config.grid.frequencies(), config.sweep,
            threads=args.threads, max_cycles=DESCENT_CYCLES, rel_tol=0.0)
        with open(os.path.join(args.out, "descent.json"), "w", encoding="utf-8") as fh:
            json.dump({"resistances_ohms": resistances, "objective_ms_per_n": objective,
                       "uniform_r_opt_ohms": base.r_opt,
                       "uniform_objective_ms_per_n": base.objective_opt,
                       "r_min_ohms": config.sweep.r_min, "r_max_ohms": config.sweep.r_max},
                      fh, indent=1)
            fh.write("\n")
    else:
        cli.COMMANDS[args.command](config, args.out, max(1, args.threads))

    t_done = time.clock_gettime(time.CLOCK_MONOTONIC)
    report.update(t_ready=t_ready, t_done=t_done, cpu_s=_cpu_s() - cpu0,
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        report["layers"] = layers.metrics(tracer.spans)
        report["layers_seen"] = sorted(layers.layers_seen(tracer.spans))
        tracer.uninstall()
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
