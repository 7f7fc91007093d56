"""The layers of platedamp that the traced run measures.

A layer is one module of the package. ``install`` wraps, in every binding,
each public module-level function of the layer modules, the private report
writer ``cli._write_json`` and the public methods of the tuning kernel
``VelocityObjective``. Methods of value objects (``ImpedanceLaw.impedance``
and the like) stay unwrapped: they run once per frequency point and branch,
and spans around them would cost more than the work they time.

``metrics`` turns the recorded spans into the per-layer metrics. A timed
metric covers the outermost spans of its functions and subtracts the time
covered by nested spans of other layers (and, for ``tuning.descent_s``, of
the nested uniform sweep, which ``tuning.sweep_s`` already counts), so each
second is attributed to one metric of one layer. Nested spans of the same
layer stay included. Counts are taken at the same boundaries from the
calls' arguments and results.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
from collections import defaultdict

from tracer import Tracer, interval_union_ns

LAYERS = ("config", "basis", "ritz", "electromech", "response", "tuning", "cli")
EXTRA_FUNCTIONS = {"cli": ("_write_json",)}
TRACED_METHODS = {"tuning": {"VelocityObjective": ("velocity_abs", "band_points", "peak_in_band")}}

WRITERS = ("cli.write_modes_csv", "cli.write_frf_csv", "cli.write_sweep_csv", "cli._write_json")
OBJECTIVE = ("tuning.VelocityObjective.velocity_abs", "tuning.VelocityObjective.band_points",
             "tuning.VelocityObjective.peak_in_band")
CANDIDATE = "tuning.VelocityObjective.peak_in_band"

# metric -> (span names it covers, same-layer span names it excludes)
TIMED = {
    "config.parse_s": (("config.parse_config",), ()),
    "basis.eval_s": (("basis.eval_matrix", "basis.integral"), ()),
    "ritz.assemble_s": (("ritz.assemble_system",), ()),
    "ritz.eigensolve_s": (("ritz.solve_modes",), ()),
    "electromech.coupling_s": (("electromech.with_coupling",), ()),
    "response.frf_separated_s": (("response.frf_separated",), ()),
    "response.frf_connected_s": (("response.frf_connected",), ()),
    "tuning.sweep_s": (("tuning.sweep_resistance",), ()),
    "tuning.objective_s": (OBJECTIVE, ()),
    "tuning.descent_s": (("tuning.optimize_per_patch",), ("tuning.sweep_resistance",)),
    "cli.write_s": (WRITERS, ()),
}

# Every per-layer metric with its unit, in report order.
UNITS = {
    "config.parse_s": "s",
    "basis.eval_s": "s",
    "basis.eval_calls": "count",
    "basis.eval_values": "count",
    "ritz.assemble_s": "s",
    "ritz.cells": "count",
    "ritz.n_dof": "count",
    "ritz.eigensolve_s": "s",
    "ritz.n_modes": "count",
    "electromech.coupling_s": "s",
    "response.frf_separated_s": "s",
    "response.frf_connected_s": "s",
    "response.frf_points": "count",
    "response.points_per_s": "1/s",
    "response.voltage_solves": "count",
    "response.retained_modes": "count",
    "tuning.sweep_s": "s",
    "tuning.sweep_candidates": "count",
    "tuning.objective_s": "s",
    "tuning.objective_calls": "count",
    "tuning.objective_points": "count",
    "tuning.points_per_candidate": "count",
    "tuning.descent_s": "s",
    "tuning.descent_candidates": "count",
    "cli.write_s": "s",
    "cli.bytes_written": "count",
    "cli.write_mb_per_s": "MB/s",
}


def _bound(func, args, kwargs) -> dict:
    return inspect.signature(func).bind(*args, **kwargs).arguments


def _axis_cells(length, edges) -> int:
    return len({0.0, length, *edges}) - 1


def _counters(name: str, func):
    """Work-count extractor for the span ``name``, or None."""
    if name == "basis.eval_matrix":
        return lambda a, k, r: {"values": int(r.size)}
    if name == "basis.integral":
        return lambda a, k, r: {"values": 1}
    if name == "ritz.assemble_system":
        def assemble(a, k, r):
            arg = _bound(func, a, k)
            plate, patches, spec = arg["plate"], tuple(arg["patches"]), arg["spec"]
            cells = (_axis_cells(plate.length_a, [e for p in patches for e in (p.x1, p.x2)])
                     * _axis_cells(plate.width_b, [e for p in patches for e in (p.y1, p.y2)]))
            return {"n_dof": spec.n_dof, "cells": cells}
        return assemble
    if name == "ritz.solve_modes":
        return lambda a, k, r: {"n_modes": int(r.n_modes)}
    if name in ("response.frf_separated", "response.frf_connected"):
        return lambda a, k, r: {"points": int(r.frequencies_hz.size)}
    if name == "response.retained_mode_count":
        return lambda a, k, r: {"retained": int(r)}
    if name == "tuning.sweep_resistance":
        return lambda a, k, r: {"candidates": int(r.r_values.size)}
    if name == "tuning.VelocityObjective.velocity_abs":
        return lambda a, k, r: {"points": int(r.size)}
    if name in WRITERS:
        return lambda a, k, r: {"bytes": os.path.getsize(_bound(func, a, k)["path"])}
    return None


def _targets():
    """(span name, owner namespace, function) for everything to wrap."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"platedamp.{layer}")
        names = [n for n, v in vars(mod).items()
                 if inspect.isfunction(v) and v.__module__ == mod.__name__
                 and not n.startswith("_")]
        names += EXTRA_FUNCTIONS.get(layer, ())
        out += [(f"{layer}.{n}", mod, getattr(mod, n)) for n in names]
        for cls_name, methods in TRACED_METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            out += [(f"{layer}.{cls_name}.{m}", cls, vars(cls)[m]) for m in methods]
    return out


def install() -> Tracer:
    """Wrap every binding of every traced function inside the package."""
    tracer = Tracer()
    modules = [m for n, m in list(sys.modules.items())
               if n == "platedamp" or n.startswith("platedamp.")]
    for name, owner, func in _targets():
        wrapper = tracer.make_wrapper(name, func, _counters(name, func))
        namespaces = [owner] if inspect.isclass(owner) else modules
        if tracer.wrap(namespaces, func, wrapper) == 0:
            raise RuntimeError(f"no binding of {name} found to wrap")
    return tracer


def layers_seen(spans) -> set[str]:
    return {s.name.split(".", 1)[0] for s in spans}


def metrics(spans) -> dict[str, float]:
    """Every per-layer metric from one job's spans; absent layers read 0."""
    children = defaultdict(list)
    by_name = defaultdict(list)
    by_id = {}
    for s in spans:
        children[s.parent].append(s)
        by_name[s.name].append(s)
        by_id[s.id] = s

    def ancestors(span):
        while span.parent is not None:
            span = by_id[span.parent]
            yield span

    def outermost(names):
        names = set(names)
        return [s for n in names for s in by_name[n]
                if not any(a.name in names for a in ancestors(s))]

    def seconds(names, excluded):
        layer = next(iter(names)).split(".", 1)[0]
        total = 0
        for top in outermost(names):
            foreign, todo = [], list(children[top.id])
            while todo:
                s = todo.pop()
                if s.name.split(".", 1)[0] != layer or s.name in excluded:
                    foreign.append((max(s.start_ns, top.start_ns), min(s.end_ns, top.end_ns)))
                else:
                    todo.extend(children[s.id])
            total += (top.end_ns - top.start_ns) - interval_union_ns(foreign)
        return total * 1e-9

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in by_name[name])

    out = {m: seconds(names, excl) for m, (names, excl) in TIMED.items()}
    out["basis.eval_calls"] = len(by_name["basis.eval_matrix"]) + len(by_name["basis.integral"])
    out["basis.eval_values"] = (total("basis.eval_matrix", "values")
                                + total("basis.integral", "values"))
    out["ritz.cells"] = total("ritz.assemble_system", "cells")
    out["ritz.n_dof"] = total("ritz.assemble_system", "n_dof")
    out["ritz.n_modes"] = total("ritz.solve_modes", "n_modes")
    frf_spans = outermost(("response.frf_separated", "response.frf_connected"))
    out["response.frf_points"] = sum(s.counts.get("points", 0) for s in frf_spans)
    frf_s = out["response.frf_separated_s"] + out["response.frf_connected_s"]
    out["response.points_per_s"] = out["response.frf_points"] / frf_s if frf_s else 0.0
    out["response.voltage_solves"] = len(by_name["response.solve_voltages"])
    out["response.retained_modes"] = max(
        (s.counts["retained"] for s in by_name["response.retained_mode_count"]), default=0)
    out["tuning.sweep_candidates"] = total("tuning.sweep_resistance", "candidates")
    objective = by_name["tuning.VelocityObjective.velocity_abs"]
    out["tuning.objective_calls"] = len(objective)
    out["tuning.objective_points"] = total("tuning.VelocityObjective.velocity_abs", "points")
    candidates = by_name[CANDIDATE]
    out["tuning.points_per_candidate"] = (out["tuning.objective_points"] / len(candidates)
                                          if candidates else 0.0)
    stages = ("tuning.sweep_resistance", "tuning.optimize_per_patch")
    out["tuning.descent_candidates"] = sum(
        1 for s in candidates
        if next((a.name for a in ancestors(s) if a.name in stages), None)
        == "tuning.optimize_per_patch")
    out["cli.bytes_written"] = sum(total(w, "bytes") for w in WRITERS)
    out["cli.write_mb_per_s"] = (out["cli.bytes_written"] / 1e6 / out["cli.write_s"]
                                 if out["cli.write_s"] else 0.0)
    return {m: out[m] for m in UNITS}
