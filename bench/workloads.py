"""Benchmark workloads and their seeded scenario files.

Each workload is one job shape. ``scenario(seed)`` returns the bytes of the
JSON scenario the program receives; the same seed gives the same bytes.
Every workload except ``ref_compare`` starts from the bundled reference
scenario, changes its size, and moves the force and target points by up to
``POINT_JITTER_M`` in each direction. ``array_descent`` also moves each of
its twelve patches by up to ``PATCH_JITTER_M`` inside its own cell of a 4x3
layout, so patches stay on the plate and never overlap. ``ref_compare``
runs the bundled file unchanged: it is the paper's headline run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from layers import LAYERS

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "src" / "platedamp" / "data" / "reference.json"

POINT_JITTER_M = 0.03
PATCH_JITTER_M = 0.02
ARRAY_PATCH_M = 0.06
ARRAY_LAYOUT = (4, 3)
DEFAULT_SEED = 0  # the seed whose scenarios have committed reference values


@dataclass(frozen=True)
class Workload:
    name: str
    command: str | None      # CLI command, or None for the descent library job
    threads: int
    layers: tuple[str, ...]  # layers that must record at least one span
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("ref_compare", "compare", 1, LAYERS,
             "paper's headline run on the bundled scenario, single-threaded; "
             "response and tuning dominate, 100-DOF eigensolve under default BLAS threads"),
    Workload("dense_modes", "modes", 1,
             ("config", "basis", "ritz", "electromech", "cli"),
             "30x30 basis (900 DOF): basis evaluation, assembly and eigensolve dominate; "
             "response and tuning never run"),
    Workload("fine_frf", "frf", 2,
             ("config", "basis", "ritz", "electromech", "response", "cli"),
             "30k-point FRF at --threads 2: per-frequency kernel, thread split and CSV "
             "writing dominate; no sweep"),
    Workload("array_descent", None, 1,
             ("config", "basis", "ritz", "electromech", "response", "tuning"),
             "12 patches on a 4x3 layout: many-patch assembly and coupling, 12x12 voltage "
             "solves and per-patch descent, which the CLI never runs"),
)}

def _reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def _jitter_points(cfg: dict, rng: random.Random) -> None:
    a, b = cfg["plate"]["length_a_m"], cfg["plate"]["width_b_m"]
    for key in ("force", "target"):
        x = cfg[key]["x_m"] + rng.uniform(-POINT_JITTER_M, POINT_JITTER_M)
        y = cfg[key]["y_m"] + rng.uniform(-POINT_JITTER_M, POINT_JITTER_M)
        cfg[key]["x_m"] = round(min(max(x, 0.0), a), 6)
        cfg[key]["y_m"] = round(min(max(y, 0.0), b), 6)


def _patch_array(cfg: dict, rng: random.Random) -> None:
    a, b = cfg["plate"]["length_a_m"], cfg["plate"]["width_b_m"]
    nx, ny = ARRAY_LAYOUT
    material = {k: v for k, v in cfg["patches"][0].items()
                if k not in ("x1_m", "x2_m", "y1_m", "y2_m")}
    half = ARRAY_PATCH_M / 2.0
    patches = []
    for j in range(ny):
        for i in range(nx):
            cx = (i + 0.5) * a / nx + rng.uniform(-PATCH_JITTER_M, PATCH_JITTER_M)
            cy = (j + 0.5) * b / ny + rng.uniform(-PATCH_JITTER_M, PATCH_JITTER_M)
            patches.append(dict(material, x1_m=round(cx - half, 6), x2_m=round(cx + half, 6),
                                y1_m=round(cy - half, 6), y2_m=round(cy + half, 6)))
    cfg["patches"] = patches
    cfg["topology"] = {"mode": "separated",
                       "loads": [{"kind": "resistor", "ohms": 15000.0}] * len(patches)}


def scenario(workload: Workload, seed: int, smoke: bool = False) -> bytes:
    """Scenario file contents for one workload and seed.

    ``smoke`` shrinks any workload to a 4x4 basis, 200 grid points and an
    8-point sweep, so the benchmark's own test runs in seconds.
    """
    if workload.name == "ref_compare" and not smoke:
        return REFERENCE.read_bytes()
    cfg = _reference()
    rng = random.Random(seed)
    _jitter_points(cfg, rng)
    if workload.name == "dense_modes":
        cfg["basis"].update(n_x=30, n_y=30)
    elif workload.name == "fine_frf":
        cfg["grid"]["count"] = 30000
    elif workload.name == "array_descent":
        _patch_array(cfg, rng)
        cfg["sweep"]["points"] = 16
    if smoke:
        cfg["basis"].update(n_x=4, n_y=4)
        cfg["grid"]["count"] = 200
        cfg["sweep"]["points"] = 8
    cfg["notes"] = f"benchmark workload {workload.name}, seed {seed}"
    return (json.dumps(cfg, indent=1) + "\n").encode("utf-8")
