"""Scenario configuration: strict JSON parsing and the bundled reference.

The configuration file is a single JSON document with SI units encoded
in the key names. Parsing is strict: unknown keys are rejected and
every error names the offending field, so silently ignored typos cannot
skew results. Each section's keys are defined once, in a key table that
both parsing and ``to_dict`` read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError, DomainError
from .plate import PatchSpec, PlateSpec, validate_layout, validate_point
from .response import HarmonicForce, ImpedanceLaw, ShuntTopology
from .ritz import BasisSpec, _check_integers
from .tuning import SweepSpec


@dataclass(frozen=True)
class GridSpec:
    """Linear frequency grid in hertz."""

    start_hz: float
    stop_hz: float
    count: int

    def __post_init__(self):
        if not 0.0 < self.start_hz < self.stop_hz < math.inf:
            raise DomainError("grid requires 0 < start_hz < stop_hz < inf")
        _check_integers(self, "grid", "count")
        if not self.count >= 2:
            raise DomainError("grid requires count >= 2")

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.start_hz, self.stop_hz, self.count)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one run needs: structure, wiring, load, output grid."""

    plate: PlateSpec
    patches: tuple[PatchSpec, ...]
    topology: ShuntTopology
    force: HarmonicForce
    target: tuple[float, float]
    grid: GridSpec
    basis: BasisSpec
    sweep: SweepSpec | None = None
    notes: str = ""


def _section(data: dict, name: str, required, optional: dict | None = None) -> dict:
    """Pull a key set out of one mapping, rejecting unknown keys."""
    optional = optional or {}
    if not isinstance(data, dict):
        raise ConfigError(f"section '{name}' must be a JSON object")
    known = set(required) | set(optional)
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown key '{name}.{key}'")
    out = {}
    for key in required:
        if key not in data:
            raise ConfigError(f"missing field '{name}.{key}'")
        out[key] = data[key]
    for key, default in optional.items():
        out[key] = data.get(key, default)
    return out


def _number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{field}' must be a number")
    if not math.isfinite(value):  # Python's json reads NaN and Infinity
        raise ConfigError(f"field '{field}' must be finite")
    return float(value)


def _positive(value, field: str) -> float:
    value = _number(value, field)
    if not value > 0.0:
        raise ConfigError(f"field '{field}' must be positive")
    return value


def _integer(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field '{field}' must be an integer")
    return value


def _band(value, field: str) -> tuple[float, float] | None:
    if value is None:
        return None
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"field '{field}' must be [lo, hi]")
    return (_number(value[0], f"{field}[0]"), _number(value[1], f"{field}[1]"))


# One table per section, the single definition of its JSON keys: rows of
# (JSON key, dataclass field, reader[, default]); a row with a default is
# optional. `_read` parses a section by its table and `_dump` inverts it.
PLATE_KEYS = (
    ("length_a_m", "length_a", _number), ("width_b_m", "width_b", _number),
    ("thickness_m", "thickness_hs", _number), ("youngs_modulus_pa", "youngs_Ys", _number),
    ("poisson_ratio", "poisson_nus", _number), ("density_kg_m3", "density_rhos", _number),
    ("modal_damping_ratio", "modal_damping_xi", _number, 0.0),
)
# thickness_m reads as positive: PatchSpec admits zero thickness as a
# modelling limit, but a real patch's capacitance divides by it
PATCH_KEYS = (
    ("c11_pa", "c11_bar", _number), ("c12_pa", "c12_bar", _number),
    ("c66_pa", "c66_bar", _number), ("e31_c_m2", "e31_bar", _number),
    ("permittivity_f_m", "eps33_s", _number), ("density_kg_m3", "density_rhop", _number),
    ("thickness_m", "thickness_hp", _positive), ("x1_m", "x1", _number),
    ("x2_m", "x2", _number), ("y1_m", "y1", _number), ("y2_m", "y2", _number),
)
FORCE_KEYS = (("amplitude_n", "amplitude", _positive), ("x_m", "x", _number),
              ("y_m", "y", _number))
GRID_KEYS = (("start_hz", "start_hz", _number), ("stop_hz", "stop_hz", _number),
             ("count", "count", _integer))
BASIS_KEYS = (("n_x", "n_x", _integer), ("n_y", "n_y", _integer),
              ("quadrature_order", "quadrature_order", _integer, 10))
# the resistance range, which report metadata repeats
SWEEP_RANGE_KEYS = (("r_min_ohms", "r_min", _positive, 100.0),
                    ("r_max_ohms", "r_max", _number, 1e6),
                    ("points", "points", _integer, 200))
SWEEP_KEYS = SWEEP_RANGE_KEYS + (("report_modes", "report_modes", _integer, 3),
                                 ("band_hz", "objective_band", _band, None))
_LOAD = (("ohms", "ohms", _number), ("henries", "henries", _number))
LOAD_KEYS = {"resistor": _LOAD[:1], "series_rl": _LOAD, "open": (), "short": ()}


def _read(cls, data, name: str, table, **fixed):
    """Build ``cls`` from the JSON object ``data`` by ``table``. Each key of
    ``fixed`` is a required JSON key the caller has read already, passed
    on as the field of the same name."""
    d = _section(data, name, [row[0] for row in table if len(row) == 3] + list(fixed),
                 {row[0]: row[3] for row in table if len(row) == 4})
    fields = {field: reader(d[key], f"{name}.{key}") for key, field, reader, *_ in table}
    try:
        return cls(**fixed, **fields)
    except DomainError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _dump(obj, table) -> dict:
    """JSON form of ``obj`` by ``table``; None fields are left out."""
    out = {}
    for key, field, *_ in table:
        value = getattr(obj, field)
        if value is not None:
            out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _parse_load(data, name: str) -> ImpedanceLaw:
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError(f"field '{name}' must be an object with a 'kind'")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in LOAD_KEYS:
        raise ConfigError(f"field '{name}.kind' must be one of {', '.join(LOAD_KEYS)}")
    return _read(ImpedanceLaw, data, name, LOAD_KEYS[kind], kind=kind)


def _dump_load(load: ImpedanceLaw) -> dict:
    return {"kind": load.kind, **_dump(load, LOAD_KEYS[load.kind])}


def _parse_topology(data, n_patches: int) -> ShuntTopology:
    if not isinstance(data, dict) or "mode" not in data:
        raise ConfigError("section 'topology' must be an object with a 'mode'")
    mode = data["mode"]
    if mode == "separated":
        d = _section(data, "topology", ("mode", "loads"))
        if not isinstance(d["loads"], list):
            raise ConfigError("field 'topology.loads' must be a list")
        loads = [_parse_load(item, f"topology.loads[{i}]") for i, item in enumerate(d["loads"])]
        if len(loads) != n_patches:
            raise ConfigError(f"topology.loads has {len(loads)} entries "
                              f"but the scenario has {n_patches} patches")
        return ShuntTopology.separated(loads)
    if mode == "connected":
        d = _section(data, "topology", ("mode", "load"))
        if n_patches == 0:
            raise ConfigError("connected topology requires at least one patch")
        return ShuntTopology.connected(_parse_load(d["load"], "topology.load"))
    raise ConfigError("field 'topology.mode' must be 'separated' or 'connected'")


def _check_point(plate: PlateSpec, x: float, y: float, name: str) -> None:
    try:
        validate_point(plate, x, y, name)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config_dict(raw: dict) -> ScenarioConfig:
    """Build a validated scenario from an already-decoded JSON object."""
    top = _section(raw, "config",
                   ("plate", "patches", "topology", "force", "target", "grid", "basis"),
                   {"sweep": None, "notes": ""})
    if not isinstance(top["notes"], str):
        raise ConfigError("field 'notes' must be a string")
    plate = _read(PlateSpec, top["plate"], "plate", PLATE_KEYS)
    if not isinstance(top["patches"], list):
        raise ConfigError("section 'patches' must be a list")
    patches = tuple(_read(PatchSpec, item, f"patches[{i}]", PATCH_KEYS)
                    for i, item in enumerate(top["patches"]))
    try:
        validate_layout(plate, patches)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    topology = _parse_topology(top["topology"], len(patches))

    force = _read(HarmonicForce, top["force"], "force", FORCE_KEYS)
    _check_point(plate, force.x, force.y, "force location")

    td = _section(top["target"], "target", ("x_m", "y_m"))
    target = (_number(td["x_m"], "target.x_m"), _number(td["y_m"], "target.y_m"))
    _check_point(plate, *target, "target point")

    grid = _read(GridSpec, top["grid"], "grid", GRID_KEYS)
    basis = _read(BasisSpec, top["basis"], "basis", BASIS_KEYS)
    sweep = None
    if top["sweep"] is not None:
        sweep = _read(SweepSpec, top["sweep"], "sweep", SWEEP_KEYS)
        band = sweep.objective_band
        if band is not None and not grid.start_hz <= band[0] < band[1] <= grid.stop_hz:
            raise ConfigError("field 'sweep.band_hz' must lie within the grid span")

    return ScenarioConfig(plate=plate, patches=patches, topology=topology,
                          force=force, target=target, grid=grid, basis=basis,
                          sweep=sweep, notes=top["notes"])


def parse_config(path) -> ScenarioConfig:
    """Parse and validate a scenario file (strict JSON)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return parse_config_dict(raw)


def to_dict(config: ScenarioConfig) -> dict:
    """Normalized JSON-compatible form; parsing it reproduces the config."""
    out = {
        "plate": _dump(config.plate, PLATE_KEYS),
        "patches": [_dump(p, PATCH_KEYS) for p in config.patches],
        "force": _dump(config.force, FORCE_KEYS),
        "target": {"x_m": config.target[0], "y_m": config.target[1]},
        "grid": _dump(config.grid, GRID_KEYS),
        "basis": _dump(config.basis, BASIS_KEYS),
    }
    if config.topology.mode == "separated":
        out["topology"] = {"mode": "separated",
                           "loads": [_dump_load(l) for l in config.topology.loads]}
    else:
        out["topology"] = {"mode": "connected",
                           "load": _dump_load(config.topology.loads[0])}
    if config.sweep is not None:
        out["sweep"] = _dump(config.sweep, SWEEP_KEYS)
    if config.notes:
        out["notes"] = config.notes
    return out


def reference_config() -> ScenarioConfig:
    """The bundled three-patch aluminum-plate scenario.

    Plate and patch material data follow the documented hardware; patch
    placement, force location and measurement point are assumptions (see
    the shipped JSON and README for the full provenance notes).
    """
    text = resources.files("platedamp").joinpath("data/reference.json").read_text("utf-8")
    return parse_config_dict(json.loads(text))
