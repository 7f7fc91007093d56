"""Scenario configuration: strict JSON parsing and the bundled reference.

The configuration file is a single JSON document with SI units encoded
in the key names. Parsing is strict: unknown keys are rejected and
every error names the offending field, so silently ignored typos cannot
skew results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError, DomainError
from .plate import PatchSpec, PlateSpec, validate_layout
from .response import HarmonicForce, ImpedanceLaw, ShuntTopology
from .ritz import BasisSpec
from .tuning import SweepSpec


@dataclass(frozen=True)
class GridSpec:
    """Linear frequency grid in hertz."""

    start_hz: float
    stop_hz: float
    count: int

    def __post_init__(self):
        if not 0.0 < self.start_hz < self.stop_hz:
            raise DomainError("grid requires 0 < start_hz < stop_hz")
        if self.count < 2:
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


def _section(data: dict, name: str, required: tuple, optional: dict | None = None) -> dict:
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
    return float(value)


def _integer(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field '{field}' must be an integer")
    return value


def _parse_plate(data) -> PlateSpec:
    d = _section(data, "plate",
                 ("length_a_m", "width_b_m", "thickness_m", "youngs_modulus_pa",
                  "poisson_ratio", "density_kg_m3"),
                 {"modal_damping_ratio": 0.0})
    try:
        return PlateSpec(
            length_a=_number(d["length_a_m"], "plate.length_a_m"),
            width_b=_number(d["width_b_m"], "plate.width_b_m"),
            thickness_hs=_number(d["thickness_m"], "plate.thickness_m"),
            youngs_Ys=_number(d["youngs_modulus_pa"], "plate.youngs_modulus_pa"),
            poisson_nus=_number(d["poisson_ratio"], "plate.poisson_ratio"),
            density_rhos=_number(d["density_kg_m3"], "plate.density_kg_m3"),
            modal_damping_xi=_number(d["modal_damping_ratio"], "plate.modal_damping_ratio"),
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_patch(data, idx: int) -> PatchSpec:
    name = f"patches[{idx}]"
    d = _section(data, name,
                 ("c11_pa", "c12_pa", "c66_pa", "e31_c_m2", "permittivity_f_m",
                  "density_kg_m3", "thickness_m", "x1_m", "x2_m", "y1_m", "y2_m"))
    # PatchSpec admits zero thickness as a modelling limit; a real patch
    # needs a positive one (its capacitance divides by it)
    thickness = _number(d["thickness_m"], f"{name}.thickness_m")
    if not thickness > 0.0:
        raise ConfigError(f"field '{name}.thickness_m' must be positive")
    try:
        return PatchSpec(
            c11_bar=_number(d["c11_pa"], f"{name}.c11_pa"),
            c12_bar=_number(d["c12_pa"], f"{name}.c12_pa"),
            c66_bar=_number(d["c66_pa"], f"{name}.c66_pa"),
            e31_bar=_number(d["e31_c_m2"], f"{name}.e31_c_m2"),
            eps33_s=_number(d["permittivity_f_m"], f"{name}.permittivity_f_m"),
            density_rhop=_number(d["density_kg_m3"], f"{name}.density_kg_m3"),
            thickness_hp=thickness,
            x1=_number(d["x1_m"], f"{name}.x1_m"),
            x2=_number(d["x2_m"], f"{name}.x2_m"),
            y1=_number(d["y1_m"], f"{name}.y1_m"),
            y2=_number(d["y2_m"], f"{name}.y2_m"),
        )
    except DomainError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _parse_load(data, field: str) -> ImpedanceLaw:
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError(f"field '{field}' must be an object with a 'kind'")
    kind = data["kind"]
    try:
        if kind == "resistor":
            d = _section(data, field, ("kind", "ohms"))
            return ImpedanceLaw.resistor(_number(d["ohms"], f"{field}.ohms"))
        if kind == "series_rl":
            d = _section(data, field, ("kind", "ohms", "henries"))
            return ImpedanceLaw.series_rl(_number(d["ohms"], f"{field}.ohms"),
                                          _number(d["henries"], f"{field}.henries"))
        if kind == "open":
            _section(data, field, ("kind",))
            return ImpedanceLaw.open()
        if kind == "short":
            _section(data, field, ("kind",))
            return ImpedanceLaw.short()
    except DomainError as exc:
        raise ConfigError(f"{field}: {exc}") from exc
    raise ConfigError(f"field '{field}.kind' must be one of "
                      "resistor, series_rl, open, short")


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


def _parse_point(data, name: str) -> tuple[float, float]:
    d = _section(data, name, ("x_m", "y_m"))
    return (_number(d["x_m"], f"{name}.x_m"), _number(d["y_m"], f"{name}.y_m"))


def parse_config_dict(raw: dict) -> ScenarioConfig:
    """Build a validated scenario from an already-decoded JSON object."""
    top = _section(raw, "config",
                   ("plate", "patches", "topology", "force", "target", "grid", "basis"),
                   {"sweep": None, "notes": ""})
    if not isinstance(top["notes"], str):
        raise ConfigError("field 'notes' must be a string")
    plate = _parse_plate(top["plate"])
    if not isinstance(top["patches"], list):
        raise ConfigError("section 'patches' must be a list")
    patches = tuple(_parse_patch(item, i) for i, item in enumerate(top["patches"]))
    try:
        validate_layout(plate, patches)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    topology = _parse_topology(top["topology"], len(patches))

    fd = _section(top["force"], "force", ("amplitude_n", "x_m", "y_m"))
    force = HarmonicForce(
        amplitude=_number(fd["amplitude_n"], "force.amplitude_n"),
        x=_number(fd["x_m"], "force.x_m"),
        y=_number(fd["y_m"], "force.y_m"),
    )
    if force.amplitude <= 0.0:
        raise ConfigError("field 'force.amplitude_n' must be positive")
    if not plate.contains(force.x, force.y):
        raise ConfigError("force location lies outside the plate")

    target = _parse_point(top["target"], "target")
    if not plate.contains(*target):
        raise ConfigError("target point lies outside the plate")

    gd = _section(top["grid"], "grid", ("start_hz", "stop_hz", "count"))
    try:
        grid = GridSpec(
            start_hz=_number(gd["start_hz"], "grid.start_hz"),
            stop_hz=_number(gd["stop_hz"], "grid.stop_hz"),
            count=_integer(gd["count"], "grid.count"),
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    bd = _section(top["basis"], "basis", ("n_x", "n_y"), {"quadrature_order": 10})
    try:
        basis = BasisSpec(
            n_x=_integer(bd["n_x"], "basis.n_x"),
            n_y=_integer(bd["n_y"], "basis.n_y"),
            quadrature_order=_integer(bd["quadrature_order"], "basis.quadrature_order"),
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc

    sweep = None
    if top["sweep"] is not None:
        sd = _section(top["sweep"], "sweep", (),
                      {"r_min_ohms": 100.0, "r_max_ohms": 1e6, "points": 200,
                       "band_hz": None, "report_modes": 3})
        band = sd["band_hz"]
        if band is not None:
            if (not isinstance(band, list)) or len(band) != 2:
                raise ConfigError("field 'sweep.band_hz' must be [lo, hi]")
            band = (_number(band[0], "sweep.band_hz[0]"),
                    _number(band[1], "sweep.band_hz[1]"))
            if not (grid.start_hz <= band[0] < band[1] <= grid.stop_hz):
                raise ConfigError("field 'sweep.band_hz' must lie within the grid span")
        try:
            sweep = SweepSpec(
                r_min=_number(sd["r_min_ohms"], "sweep.r_min_ohms"),
                r_max=_number(sd["r_max_ohms"], "sweep.r_max_ohms"),
                points=_integer(sd["points"], "sweep.points"),
                objective_band=band,
                report_modes=_integer(sd["report_modes"], "sweep.report_modes"),
            )
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc

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


def _load_dict(load: ImpedanceLaw) -> dict:
    if load.kind == "resistor":
        return {"kind": "resistor", "ohms": load.ohms}
    if load.kind == "series_rl":
        return {"kind": "series_rl", "ohms": load.ohms, "henries": load.henries}
    return {"kind": load.kind}


def to_dict(config: ScenarioConfig) -> dict:
    """Normalized JSON-compatible form; parsing it reproduces the config."""
    out = {
        "plate": {
            "length_a_m": config.plate.length_a,
            "width_b_m": config.plate.width_b,
            "thickness_m": config.plate.thickness_hs,
            "youngs_modulus_pa": config.plate.youngs_Ys,
            "poisson_ratio": config.plate.poisson_nus,
            "density_kg_m3": config.plate.density_rhos,
            "modal_damping_ratio": config.plate.modal_damping_xi,
        },
        "patches": [
            {
                "c11_pa": p.c11_bar, "c12_pa": p.c12_bar, "c66_pa": p.c66_bar,
                "e31_c_m2": p.e31_bar, "permittivity_f_m": p.eps33_s,
                "density_kg_m3": p.density_rhop, "thickness_m": p.thickness_hp,
                "x1_m": p.x1, "x2_m": p.x2, "y1_m": p.y1, "y2_m": p.y2,
            }
            for p in config.patches
        ],
        "force": {"amplitude_n": config.force.amplitude,
                  "x_m": config.force.x, "y_m": config.force.y},
        "target": {"x_m": config.target[0], "y_m": config.target[1]},
        "grid": {"start_hz": config.grid.start_hz, "stop_hz": config.grid.stop_hz,
                 "count": config.grid.count},
        "basis": {"n_x": config.basis.n_x, "n_y": config.basis.n_y,
                  "quadrature_order": config.basis.quadrature_order},
    }
    if config.topology.mode == "separated":
        out["topology"] = {"mode": "separated",
                           "loads": [_load_dict(l) for l in config.topology.loads]}
    else:
        out["topology"] = {"mode": "connected",
                           "load": _load_dict(config.topology.loads[0])}
    if config.sweep is not None:
        s = config.sweep
        out["sweep"] = {
            "r_min_ohms": s.r_min, "r_max_ohms": s.r_max, "points": s.points,
            "report_modes": s.report_modes,
        }
        if s.objective_band is not None:
            out["sweep"]["band_hz"] = list(s.objective_band)
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
