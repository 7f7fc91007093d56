"""Piezoelectric shunt damping of fully clamped plates with patch arrays."""

from .config import GridSpec, ScenarioConfig, parse_config, reference_config
from .electromech import coupling_matrix, patch_capacitance, with_coupling
from .errors import AssemblyError, ConfigError, DomainError, SolverError
from .plate import (PatchSpec, PlateSpec, RigiditySet, neutral_axis_offset,
                    rigidities, validate_layout)
from .response import (FrfResult, HarmonicForce, ImpedanceLaw, ShuntTopology,
                       assemble_circuit_system, frf, frf_connected, frf_separated,
                       retained_mode_count, solve_voltages)
from .ritz import BasisSpec, ModalModel, assemble_system, build_model
from .tuning import (ModeReduction, SweepResult, SweepSpec, VelocityObjective,
                     mode_windows, optimize_per_patch, percent_reduction, sweep_resistance)

__version__ = "0.1.0"

__all__ = [
    "AssemblyError", "BasisSpec", "ConfigError", "DomainError", "FrfResult",
    "GridSpec", "HarmonicForce", "ImpedanceLaw", "ModalModel", "ModeReduction",
    "PatchSpec", "PlateSpec", "RigiditySet", "ScenarioConfig",
    "ShuntTopology", "SolverError", "SweepResult", "SweepSpec",
    "VelocityObjective", "assemble_circuit_system", "assemble_system",
    "build_model", "coupling_matrix", "frf", "frf_connected", "frf_separated",
    "mode_windows", "neutral_axis_offset", "optimize_per_patch", "parse_config",
    "patch_capacitance", "percent_reduction", "reference_config",
    "retained_mode_count", "rigidities", "solve_voltages", "sweep_resistance",
    "validate_layout", "with_coupling",
]
