"""Blocked capacitance and modal electromechanical coupling of the patches.

The coupling coefficient of mode r and patch k is the footprint integral
of the mode-shape Laplacian, scaled by the signed piezoelectric constant
and the lever arm between the patch mid-plane and the (shifted) neutral
surface:

    theta[r, k] = -e31 * ((hp + hs)/2 - z0) * integral(lap(shape_r), footprint_k)

The closed form exploits the separable basis: the Laplacian integral
reduces to first-derivative differences across the footprint times 1D
integrals of the opposite-axis functions, both available exactly. The
test oracles integrate the Laplacian by quadrature as an independent
cross-check.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import basis
from .errors import DomainError
from .plate import PatchSpec, PlateSpec, neutral_axis_offset
from .ritz import ModalModel


def patch_capacitance(patch: PatchSpec) -> float:
    """Blocked capacitance in farads: permittivity times area over thickness."""
    return patch.eps33_s * patch.area / patch.thickness_hp


def _lever_arm(plate: PlateSpec, patch: PatchSpec) -> float:
    return (patch.thickness_hp + plate.thickness_hs) / 2.0 - neutral_axis_offset(plate, patch)


def _laplacian_footprint_integrals(model: ModalModel, patch: PatchSpec) -> np.ndarray:
    """Exact footprint integral of the Laplacian of every trial function.

    Separability turns the area integral of fx''*fy + fx*fy'' into
    (fx'(x2) - fx'(x1)) * int(fy) + int(fx) * (fy'(y2) - fy'(y1)).
    Returned flattened to match the assembly ordering.
    """
    spec, plate = model.basis, model.plate
    dx1 = basis.eval_matrix(spec.n_x, plate.length_a, [patch.x1, patch.x2], 1)
    dphi = dx1[1] - dx1[0]
    dy1 = basis.eval_matrix(spec.n_y, plate.width_b, [patch.y1, patch.y2], 1)
    dpsi = dy1[1] - dy1[0]
    int_phi = basis.integral(spec.n_x, plate.length_a, patch.x1, patch.x2)
    int_psi = basis.integral(spec.n_y, plate.width_b, patch.y1, patch.y2)
    return (np.outer(dphi, int_psi) + np.outer(int_phi, dpsi)).reshape(-1)


def coupling_vector(model: ModalModel, patch: PatchSpec) -> np.ndarray:
    """Per-mode coupling coefficients for one patch (closed form)."""
    lap = _laplacian_footprint_integrals(model, patch)
    return -patch.e31_bar * _lever_arm(model.plate, patch) * (lap @ model.mode_coeffs)


def coupling_matrix(model: ModalModel) -> np.ndarray:
    """Coupling coefficients for every (mode, patch) pair, shape (n_modes, K)."""
    if not model.patches:
        return np.zeros((model.n_modes, 0))
    return np.column_stack([coupling_vector(model, p) for p in model.patches])


def with_coupling(model: ModalModel) -> ModalModel:
    """New model with coupling and capacitance fields populated.

    Raises DomainError for a patch without positive thickness, whose
    capacitance does not exist.
    """
    for i, patch in enumerate(model.patches):
        if not patch.thickness_hp > 0.0:
            raise DomainError(f"patch {i}: thickness_hp must be positive to have a capacitance")
    theta = coupling_matrix(model)
    caps = np.array([patch_capacitance(p) for p in model.patches])
    theta.setflags(write=False)
    caps.setflags(write=False)
    return dataclasses.replace(model, coupling=theta, capacitances=caps)
