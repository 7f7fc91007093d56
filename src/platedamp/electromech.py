"""Blocked capacitance and modal electromechanical coupling of the patches.

The coupling coefficient of mode r and patch k is the footprint integral
of the mode-shape Laplacian, scaled by the signed piezoelectric constant
and the lever arm between the patch mid-plane and the (shifted) neutral
surface:

    theta[r, k] = -e31 * ((hp + hs)/2 - z0) * integral(lap(shape_r), footprint_k)

The closed form exploits the separable basis: the Laplacian integral
reduces to first-derivative differences across the footprint times 1D
integrals of the opposite-axis functions, both available exactly. The
coupling of a footprint outside a model is that of the model with only
that patch: ``coupling_matrix(dataclasses.replace(model, patches=(p,)))``.
The test oracles integrate the Laplacian by quadrature as an independent
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


def coupling_matrix(model: ModalModel) -> np.ndarray:
    """Coupling coefficients for every (mode, patch) pair, shape (n_modes, K).

    The footprint integral of fx''*fy + fx*fy'' is (fx'(x2) - fx'(x1)) *
    int(fy) + int(fx) * (fy'(y2) - fy'(y1)), from one derivative evaluation
    per axis at every patch edge and one integral per axis over every
    footprint. Column k is, bit for bit, the coupling of patch k alone.
    """
    spec, plate = model.basis, model.plate
    theta = np.zeros((model.n_modes, len(model.patches)))
    if not model.patches:
        return theta
    x1, x2, y1, y2 = np.array([(p.x1, p.x2, p.y1, p.y2) for p in model.patches]).T
    k = x1.size
    dx = basis.eval_matrix(spec.n_x, plate.length_a, np.concatenate([x1, x2]), 1)
    dy = basis.eval_matrix(spec.n_y, plate.width_b, np.concatenate([y1, y2]), 1)
    dphi, dpsi = dx[k:] - dx[:k], dy[k:] - dy[:k]
    int_phi = basis.integral(spec.n_x, plate.length_a, x1, x2)
    int_psi = basis.integral(spec.n_y, plate.width_b, y1, y2)
    lap = dphi[:, :, None] * int_psi[:, None, :] + int_phi[:, :, None] * dpsi[:, None, :]
    for j, patch in enumerate(model.patches):  # flattened to match the assembly ordering
        theta[:, j] = (-patch.e31_bar * _lever_arm(plate, patch)
                       * (lap[j].reshape(-1) @ model.mode_coeffs))
    return theta


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
