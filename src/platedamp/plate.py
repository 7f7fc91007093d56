"""Host plate and patch geometry/material model.

Provides the plate and patch specifications, the layout check, the
check of a force or target point, the canonical patch order, the
neutral-surface offset caused by a one-sided patch, and the bending
rigidities of host and patch layers that enter the plate's equation of
motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DomainError


def _check_finite(spec, section: str) -> None:
    """Refuse an infinite or NaN field of a plate or patch spec."""
    for field in fields(spec):
        if not math.isfinite(getattr(spec, field.name)):
            raise DomainError(f"{section}.{field.name} must be finite")


@dataclass(frozen=True)
class PlateSpec:
    """Rectangular isotropic Kirchhoff plate, fully clamped on all four edges.

    All quantities are SI: meters, pascals, kg/m^3.
    """

    length_a: float
    width_b: float
    thickness_hs: float
    youngs_Ys: float
    poisson_nus: float
    density_rhos: float
    modal_damping_xi: float = 0.0

    def __post_init__(self):
        for name in ("length_a", "width_b", "thickness_hs", "youngs_Ys", "density_rhos"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"plate.{name} must be strictly positive")
        if not 0.0 < self.poisson_nus < 0.5:
            raise DomainError("plate.poisson_nus must lie in (0, 0.5)")
        if not 0.0 <= self.modal_damping_xi < 1.0:
            raise DomainError("plate.modal_damping_xi must lie in [0, 1)")
        _check_finite(self, "plate")

    def contains(self, x: float, y: float) -> bool:
        return 0.0 <= x <= self.length_a and 0.0 <= y <= self.width_b


@dataclass(frozen=True)
class PatchSpec:
    """One surface-bonded piezoelectric patch.

    Elastic behaviour is described by the reduced (plane-stress) moduli
    c11_bar, c12_bar, c66_bar; the transverse piezoelectric constant
    e31_bar is signed and couples in-plane strain to the through-thickness
    electric field. The footprint is the axis-aligned rectangle
    [x1, x2] x [y1, y2] on the host plate.
    """

    c11_bar: float
    c12_bar: float
    c66_bar: float
    e31_bar: float
    eps33_s: float
    density_rhop: float
    thickness_hp: float
    x1: float
    x2: float
    y1: float
    y2: float

    def __post_init__(self):
        if not self.c11_bar > abs(self.c12_bar):
            raise DomainError("patch.c11_bar must exceed |c12_bar|")
        if not self.c66_bar > 0.0:
            raise DomainError("patch.c66_bar must be strictly positive")
        if not self.eps33_s > 0.0:
            raise DomainError("patch.eps33_s must be strictly positive")
        if not self.density_rhop > 0.0:
            raise DomainError("patch.density_rhop must be strictly positive")
        if not self.thickness_hp >= 0.0:
            raise DomainError("patch.thickness_hp must be non-negative")
        if not self.x1 < self.x2:
            raise DomainError("patch footprint requires x1 < x2")
        if not self.y1 < self.y2:
            raise DomainError("patch footprint requires y1 < y2")
        _check_finite(self, "patch")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


@dataclass(frozen=True)
class RigiditySet:
    """Bending rigidities of one patch/host pairing, all in N*m.

    Ds is the bare host rigidity about its mid-plane, Dsp the host
    rigidity under the patch about the shifted neutral surface, and
    D11p/D12p/D66p are the patch-layer rigidities about that same
    surface. z0 is the neutral-surface offset in meters.
    """

    Ds: float
    Dsp: float
    D11p: float
    D12p: float
    D66p: float
    z0: float


def validate_layout(plate: PlateSpec, patches) -> None:
    """Check that every footprint lies on the plate and no two overlap.

    Raises DomainError naming the offending patch index (0-based).
    """
    for i, p in enumerate(patches):
        if not (0.0 <= p.x1 and p.x2 <= plate.length_a and 0.0 <= p.y1 and p.y2 <= plate.width_b):
            raise DomainError(f"patch {i}: footprint exceeds the plate domain")
    for i, p in enumerate(patches):
        for j, q in enumerate(patches):
            if j <= i:
                continue
            if p.x1 < q.x2 and q.x1 < p.x2 and p.y1 < q.y2 and q.y1 < p.y2:
                raise DomainError(f"patch {i} and patch {j}: footprints overlap")


def validate_point(plate: PlateSpec, x: float, y: float, name: str) -> None:
    """Reject a point off the plate, or on a clamped edge, where every
    trial function vanishes and a response there would be rounding noise.

    Raises DomainError naming the point ``name``; NaN lies off the plate.
    """
    if not plate.contains(x, y):
        raise DomainError(f"{name} lies outside the plate")
    for axis, value, far in (("x", x, plate.length_a), ("y", y, plate.width_b)):
        if value in (0.0, far):
            raise DomainError(f"{name} ({x:g}, {y:g}) m lies on the clamped edge "
                              f"{axis} = {value:g} m, where every mode shape vanishes")


def patch_order(patches) -> list[int]:
    """Indices of ``patches`` in the canonical order, sorted by footprint
    corner (x1, y1): the order of the assembly's patch terms and of the
    voltage nodes, so that relabeling patches changes no bit."""
    return sorted(range(len(patches)), key=lambda i: (patches[i].x1, patches[i].y1))


def bare_rigidity(plate: PlateSpec) -> float:
    """Bending rigidity Ds = Ys hs^3 / (12 (1 - nu_s^2)) of the bare host
    about its mid-plane, in N*m."""
    return plate.youngs_Ys / (1.0 - plate.poisson_nus**2) * (plate.thickness_hs**3 / 12.0)


def neutral_axis_offset(plate: PlateSpec, patch: PatchSpec) -> float:
    """Offset of the bending neutral surface from the host mid-plane.

    Follows from in-plane stress equilibrium through the two-layer
    cross-section; vanishes with patch thickness and saturates at
    (hs + hp)/2 for a rigid patch.
    """
    hs, hp = plate.thickness_hs, patch.thickness_hp
    if hp == 0.0:
        return 0.0
    host_stretch = plate.youngs_Ys * hs / (1.0 - plate.poisson_nus**2)
    return patch.c11_bar * hp * (hs + hp) / (2.0 * (host_stretch + patch.c11_bar * hp))


def rigidities(plate: PlateSpec, patch: PatchSpec) -> RigiditySet:
    """All bending rigidities for one patch/host pairing.

    The patch-layer terms are the second moment of the patch layer about
    the shifted neutral surface, scaled by the respective reduced
    modulus; the common geometric factor appears once and is shared by
    D11p, D12p and D66p.
    """
    hs, hp = plate.thickness_hs, patch.thickness_hp
    z0 = neutral_axis_offset(plate, patch)
    host = plate.youngs_Ys / (1.0 - plate.poisson_nus**2)
    Dsp = host * (hs**3 / 12.0 + z0**2 * hp)
    layer = (hp**3 / 3.0 + hs**2 * hp / 4.0 + hs * hp**2 / 2.0
             - z0 * (hp * hs + hp**2) + z0**2 * hp)
    return RigiditySet(
        Ds=bare_rigidity(plate),
        Dsp=Dsp,
        D11p=patch.c11_bar * layer,
        D12p=patch.c12_bar * layer,
        D66p=patch.c66_bar * layer,
        z0=z0,
    )
