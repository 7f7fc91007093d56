"""Rayleigh-Ritz discretization of the patched plate.

Trial functions are tensor products of clamped-clamped beam mode
functions. The mass per area and the rigidities are constant on
rectangles, so each matrix is a sum of Kronecker products of 1D Gram
matrices: one term for the bare plate over the whole domain plus one
delta term for each patch over its footprint (footprints never
overlap, so the sum is exact). Every Gram is computed by composite
Gauss-Legendre quadrature over its own interval, where the integrand is
smooth. Patch deltas are added in a canonical order (sorted by the
footprint's lower-left corner), so the matrices do not depend on the
order in which the patches are listed, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import basis
from .errors import AssemblyError, DomainError
from .plate import PatchSpec, PlateSpec, rigidities, validate_layout


@dataclass(frozen=True)
class BasisSpec:
    """Trial-function counts per axis and quadrature points per panel."""

    n_x: int
    n_y: int
    quadrature_order: int = 10

    def __post_init__(self):
        if self.n_x < 1 or self.n_y < 1:
            raise DomainError("basis.n_x and basis.n_y must be >= 1")
        if self.quadrature_order < 2:
            raise DomainError("basis.quadrature_order must be >= 2")

    @property
    def n_dof(self) -> int:
        return self.n_x * self.n_y


@dataclass(frozen=True)
class ModalModel:
    """Mass-normalized modes of the patched plate.

    ``mode_coeffs`` holds one coefficient vector per column; the
    physical mode shape is the coefficient-weighted sum of the trial
    functions. ``coupling`` (modes x patches) and ``capacitances`` are
    filled by the electromechanics layer and are None until then.
    """

    plate: PlateSpec
    patches: tuple[PatchSpec, ...]
    basis: BasisSpec
    frequencies: np.ndarray          # rad/s, ascending
    mode_coeffs: np.ndarray          # (n_dof, n_modes)
    damping_ratios: np.ndarray       # (n_modes,)
    coupling: np.ndarray | None = None      # (n_modes, n_patches)
    capacitances: np.ndarray | None = None  # (n_patches,)

    @property
    def n_modes(self) -> int:
        return self.frequencies.size

    @property
    def frequencies_hz(self) -> np.ndarray:
        return self.frequencies / (2.0 * np.pi)

    def mode_shapes_at(self, x: float, y: float) -> np.ndarray:
        """Values of every mass-normalized mode shape at one point."""
        bx = basis.eval_matrix(self.basis.n_x, self.plate.length_a, [x])[0]
        by = basis.eval_matrix(self.basis.n_y, self.plate.width_b, [y])[0]
        return np.outer(bx, by).reshape(-1) @ self.mode_coeffs


@lru_cache(maxsize=None)
def _gauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def _axis_cell_integrals(length: float, n: int, lo: float, hi: float, order: int):
    """1D Gram matrices of the trial functions over one interval.

    Returns (X0, X1, X2, X20) with X0 = int f_i f_k, X1 = int f_i' f_k',
    X2 = int f_i'' f_k'', X20[i, k] = int f_i'' f_k. Composite
    Gauss-Legendre: the interval is split into panels so the number of
    panels across the whole axis scales with the mode count, keeping the
    oscillatory integrands resolved to machine precision.
    """
    n_panels = max(1, math.ceil(n * (hi - lo) / length))
    nodes, weights = _gauss(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    wts = (half[:, None] * weights[None, :]).ravel()
    b0 = basis.eval_matrix(n, length, pts, 0)
    b1 = basis.eval_matrix(n, length, pts, 1)
    b2 = basis.eval_matrix(n, length, pts, 2)
    w0 = b0 * wts[:, None]
    X0 = w0.T @ b0
    X1 = (b1 * wts[:, None]).T @ b1
    X2 = (b2 * wts[:, None]).T @ b2
    X20 = (b2 * wts[:, None]).T @ b0
    return X0, X1, X2, X20


def assemble_system(plate: PlateSpec, patches, spec: BasisSpec):
    """Mass and stiffness matrices of the patched plate.

    The stiffness bilinear form per region is

        A11 u_xx v_xx + A22 u_yy v_yy + A12 (u_xx v_yy + u_yy v_xx)
            + A66 u_xy v_xy

    with host coefficients A11 = A22 = Dh, A12 = nu_s Dh and
    A66 = 2 (1 - nu_s) Dh, where Dh is the bare rigidity away from
    patches and the shifted-neutral-surface rigidity underneath them.
    Under a patch the patch layer adds A11 = A22 = D11p, A12 = D12p and
    A66 = 4 D66p (the twist rigidity enters the energy with the usual
    factor of four).

    Region 0 carries the bare-plate coefficients over the whole plate;
    each patch adds the difference to them over its footprint. With
    one row of scaled x-Grams and one of y-Grams per Kronecker term,
    M and K are one matrix product each.

    The matrices are not checked here: ``solve_modes`` raises
    AssemblyError unless both are finite and M is positive definite,
    where it factors M anyway.
    """
    patches = tuple(patches)
    validate_layout(plate, patches)
    nx, ny = spec.n_x, spec.n_y
    a, b = plate.length_a, plate.width_b
    nu = plate.poisson_nus
    Ds = plate.youngs_Ys * plate.thickness_hs**3 / (12.0 * (1.0 - nu**2))

    # (x interval, y interval, mass per area, A11 = A22, A12, A66)
    regions = [((0.0, a), (0.0, b), plate.density_rhos * plate.thickness_hs,
                Ds, nu * Ds, 2.0 * (1.0 - nu) * Ds)]
    for p in sorted(patches, key=lambda p: (p.x1, p.y1)):
        r = rigidities(plate, p)
        shift = r.Dsp - Ds
        regions.append(((p.x1, p.x2), (p.y1, p.y2), p.density_rhop * p.thickness_hp,
                        shift + r.D11p, nu * shift + r.D12p,
                        2.0 * (1.0 - nu) * shift + 4.0 * r.D66p))

    xm, ym, xk, yk = [], [], [], []
    for (x_lo, x_hi), (y_lo, y_hi), m, A11, A12, A66 in regions:
        X0, X1, X2, X20 = _axis_cell_integrals(a, nx, x_lo, x_hi, spec.quadrature_order)
        Y0, Y1, Y2, Y20 = _axis_cell_integrals(b, ny, y_lo, y_hi, spec.quadrature_order)
        xm.append(m * X0)
        ym.append(Y0)
        xk += [A11 * X2, A11 * X0, A12 * X20, A12 * X20.T, A66 * X1]
        yk += [Y0, Y2, Y20.T, Y20, Y1]

    n = nx * ny

    def kron_sum(xs, ys):
        """sum_r xs[r][i, k] * ys[r][j, l] as the (n, n) matrix [(i, j), (k, l)]."""
        xs = np.stack(xs).reshape(len(xs), nx * nx)
        ys = np.stack(ys).reshape(len(ys), ny * ny)
        return (xs.T @ ys).reshape(nx, nx, ny, ny).transpose(0, 2, 1, 3).reshape(n, n)

    M = kron_sum(xm, ym)
    K = kron_sum(xk, yk)
    return 0.5 * (M + M.T), 0.5 * (K + K.T)


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by 2x2 block recursion.

    numpy has no triangular solve. At 900 DOF a general inverse of the
    whole factor takes about four times as long as inverting the two
    diagonal blocks and forming the off-diagonal one with two products.
    """
    n = L.shape[0]
    if n <= 64:
        return np.tril(np.linalg.inv(L))
    h = n // 2
    A = _lower_inverse(L[:h, :h])
    B = _lower_inverse(L[h:, h:])
    out = np.zeros_like(L)
    out[:h, :h] = A
    out[h:, h:] = B
    out[h:, :h] = -B @ (L[h:, :h] @ A)
    return out


def solve_modes(M, K, modal_damping_xi: float, *, plate, patches, spec) -> ModalModel:
    """Generalized symmetric eigensolve; returns the full mode set.

    With M = L L^T, the modes of K v = w^2 M v are those of the
    standard problem C = L^-1 K L^-T, mapped back by v = L^-T w. The
    eigenvectors come back mass-normalized, each with its
    largest-magnitude coefficient positive (the first one on a tie), so
    their signs do not depend on LAPACK. A uniform modal damping ratio
    is attached. Coupling and capacitance stay unset here.
    """
    if not np.all(np.isfinite(M)) or not np.all(np.isfinite(K)):
        raise AssemblyError("non-finite entries in mass or stiffness matrix")
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise AssemblyError("mass matrix is singular or indefinite") from exc
    Li = _lower_inverse(L)
    C = Li @ K @ Li.T
    evals, W = np.linalg.eigh(0.5 * (C + C.T))
    vecs = Li.T @ W
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    vecs *= np.where(lead < 0.0, -1.0, 1.0)
    omega = np.sqrt(np.clip(evals, 0.0, None))
    for arr in (omega, vecs):
        arr.setflags(write=False)
    xi = np.full(omega.size, modal_damping_xi)
    xi.setflags(write=False)
    return ModalModel(
        plate=plate,
        patches=tuple(patches),
        basis=spec,
        frequencies=omega,
        mode_coeffs=vecs,
        damping_ratios=xi,
    )


def build_model(plate: PlateSpec, patches, spec: BasisSpec) -> ModalModel:
    """Assemble and solve in one step (coupling still unset)."""
    M, K = assemble_system(plate, patches, spec)
    return solve_modes(M, K, plate.modal_damping_xi, plate=plate, patches=patches, spec=spec)
