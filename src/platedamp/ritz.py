"""Rayleigh-Ritz discretization of the patched plate.

Trial functions are tensor products of clamped-clamped beam mode
functions. The mass per area and the rigidities are constant on
rectangles, so each matrix is a sum of Kronecker products of 1D Gram
matrices: one term for the bare plate over the whole domain plus one
delta term for each patch over its footprint (footprints never
overlap, so the sum is exact). Every Gram is computed by composite
Gauss-Legendre quadrature over its own interval, where the integrand is
smooth. Patch deltas are added in the canonical order of
``plate.patch_order`` (sorted by the footprint's lower-left corner), so
the matrices do not depend on the order in which the patches are listed,
bit for bit.

The eigensolve of ``build_model``, the one eigensolve entry, reduces
K v = w^2 M v to a standard symmetric problem with 2x2 block recursions on
triangular matrices, since numpy has no triangular BLAS: an inverse
Cholesky overwrites M with L^-1, L^-1 K overwrites K, and only the lower
triangle of C = L^-1 K L^-T, the half ``eigh`` reads, is formed. No
product of a zero block is computed; blocks of at most _BASE rows go to
numpy directly.

Models of at most _ONE_THREAD_MAX_DOF trial functions are assembled and
solved with OpenBLAS limited to one thread. Their products are too small
for a second thread to pay: OpenBLAS would hand some of them to its worker,
which then spins for about 0.13 s of CPU, and the thread split changes the
rounding of the results.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import basis
from .errors import AssemblyError, DomainError
from .plate import (PatchSpec, PlateSpec, bare_rigidity, patch_order, rigidities,
                    validate_layout)


def _check_integers(spec, section: str, *names: str) -> None:
    """Refuse each named count field of ``spec`` that is not an integer."""
    for name in names:
        value = getattr(spec, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DomainError(f"{section}.{name} must be an integer")


@dataclass(frozen=True)
class BasisSpec:
    """Trial-function counts per axis and quadrature points per panel."""

    n_x: int
    n_y: int
    quadrature_order: int = 10

    def __post_init__(self):
        _check_integers(self, "basis", "n_x", "n_y", "quadrature_order")
        if not (self.n_x >= 1 and self.n_y >= 1):
            raise DomainError("basis.n_x and basis.n_y must be >= 1")
        if not self.quadrature_order >= 2:
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


# Largest model whose dense linear algebra runs on one OpenBLAS thread. On a
# 2-vCPU machine, assembling and solving took a median 30 ms on one thread
# against 32 ms on two at 324 DOF, 46 against 47 ms at 400 DOF and 58
# against 54 ms at 441 DOF (48 builds each, in separate processes), the two
# threads using twice the CPU; one thread also spares the worker's spin.
_ONE_THREAD_MAX_DOF = 400


_THREAD_SYMBOLS = tuple((f"{prefix}_get_num_threads{suffix}",
                         f"{prefix}_set_num_threads{suffix}")
                        for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", ""))


@lru_cache(maxsize=None)
def _openblas() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS mapped into this
    process, found through /proc/self/maps; empty when there is none (another
    BLAS, or no /proc)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({path for path in (line.split()[-1] for line in fh)
                            if "openblas" in os.path.basename(path).lower()})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                found.append((get, set_))
                break
    return tuple(found)


_one_thread_lock = threading.Lock()
_one_thread_users = 0
_saved_threads: list[int] = []


@contextmanager
def _one_blas_thread(n_dof: int):
    """Limit OpenBLAS to one thread while ``n_dof <= _ONE_THREAD_MAX_DOF``,
    and restore its previous thread count on exit. The count is process-wide:
    a BLAS call of another Python thread made meanwhile also runs on one
    thread, and concurrent users restore it when the last one leaves."""
    global _one_thread_users
    libs = _openblas() if n_dof <= _ONE_THREAD_MAX_DOF else ()
    if not libs:
        yield
        return
    with _one_thread_lock:
        if _one_thread_users == 0:
            _saved_threads[:] = [get() for get, _ in libs]
            for _, set_ in libs:
                set_(1)
        _one_thread_users += 1
    try:
        yield
    finally:
        with _one_thread_lock:
            _one_thread_users -= 1
            if _one_thread_users == 0:
                for (_, set_), count in zip(libs, _saved_threads):
                    set_(count)


@lru_cache(maxsize=None)
def _gauss(order: int):
    """Gauss-Legendre nodes and weights of ``order`` points on [-1, 1]
    (Golub & Welsch, Math. Comp. 23, 1969): the eigenvalues of the
    Legendre Jacobi matrix, whose off-diagonal is k / sqrt(4k^2 - 1), and
    twice the squared first components of its eigenvectors, made exactly
    symmetric about 0 and scaled to sum to 2."""
    k = np.arange(1.0, order)
    nodes, vecs = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    weights = vecs[0] ** 2
    weights = weights + weights[::-1]
    return 0.5 * (nodes - nodes[::-1]), weights * (2.0 / weights.sum())


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
    b0, b1, b2 = basis.eval_matrix(n, length, pts, (0, 1, 2))
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

    The matrices are not checked here: ``build_model``'s solve raises
    AssemblyError unless both are finite and M is positive definite,
    where it factors M anyway.
    """
    patches = tuple(patches)
    validate_layout(plate, patches)
    nx, ny = spec.n_x, spec.n_y
    a, b = plate.length_a, plate.width_b
    nu = plate.poisson_nus
    Ds = bare_rigidity(plate)

    # (x interval, y interval, mass per area, A11 = A22, A12, A66)
    regions = [((0.0, a), (0.0, b), plate.density_rhos * plate.thickness_hs,
                Ds, nu * Ds, 2.0 * (1.0 - nu) * Ds)]
    for p in (patches[i] for i in patch_order(patches)):
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
    xm, ym, xk, yk = (np.stack(grams) for grams in (xm, ym, xk, yk))  # the lists freed

    def kron_sum(xs, ys):
        """sum_r xs[r, i, k] * ys[r, j, l] as the (n, n) matrix [(i, j), (k, l)]."""
        product = xs.reshape(len(xs), nx * nx).T @ ys.reshape(len(ys), ny * ny)
        return product.reshape(nx, nx, ny, ny).transpose(0, 2, 1, 3).reshape(n, n)

    with _one_blas_thread(n):
        M = kron_sum(xm, ym)
        K = kron_sum(xk, yk)
    del xm, ym, xk, yk
    for A in (M, K):  # in place, the bits of 0.5 * (A + A.T) (A += A.T copies all of A.T):
        for s in range(0, n, 128):  # 128 rows left of the diagonal, then the diagonal block
            for X, Y in ((A[s:s + 128, :s], A[:s, s:s + 128]), (A[s:s + 128, s:s + 128],) * 2):
                X += Y.T
                X *= 0.5
                Y[...] = X.T
    return M, K


# Largest order of a diagonal block that the triangular recursions below hand
# to numpy directly.
_BASE = 128
_ABOVE = np.triu(np.ones((_BASE, _BASE), dtype=bool), 1)  # strict upper triangle of a block
_ABOVE.setflags(write=False)


def _add_product(out: np.ndarray, A: np.ndarray, B: np.ndarray, op=np.add) -> None:
    """out = op(out, A @ B) in place, max(_BASE, half of out's rows) rows at
    a time, so that the product's temporary of a large n x n solve is at
    most n/4 x n."""
    step = max(_BASE, out.shape[0] // 2)
    for i in range(0, out.shape[0], step):
        block = out[i:i + step]
        op(block, A[i:i + step] @ B, out=block)


def _lower_product(out: np.ndarray, A: np.ndarray, B: np.ndarray, op) -> None:
    """out = op(out, A @ B.T) on out's lower triangle and diagonal only; the
    products of the blocks above the diagonal are never formed."""
    n = out.shape[0]
    if n <= _BASE:
        op(out, A @ B.T, out=out, where=~_ABOVE[:n, :n])
        return
    h = n // 2
    _lower_product(out[:h, :h], A[:h], B[:h], op)
    _add_product(out[h:, :h], A[h:], B[:h].T, op)
    _lower_product(out[h:, h:], A[h:], B[h:], op)


def _trmm(T: np.ndarray, B: np.ndarray, lower: bool) -> None:
    """B = T @ B in place for a triangular T, of which only the lower
    (``lower``) or upper triangle is read; no product of a zero block is
    formed. A right product B @ T is the left one of the transposed views."""
    n = T.shape[0]
    if n <= _BASE:
        B[...] = (np.tril(T) if lower else np.triu(T)) @ B
        return
    h = n // 2
    # the rows of B written first, from the others' old values
    one, two = (slice(h, None), slice(None, h)) if lower else (slice(None, h), slice(h, None))
    _trmm(T[one, one], B[one], lower)
    _add_product(B[one], T[one, two], B[two])
    _trmm(T[two, two], B[two], lower)


def _inverse_cholesky(A: np.ndarray) -> None:
    """Overwrite the symmetric positive definite A, of which only the lower
    triangle is read, with L^-1, where A = L L^T. Raises
    numpy.linalg.LinAlgError where a pivot, also one of a trailing Schur
    complement, is not positive. L itself is never stored whole."""
    n = A.shape[0]
    if n <= _BASE:
        A[...] = np.linalg.inv(np.linalg.cholesky(A))
        np.copyto(A, 0.0, where=_ABOVE[:n, :n])  # not np.tril: one n x n temporary less
        return
    h = n // 2
    A11, A21, A22 = A[:h, :h], A[h:, :h], A[h:, h:]
    _inverse_cholesky(A11)                       # Li11
    _trmm(A11, A21.T, lower=True)                # L21 = A21 Li11^T
    _lower_product(A22, A21, A21, np.subtract)   # S = A22 - L21 L21^T
    _inverse_cholesky(A22)                       # Li22 = L22^-1, S = L22 L22^T
    _trmm(A11.T, A21.T, lower=False)             # L21 Li11
    _trmm(A22, A21, lower=True)                  # Li22 L21 Li11
    np.negative(A21, out=A21)                    # Li21
    A[:h, h:] = 0.0


def _congruence(X: np.ndarray, T: np.ndarray) -> None:
    """Overwrite X with X @ T.T on and below the diagonal and with T's strict
    lower triangle, transposed, above it. T must be lower triangular, zeros
    included; the result depends only on X's lower triangle."""
    n = X.shape[0]
    if n <= _BASE:
        X[...] = X @ T.T
        np.copyto(X, T.T, where=_ABOVE[:n, :n])
        return
    h = n // 2
    _congruence(X[h:, h:], T[h:, h:])              # X22 T22^T
    _lower_product(X[h:, h:], X[h:, :h], T[h:, :h], np.add)  # + X21 T21^T
    _trmm(T[:h, :h], X[h:, :h].T, lower=True)      # X21 T11^T
    X[:h, h:] = T[h:, :h].T
    _congruence(X[:h, :h], T[:h, :h])              # X11 T11^T


def _solve(system: list, modal_damping_xi: float, *, plate, patches, spec) -> ModalModel:
    """Generalized symmetric eigensolve of ``system = [M, K]``: the full mode
    set, mass-normalized, each mode's largest-magnitude coefficient positive
    (the first one on a tie) so that signs do not depend on LAPACK, with the
    uniform modal damping ratio attached. Raises AssemblyError unless M and
    K are finite and M is positive definite.

    With M = L L^T, the modes are those of C = L^-1 K L^-T, mapped back by
    v = L^-T w. The list is emptied and its arrays overwritten, so that no
    n x n array is copied: M with L^-1, freed before ``eigh``, and K with
    L^-1 K, then with C's lower triangle and L^-T above it.
    """
    M, K = system
    system.clear()
    n = M.shape[0]
    if not np.all(np.isfinite(M)) or not np.all(np.isfinite(K)):
        raise AssemblyError("non-finite entries in mass or stiffness matrix")
    with _one_blas_thread(n):
        try:
            _inverse_cholesky(M)
        except np.linalg.LinAlgError as exc:
            raise AssemblyError("mass matrix is singular or indefinite") from exc
        Li, C = M, K
        del M, K
        diag = Li.diagonal().copy()
        _trmm(Li, C, lower=True)   # Li K
        _congruence(C, Li)         # C = Li K Li^T on and below the diagonal, Li^T above
        del Li
        evals, vecs = np.linalg.eigh(C)
        C.flat[::n + 1] = diag     # C's upper triangle is now Li^T
        _trmm(C, vecs, lower=False)  # Li^T W
        del C
    # The sign of each column's first largest-magnitude coefficient, from its
    # largest and smallest entries: no |vecs| copy.
    cols = np.arange(vecs.shape[1])
    hi, lo = vecs.argmax(axis=0), vecs.argmin(axis=0)
    top, bottom = vecs[hi, cols], vecs[lo, cols]
    negative = (-bottom > top) | ((-bottom == top) & (lo < hi))
    vecs *= np.where(negative, -1.0, 1.0)
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
    """The one eigensolve entry: assemble and solve (coupling still unset).
    The solve holds the only references to M and K, and frees each once consumed."""
    return _solve(list(assemble_system(plate, patches, spec)), plate.modal_damping_xi,
                  plate=plate, patches=patches, spec=spec)
