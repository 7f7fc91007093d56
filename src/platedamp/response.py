"""Steady-state harmonic response of the shunted electromechanical plate.

Every response is one linear solve repeated over frequency: the modal
equations with the patch-voltage circuit eliminated. The circuit is a
set of voltage nodes, each with a coupling column, a capacitance and a
load. Separated wiring has one node per patch; connected wiring has a
single node carrying the summed coupling and capacitance, whose voltage
every patch sees; the purely mechanical response has no node. Eliminating
the modal coordinates leaves a dense complex system in the node voltages
whose off-diagonals carry the structure-mediated interaction.

One block kernel builds and solves that system for a block of
frequencies at once. Its load-independent part, the structural block
j*omega * theta^T diag(inv) theta, is one matrix product against the
node coupling outer products; the loads enter only on the diagonal, so
a stack of candidate loads can share one structural block. Grids are
cut into consecutive blocks of BLOCK_POINTS (the last one shorter),
which bounds memory. The blocks run in order on the calling thread; the
BLAS library may use the other cores inside each block's products.

Open and short circuits are numerical surrogates (1e9 and 1e-3 ohm)
rather than separate code paths; their adequacy is covered by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SolverError
from .ritz import ModalModel

OPEN_OHMS = 1e9
SHORT_OHMS = 1e-3

MIN_RETAINED_MODES = 25
RETAIN_BAND_FACTOR = 4.0

BLOCK_POINTS = 256


def _impedance(ohms, henries, omega):
    """Branch impedance z = R + j*omega*L in ohms; broadcasts over arrays
    of loads and frequencies."""
    return ohms + 1j * omega * henries


def _admittance(ohms, henries, omega):
    """Branch admittance 1/z; a zero impedance raises SolverError."""
    z = _impedance(ohms, henries, omega)
    if np.any(z == 0):
        raise SolverError("zero branch impedance; use the short surrogate instead")
    return 1.0 / z


@dataclass(frozen=True)
class ImpedanceLaw:
    """One shunt branch: resistor, series RL, open or short.

    Every kind is z = R + j*omega*L: a resistor has L = 0, and open and
    short carry their surrogate resistance (above) as R, so a single
    solver covers every variant.
    """

    kind: str
    ohms: float = 0.0
    henries: float = 0.0

    _KINDS = ("resistor", "series_rl", "open", "short")
    _SURROGATES = {"open": OPEN_OHMS, "short": SHORT_OHMS}

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise DomainError(f"unknown impedance kind '{self.kind}'")
        if self.ohms < 0.0 or self.henries < 0.0:
            raise DomainError("impedance R and L must be non-negative")
        if self.henries > 0.0 and self.kind != "series_rl":
            raise DomainError(f"a {self.kind} branch takes no inductance; use series_rl")
        if self.kind in self._SURROGATES:
            object.__setattr__(self, "ohms", self._SURROGATES[self.kind])

    @classmethod
    def resistor(cls, ohms: float) -> "ImpedanceLaw":
        return cls("resistor", ohms=ohms)

    @classmethod
    def series_rl(cls, ohms: float, henries: float) -> "ImpedanceLaw":
        return cls("series_rl", ohms=ohms, henries=henries)

    @classmethod
    def open(cls) -> "ImpedanceLaw":
        return cls("open")

    @classmethod
    def short(cls) -> "ImpedanceLaw":
        return cls("short")

    def impedance(self, omega):
        """Branch impedance in ohms; broadcasts over an array of omega."""
        return _impedance(self.ohms, self.henries, omega)


@dataclass(frozen=True)
class ShuntTopology:
    """Circuit wiring: one load per patch, or one common load for all."""

    mode: str
    loads: tuple[ImpedanceLaw, ...]

    def __post_init__(self):
        if self.mode not in ("separated", "connected"):
            raise DomainError(f"unknown topology mode '{self.mode}'")
        if self.mode == "connected" and len(self.loads) != 1:
            raise DomainError("connected topology takes exactly one load")

    @classmethod
    def separated(cls, loads) -> "ShuntTopology":
        return cls("separated", tuple(loads))

    @classmethod
    def connected(cls, load: ImpedanceLaw) -> "ShuntTopology":
        return cls("connected", (load,))

    @classmethod
    def uniform(cls, mode: str, k: int, law: ImpedanceLaw) -> "ShuntTopology":
        """``law`` on each of ``k`` patches, or on the one common node."""
        return cls(mode, (law,) * (1 if mode == "connected" else k))


@dataclass(frozen=True)
class HarmonicForce:
    """Transverse point force: amplitude in newtons at (x, y)."""

    amplitude: float
    x: float
    y: float


@dataclass(frozen=True)
class FrfResult:
    """Complex response per unit force over a frequency grid.

    displacement is m/N at the target point, velocity is (m/s)/N and
    equals j*omega*displacement identically; voltages is V/N with one
    column per patch.
    """

    frequencies_hz: np.ndarray
    displacement: np.ndarray
    velocity: np.ndarray
    voltages: np.ndarray

    def __post_init__(self):
        for arr in (self.frequencies_hz, self.displacement, self.velocity, self.voltages):
            arr.setflags(write=False)


def retained_mode_count(model: ModalModel, grid_hz) -> int:
    """Modes kept in FRF sums: everything up to four times the band top,
    but never fewer than 25 (capped at the model size)."""
    omega_top = 2.0 * np.pi * float(np.max(grid_hz)) * RETAIN_BAND_FACTOR
    count = int(np.searchsorted(model.frequencies, omega_top, side="right"))
    return min(model.n_modes, max(MIN_RETAINED_MODES, count))


def _check_coupled(model: ModalModel):
    if model.coupling is None or model.capacitances is None:
        raise DomainError("model has no coupling data; run electromech.with_coupling first")


def _load_arrays(topologies):
    """R and L of every node load of C topologies of one wiring, each (C, m)."""
    ohms = np.array([[law.ohms for law in t.loads] for t in topologies], dtype=float)
    henries = np.array([[law.henries for law in t.loads] for t in topologies], dtype=float)
    return ohms, henries


class _Nodes(NamedTuple):
    """Voltage nodes of one wiring: ``incidence`` (K, m) maps node voltages
    to the K patches; ``theta`` (n, m) and ``caps`` (m,) are the summed
    coupling columns and capacitances of each node's patches and ``outer``
    (n, m*m) holds the products theta_ri * theta_rj. ``ohms`` and
    ``henries`` (..., m) are the node loads; a leading axis stacks
    candidate load sets that share the wiring."""

    incidence: np.ndarray
    theta: np.ndarray
    caps: np.ndarray
    outer: np.ndarray
    ohms: np.ndarray
    henries: np.ndarray


class _Kernel:
    """The block kernel: retained modes of one model, driven at the force
    point and read at the target, solved against any wiring's nodes."""

    def __init__(self, model: ModalModel, force: HarmonicForce, target, grid_hz,
                 n_modes: int | None):
        n = retained_mode_count(model, grid_hz) if n_modes is None else min(n_modes, model.n_modes)
        self.model = model
        self.n = n
        self.omega_n = model.frequencies[:n]
        self.zeta = model.damping_ratios[:n]
        self.phi0 = model.mode_shapes_at(force.x, force.y)[:n]
        self.phit = model.mode_shapes_at(target[0], target[1])[:n]

    def nodes(self, topology: ShuntTopology | None) -> _Nodes:
        """One node per patch (separated), one node for all patches
        (connected), or none (``None``: the purely mechanical response)."""
        k = len(self.model.patches)
        if topology is None:
            return _Nodes(np.zeros((k, 0)), np.zeros((self.n, 0)), np.zeros(0),
                          np.zeros((self.n, 0)), np.zeros(0), np.zeros(0))
        _check_coupled(self.model)
        if topology.mode == "connected":
            incidence = np.ones((k, 1))
        elif len(topology.loads) == k:
            incidence = np.eye(k)
        else:
            raise DomainError(f"expected {k} loads, got {len(topology.loads)}")
        theta = self.model.coupling[:self.n] @ incidence
        outer = (theta[:, :, None] * theta[:, None, :]).reshape(self.n, -1)
        ohms, henries = _load_arrays([topology])
        return _Nodes(incidence, theta, self.model.capacitances @ incidence, outer,
                      ohms[0], henries[0])

    def structure(self, omega: np.ndarray, nodes: _Nodes):
        """The load-independent blocks at frequencies ``omega`` of any shape.

        With the modal inverse inv_r = 1 / (omega_r^2 - omega^2 + 2j zeta_r
        omega_r omega), returns the structural block S = j*omega *
        theta^T diag(inv) theta (..., m, m), one GEMM against ``outer``;
        the right-hand side b (..., m) per newton; and d0 (...) and g
        (..., m) such that the target displacement is d0 + sum_i v_i g_i
        for node voltages v.
        """
        m = nodes.theta.shape[1]
        w = omega.reshape(-1, 1)
        with np.errstate(divide="ignore", invalid="ignore"):  # non-finite raises in respond
            inv = 1.0 / (self.omega_n**2 - w**2 + 2j * self.zeta * self.omega_n * w)
            jw = 1j * w
            S = jw * (inv @ nodes.outer)
            drive = self.phi0 * inv
            b = -jw * (drive @ nodes.theta)
            d0 = drive @ self.phit
            g = (inv * self.phit) @ nodes.theta
        shape = omega.shape
        return (S.reshape(shape + (m, m)), b.reshape(shape + (m,)), d0.reshape(shape),
                g.reshape(shape + (m,)))

    def system(self, omega: np.ndarray, nodes: _Nodes, blocks):
        """Voltage-space systems A (..., m, m) and b (..., m) per newton:
        the structural block of ``blocks = structure(omega, nodes)`` plus
        each node's branch admittance 1/z + j*omega*C on the diagonal.
        Stacked loads broadcast against shared frequencies."""
        S, b = blocks[:2]
        w = omega[..., None]
        y = _admittance(nodes.ohms, nodes.henries, w) + 1j * w * nodes.caps
        A = np.broadcast_to(S, y.shape + y.shape[-1:]).copy()
        diag = np.arange(y.shape[-1])
        A[..., diag, diag] += y
        return A, np.broadcast_to(b, y.shape)

    def respond(self, omega: np.ndarray, nodes: _Nodes, blocks):
        """Target displacement (...) and node voltages (..., m) per newton
        for ``blocks = structure(omega, nodes)``; every system of the
        stack goes to one ``solve_voltages`` call."""
        with np.errstate(divide="ignore", invalid="ignore"):  # non-finite raises below
            A, b = self.system(omega, nodes, blocks)
            m = b.shape[-1]
            v = solve_voltages(A.reshape(-1, m, m), b.reshape(-1, m)).reshape(b.shape) if m else b
            disp = blocks[2] + np.sum(v * blocks[3], axis=-1)
        if not (np.isfinite(disp).all() and np.isfinite(v).all()):
            raise SolverError("non-finite response; an undamped mode may lie on the grid")
        return disp, v

    def rank_one(self, omega: np.ndarray, nodes: _Nodes, index: int):
        """Target displacement per newton at the frequencies ``omega``
        (F,) for candidate loads at node ``index``, every other node
        keeping its load in ``nodes``.

        Solves the system A0 of ``nodes``' own loads once for the two
        right-hand sides [b, e_k] (k = index), giving v0 and u. A candidate
        changes only the admittance of node k, by delta = 1/z - 1/z0, so
        its system is A0 + delta e_k e_k^T and, by Sherman-Morrison, its
        voltages are v0 - u * delta v0_k / (1 + delta u_k). Returns a
        function of candidate R and L (C,) that gives the displacement
        (C, F). It checks every candidate's residual A0 v + delta v_k e_k
        - b against the bound of ``solve_voltages``, so a NaN or a
        degenerate update raises SolverError.
        """
        blocks = self.structure(omega, nodes)
        with np.errstate(divide="ignore", invalid="ignore"):  # non-finite raises in the solve
            A, b = self.system(omega, nodes, blocks)
            rhs = np.zeros(b.shape + (2,), dtype=complex)
            rhs[..., 0] = b
            rhs[..., index, 1] = 1.0
            base = solve_voltages(A, rhs)
        v0, u = base[..., 0], base[..., 1]
        y0 = _admittance(nodes.ohms[index], nodes.henries[index], omega)[:, None]
        A_t = A.transpose(0, 2, 1)
        d0, g = blocks[2][:, None], blocks[3][:, None]
        b = b[:, None]

        def respond(ohms, henries):
            with np.errstate(divide="ignore", invalid="ignore"):  # non-finite raises below
                delta = _admittance(ohms, henries, omega[:, None]) - y0      # (F, C)
                coef = delta * v0[:, index, None] / (1.0 + delta * u[:, index, None])
                v = v0[:, None] - coef[..., None] * u[:, None]             # (F, C, m)
                resid = v @ A_t
                resid[..., index] += delta * v[..., index]
                _check_residual(resid - b, b)
                disp = d0 + np.sum(v * g, axis=-1)
            if not np.isfinite(disp).all():
                raise SolverError("non-finite response; an undamped mode may lie on the grid")
            return disp.T

        return respond

    def run(self, freqs_hz: np.ndarray, topology: ShuntTopology | None):
        """Displacement (F,) and patch voltages (F, K) per newton over a
        grid, evaluated in consecutive blocks of BLOCK_POINTS."""
        nodes = self.nodes(topology)
        omega = 2.0 * np.pi * freqs_hz
        parts = []
        for i in range(0, omega.size, BLOCK_POINTS):
            w = omega[i:i + BLOCK_POINTS]
            parts.append(self.respond(w, nodes, self.structure(w, nodes)))
        disp = np.concatenate([d for d, _ in parts])
        volts = np.concatenate([v for _, v in parts]) @ nodes.incidence.T
        return disp, volts


def assemble_circuit_system(omega: float, model: ModalModel, loads, force: HarmonicForce,
                            n_modes: int | None = None):
    """Voltage-space system (A, b) for a separated topology at one frequency.

    A's diagonal carries the branch admittance 1/Z_k + j*omega*C_k plus
    the self term of the structure-mediated interaction; off-diagonals
    are symmetric in the two patch indices. b is linear in the force.
    This is the kernel's system at a single frequency.
    """
    kernel = _Kernel(model, force, (force.x, force.y), None,  # target unused here
                     model.n_modes if n_modes is None else n_modes)
    omega = np.array([omega], dtype=float)
    nodes = kernel.nodes(ShuntTopology.separated(loads))
    A, b = kernel.system(omega, nodes, kernel.structure(omega, nodes))
    return A[0], force.amplitude * b[0]


def solve_voltages(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense complex solve with a residual guard (no explicit inverse).

    Solves one system, A (K, K), or a stack, A (F, K, K), for one
    right-hand side b (..., K) or for R of them, the columns of b
    (..., K, R). Raises SolverError when a system is singular or the
    residual of a right-hand side is not below 1e-10 times its norm,
    which a NaN residual never is.
    """
    columns = b.ndim == A.ndim
    B = b if columns else b[..., None]
    if B.shape[-2] == 0:
        return np.zeros(b.shape, dtype=complex)
    try:
        V = np.linalg.solve(A, B)
    except np.linalg.LinAlgError as exc:
        raise SolverError("singular circuit system (topology/frequency degeneracy)") from exc
    _check_residual(A @ V - B, B, axis=-2)
    return V if columns else V[..., 0]


def _check_residual(resid: np.ndarray, b: np.ndarray, axis: int = -1):
    """Raise SolverError unless |resid| <= 1e-10 * |b| along ``axis``
    everywhere; a NaN fails."""
    tol = 1e-10 * np.maximum(np.linalg.norm(b, axis=axis), 1e-300)
    if not np.all(np.linalg.norm(resid, axis=axis) <= tol):
        raise SolverError("circuit solve residual exceeds tolerance")


def _frf(model: ModalModel, topology: ShuntTopology | None, force: HarmonicForce,
         target, grid_hz, n_modes: int | None) -> FrfResult:
    grid_hz = np.asarray(grid_hz, dtype=float)
    disp, volts = _Kernel(model, force, target, grid_hz, n_modes).run(grid_hz, topology)
    vel = 1j * 2.0 * np.pi * grid_hz * disp
    return FrfResult(grid_hz.copy(), disp, vel, volts)


def frf_separated(model: ModalModel, topology: ShuntTopology, force: HarmonicForce,
                  target, grid_hz, *, n_modes: int | None = None) -> FrfResult:
    """FRF with each patch on its own load."""
    if topology.mode != "separated":
        raise DomainError("frf_separated requires a separated topology")
    return _frf(model, topology, force, target, grid_hz, n_modes)


def frf_connected(model: ModalModel, topology: ShuntTopology, force: HarmonicForce,
                  target, grid_hz, *, n_modes: int | None = None) -> FrfResult:
    """FRF with all patches wired to one common node and a single load.

    The kernel sees a single node carrying the summed coupling and
    capacitance; every patch reports that node's voltage.
    """
    if topology.mode != "connected":
        raise DomainError("frf_connected requires a connected topology")
    _check_coupled(model)
    if not model.patches:
        raise DomainError("connected topology requires at least one patch")
    return _frf(model, topology, force, target, grid_hz, n_modes)


def frf_mechanical(model: ModalModel, force: HarmonicForce, target, grid_hz,
                   *, n_modes: int | None = None) -> FrfResult:
    """Purely mechanical FRF with all electromechanical feedback dropped."""
    return _frf(model, None, force, target, grid_hz, n_modes)


def frf(model: ModalModel, topology: ShuntTopology, force: HarmonicForce,
        target, grid_hz, *, n_modes: int | None = None) -> FrfResult:
    """Dispatch on topology mode."""
    if topology.mode == "connected":
        return frf_connected(model, topology, force, target, grid_hz, n_modes=n_modes)
    return frf_separated(model, topology, force, target, grid_hz, n_modes=n_modes)
