"""Steady-state harmonic response of the shunted electromechanical plate.

Every response is one linear solve repeated over frequency: the modal
equations with the patch-voltage circuit eliminated. The circuit is a
set of voltage nodes, each with a coupling column, a capacitance and a
load. Separated wiring has one node per patch; connected wiring has a
single node carrying the summed coupling and capacitance, whose voltage
every patch sees; the purely mechanical response has no node. Eliminating
the modal coordinates leaves a dense complex system in the node voltages
whose off-diagonals carry the structure-mediated interaction. Nodes are
kept in the canonical patch order of ``plate.patch_order``, in which
``ritz`` adds the patches too, so listing the patches in another order
permutes the voltage columns and changes no other bit.

One block kernel builds and solves that system for a block of
frequencies at once. Its load-independent parts (the structural block
j*omega * theta^T diag(inv) theta, the right-hand side and the target
terms) all come from one real matrix product: the real and imaginary
parts of the modal inverse inv against a per-wiring table of coupling
and mode-value products. The loads enter only on the diagonal, so a
stack of candidate loads can share one structural block. A change of
one node's load is a rank-one change of the system: ``rank_one`` gives
each candidate of a coordinate sweep one scalar per frequency, and
``carry`` moves the solution X = A0^-1 [b | I] of the current loads to an
accepted load by one rank-one update, so a descent cycle solves its band
systems once; ``charpoly`` evaluates a uniform sweep's band points from
the structural blocks alone. The kernel evaluates every stack of
candidate loads a sweep asks for, cut into stacks of about CHUNK_ENTRIES
complex entries; FRF grids are cut into consecutive blocks of
BLOCK_POINTS. Both bound memory and run in order on the calling thread.
Each call of the product is cut into rows of at most _PRODUCT_MADDS
multiply-adds, small enough that the BLAS library runs it inline instead
of handing it to a worker thread.

``run`` takes the FRFs of a list of topologies of one wiring, so a CLI
command that builds one kernel evaluates a wiring's open-circuit and
optimum FRFs as one stack, with one structural block per grid block for
both; ``frf`` is ``run`` of a single topology. A one-node system, which
every connected wiring is, is solved by division rather than by LAPACK.

Open and short circuits are numerical surrogates (1e9 and 1e-3 ohm)
rather than separate code paths; their adequacy is covered by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SolverError
from .plate import patch_order, validate_point
from .ritz import ModalModel, _is_integer

OPEN_OHMS = 1e9
SHORT_OHMS = 1e-3

MIN_RETAINED_MODES = 25
RETAIN_BAND_FACTOR = 4.0

BLOCK_POINTS = 256

# Multiply-adds of one call of the structural product. OpenBLAS hands a
# dgemm of about 1e6 multiply-adds or more to its worker threads, which then
# spin for about 0.13 s; a block's rows are cut so that every call stays
# below that and runs inline on the calling thread.
_PRODUCT_MADDS = 2**19

# Complex entries of one stack of candidate load sets: max(1, CHUNK_ENTRIES
# // (Q * (m*m + n))) candidates at Q frequencies each, m voltage nodes and
# n retained modes, or CHUNK_ENTRIES // F in a rank-one stack.
CHUNK_ENTRIES = 2**17


def _stacks(count: int, entries: int) -> list[slice]:
    """Consecutive slices of ``count`` candidates, each of about
    CHUNK_ENTRIES complex entries at ``entries`` per candidate."""
    size = max(1, CHUNK_ENTRIES // entries)
    return [slice(i, i + size) for i in range(0, count, size)]


def _times_jw(w, re, im):
    """j*w * (re + j*im) for real ``w`` (F, 1) and ``re``, ``im`` (F, c),
    written straight into one new complex array."""
    z = np.empty(re.shape, dtype=complex)
    np.multiply(im, -w, out=z.real)
    np.multiply(re, w, out=z.imag)
    return z


def _impedance(ohms, henries, omega):
    """Branch impedance z = R + j*omega*L in ohms; broadcasts over arrays
    of loads and frequencies. A reactance past the largest double is
    j*inf, whose 1/z is exactly 0: an open branch."""
    with np.errstate(over="ignore"):
        return ohms + 1j * omega * henries


def _admittance(ohms, henries, omega):
    """Branch admittance 1/z. An impedance of magnitude below the smallest
    normal double, as zero has, has no finite 1/z and raises SolverError."""
    z = _impedance(ohms, henries, omega)
    if np.any(np.abs(z) < np.finfo(float).tiny):
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
        if not (0.0 <= self.ohms < np.inf and 0.0 <= self.henries < np.inf):
            raise DomainError("impedance R and L must be finite and non-negative")
        if self.henries > 0.0 and self.kind != "series_rl":
            raise DomainError(f"a {self.kind} branch takes no inductance; use series_rl")
        if self.kind in self._SURROGATES:
            if self.ohms not in (0.0, self._SURROGATES[self.kind]):
                raise DomainError(f"a {self.kind} branch takes no resistance; use resistor")
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

    def __post_init__(self):
        if not np.isfinite([self.amplitude, self.x, self.y]).all():
            raise DomainError("force amplitude and position must be finite")


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


class _Nodes(NamedTuple):
    """Voltage nodes of one wiring, in canonical order: ``patch_node``
    (K,) is the node of each listed patch and ``load_index`` (m,) the
    listed load each node takes. ``caps`` (m,) are the summed
    capacitances of each node's patches. With theta (n, m) their summed
    coupling columns, ``table`` (n, m*m + 2m + 1) holds per retained mode
    r the products [theta_ri theta_rj | phi0_r theta_ri | phit_r theta_ri
    | phi0_r phit_r], phi0 and phit being the mode values at the force
    and target points. The kernel's methods take the node loads apart, as
    arrays ``ohms`` and ``henries`` (..., m) that may stack load sets."""

    patch_node: np.ndarray
    load_index: np.ndarray
    caps: np.ndarray
    table: np.ndarray


class _Kernel:
    """The block kernel: retained modes of one model, driven at the force
    point and read at the target, solved against any wiring's nodes. A
    force or target point off the plate or on a clamped edge, a grid that
    is not one-dimensional, an empty grid, a non-finite grid frequency or
    an ``n_modes`` that is not a positive integer raises DomainError."""

    def __init__(self, model: ModalModel, force: HarmonicForce, target, grid_hz,
                 n_modes: int | None):
        validate_point(model.plate, force.x, force.y, "force location")
        validate_point(model.plate, target[0], target[1], "target point")
        if grid_hz is not None:
            if np.ndim(grid_hz) != 1:
                raise DomainError("frequency grid must be one-dimensional")
            if np.size(grid_hz) == 0:
                raise DomainError("frequency grid is empty")
            if not np.isfinite(grid_hz).all():
                raise DomainError("frequency grid holds a non-finite frequency")
        if n_modes is not None and not (_is_integer(n_modes) and n_modes >= 1):
            raise DomainError("n_modes must be a positive integer")
        n = retained_mode_count(model, grid_hz) if n_modes is None else min(n_modes, model.n_modes)
        self.model = model
        self.n = n
        self.omega_n = model.frequencies[:n]
        self.zeta = model.damping_ratios[:n]
        self.phi0 = model.mode_shapes_at(force.x, force.y)[:n]
        self.phit = model.mode_shapes_at(target[0], target[1])[:n]
        self._two_zeta_omega = 2.0 * self.zeta * self.omega_n

    def scratch(self, rows: int, cols: int):
        """Temporaries of ``structure`` for up to ``rows`` frequencies and a
        table of ``cols`` columns: inv (2*rows, n), the squared magnitude of
        1/inv and one more (rows, n), and the product (2*rows, cols)."""
        n = self.n
        return (np.empty((2 * rows, n)), np.empty((rows, n)), np.empty((rows, n)),
                np.empty((2 * rows, cols)))

    def nodes(self, mode: str | None) -> _Nodes:
        """One node per patch (``"separated"``), one node for all patches
        (``"connected"``), or none (``None``: the purely mechanical
        response). Separated nodes, and the terms of connected sums, follow
        the patches in ``plate.patch_order``. Any other mode raises
        DomainError."""
        if mode not in (None, "separated", "connected"):
            raise DomainError(f"unknown topology mode '{mode}'")
        k = len(self.model.patches)
        order = patch_order(self.model.patches)
        patch_node = np.zeros(k, dtype=int)
        if mode is None:
            theta, caps, load_index = np.zeros((self.n, 0)), np.zeros(0), np.zeros(0, dtype=int)
        else:
            _check_coupled(self.model)
            theta, caps = self.model.coupling[:self.n, order], self.model.capacitances[order]
            if mode == "connected":
                if not k:
                    raise DomainError("connected topology requires at least one patch")
                theta, caps = theta.sum(axis=1, keepdims=True), caps.sum(keepdims=True)
                load_index = np.zeros(1, dtype=int)
            else:
                load_index = np.array(order, dtype=int)
                patch_node[load_index] = np.arange(k)
        table = np.hstack([(theta[:, :, None] * theta[:, None, :]).reshape(self.n, -1),
                           self.phi0[:, None] * theta, self.phit[:, None] * theta,
                           (self.phi0 * self.phit)[:, None]])
        return _Nodes(patch_node, load_index, caps, table)

    def stack(self, topologies):
        """The ``nodes`` of the one wiring of a list of topologies (``None``
        for the mechanical response) and their node loads ``ohms`` and
        ``henries`` (C, m), node j taking load ``load_index[j]``. More than
        one wiring, or a load count other than the node count, raises
        DomainError."""
        wirings = {None if t is None else (t.mode, len(t.loads)) for t in topologies}
        if len(wirings) != 1:
            raise DomainError("candidate topologies must share one wiring")
        mode, count = wirings.pop() or (None, 0)
        nodes = self.nodes(mode)
        if count != nodes.load_index.size:
            raise DomainError(f"expected {nodes.load_index.size} loads, got {count}")
        ohms, henries = (np.array([[getattr(t.loads[i], name) for i in nodes.load_index]
                                   for t in topologies], dtype=float)
                         for name in ("ohms", "henries"))
        return nodes, ohms, henries

    def structure(self, omega: np.ndarray, nodes: _Nodes, scratch=None):
        """The load-independent blocks at frequencies ``omega`` of any shape.

        With the modal inverse inv_r = 1 / (omega_r^2 - omega^2 + 2j zeta_r
        omega_r omega), returns the structural block S = j*omega *
        theta^T diag(inv) theta (..., m, m); the right-hand side b (..., m)
        per newton; and d0 (...) and g (..., m) such that the target
        displacement is d0 + sum_i v_i g_i for node voltages v. All four
        are columns of inv @ ``table``, taken as one real product of the
        stacked real and imaginary parts of inv, with no complex division,
        in calls of at most _PRODUCT_MADDS multiply-adds. The temporaries go
        into ``scratch`` from ``self.scratch``, large enough for
        ``omega.size`` rows, or into new arrays without it; the four results
        are always new arrays.
        """
        m = nodes.caps.size
        w = omega.reshape(-1, 1)
        f = len(w)
        inv, mag, tmp, out = scratch or self.scratch(f, nodes.table.shape[1])
        inv, mag, tmp, out = inv[:2 * f], mag[:f], tmp[:f], out[:2 * f]
        a, c = inv[:f], inv[f:]  # overwritten by Re inv and Im inv
        np.subtract(self.omega_n**2, w**2, out=a)
        np.multiply(self._two_zeta_omega, w, out=c)
        with np.errstate(divide="ignore", invalid="ignore"):  # non-finite raises in respond
            np.add(np.multiply(a, a, out=mag), np.multiply(c, c, out=tmp), out=mag)
            np.divide(a, mag, out=a)
            np.negative(np.divide(c, mag, out=c), out=c)
        table = nodes.table
        rows = max(1, _PRODUCT_MADDS // table.size)
        for i in range(0, len(inv), rows):
            np.matmul(inv[i:i + rows], table, out=out[i:i + rows])
        re, im = out[:len(w)], out[len(w):]  # of inv @ table
        mm = m * m
        S = _times_jw(w, re[:, :mm], im[:, :mm])
        b = _times_jw(-w, re[:, mm:mm + m], im[:, mm:mm + m])
        g = re[:, mm + m:-1] + 1j * im[:, mm + m:-1]
        d0 = re[:, -1] + 1j * im[:, -1]
        shape = omega.shape
        return (S.reshape(shape + (m, m)), b.reshape(shape + (m,)), d0.reshape(shape),
                g.reshape(shape + (m,)))

    def system(self, omega: np.ndarray, nodes: _Nodes, ohms, henries, blocks):
        """Voltage-space systems A (..., m, m) and b (..., m) per newton:
        the structural block of ``blocks = structure(omega, nodes)`` plus
        each node's branch admittance 1/z + j*omega*C on the diagonal, z
        that of the node loads ``ohms`` and ``henries`` (..., m). Stacked
        loads broadcast against shared frequencies."""
        S, b = blocks[:2]
        w = omega[..., None]
        y = _admittance(ohms, henries, w) + 1j * w * nodes.caps
        A = np.broadcast_to(S, y.shape + y.shape[-1:]).copy()
        diag = np.arange(y.shape[-1])
        A[..., diag, diag] += y
        return A, np.broadcast_to(b, y.shape)

    def respond(self, omega: np.ndarray, nodes: _Nodes, ohms, henries, blocks):
        """Target displacement (...) and node voltages (..., m) per newton
        of the node loads ``ohms`` and ``henries`` for ``blocks =
        structure(omega, nodes)``; every system of the stack goes to one
        ``solve_voltages`` call."""
        with np.errstate(divide="ignore", invalid="ignore"):  # non-finite raises below
            A, b = self.system(omega, nodes, ohms, henries, blocks)
            m = b.shape[-1]
            v = solve_voltages(A.reshape(-1, m, m), b.reshape(-1, m)).reshape(b.shape) if m else b
            disp = blocks[2] + np.sum(v * blocks[3], axis=-1)
        if not (np.isfinite(disp).all() and np.isfinite(v).all()):
            raise SolverError("non-finite response; an undamped mode may lie on the grid")
        return disp, v

    def velocity(self, freqs_hz: np.ndarray, nodes: _Nodes, ohms: np.ndarray,
                 henries: np.ndarray) -> np.ndarray:
        """|velocity| per newton (C, Q) of C candidate load sets ``ohms``
        and ``henries`` (C, m) at frequencies (Q,) shared by all, which
        then share one structural block, or (C, Q) of each one's own."""
        omega = 2.0 * np.pi * freqs_hz
        shared = omega.ndim == 1
        blocks = self.structure(omega, nodes) if shared else None
        parts = []
        for s in _stacks(len(ohms), omega.shape[-1] * (nodes.caps.size**2 + self.n)):
            w = omega if shared else omega[s]
            disp = self.respond(w, nodes, ohms[s, None], henries[s, None],
                                blocks if shared else self.structure(w, nodes))[0]
            parts.append(np.abs(1j * w * disp))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def solution(self, omega: np.ndarray, nodes: _Nodes, ohms, henries, blocks):
        """X = A0^-1 [b | I] (F, m, m + 1) of the systems A0 of the node
        loads ``ohms`` and ``henries`` (m,) at frequencies ``omega`` (F,),
        for ``blocks = structure(omega, nodes)``: the voltages v0 per newton
        in column 0 and the inverse in columns 1..m, from one
        ``solve_voltages`` for the m + 1 right-hand sides."""
        with np.errstate(divide="ignore", invalid="ignore"):  # non-finite raises in the solve
            A, b = self.system(omega, nodes, ohms, henries, blocks)
            return solve_voltages(A, np.concatenate([b[..., None], np.broadcast_to(
                np.eye(b.shape[-1]), A.shape)], axis=-1))

    def carry(self, omega: np.ndarray, loads, index: int, ohms: float, henries: float,
              solution):
        """The ``solution`` X at ``omega`` of the node ``loads``, a pair
        (ohms, henries) of arrays (m,), carried to node ``index`` = k taking
        the load ``ohms`` and ``henries`` by the Sherman-Morrison step of
        ``rank_one``: with delta the change of the node's admittance, u
        column k + 1 of X (column k of the inverse) and X_k row k of X, one
        rank-one update X - u X_k * delta / (1 + delta u_k). Nothing is
        checked here; a degenerate or non-finite step fails the next
        ``rank_one``."""
        u = solution[..., index + 1]
        with np.errstate(divide="ignore", invalid="ignore"):  # non-finite raises in rank_one
            delta = (_admittance(ohms, henries, omega)
                     - _admittance(loads[0][index], loads[1][index], omega))
            scaled = (delta / (1.0 + delta * u[:, index]))[:, None] * u
            return solution - scaled[:, :, None] * solution[:, None, index, :]

    def rank_one(self, freqs_hz: np.ndarray, nodes: _Nodes, loads, index: int,
                 ohms: np.ndarray, henries: np.ndarray, blocks, solution) -> np.ndarray:
        """|velocity| per newton (C, F) at the frequencies (F,) for C
        candidate loads ``ohms`` and ``henries`` (C,) at node ``index``,
        every other node keeping its load in ``loads``, the pair (ohms,
        henries) of arrays (m,), for ``blocks = structure(2 pi freqs_hz,
        nodes)`` and the ``solution`` of the systems of ``loads`` there.

        v0 and u solve the system A0 of ``loads`` for the two
        right-hand sides [b, e_k] (k = index): they are columns 0 and k + 1
        of ``solution``, and their residuals R0 and Ru are checked against
        the bound of ``solve_voltages``. A candidate changes only the
        admittance of node k, by delta = 1/z - 1/z0, so by Sherman-Morrison
        its voltages are v = v0 - coef u, coef = delta v0_k / (1 + delta u_k),
        and its displacement d0 + g^T v is D0 - coef G. Its residual is
        exactly R0 - coef Ru + t e_k, t = delta v_k - coef (0 but for
        rounding), so |R0| + |coef| |Ru| + |t| <= 1e-10 |b| is checked: a
        NaN, a drifted ``solution`` or a degenerate update raises SolverError.
        """
        omega = 2.0 * np.pi * freqs_hz
        with np.errstate(divide="ignore", invalid="ignore"):  # non-finite raises in the checks
            A, b = self.system(omega, nodes, *loads, blocks)
            base = solution[..., [0, index + 1]]  # [v0 | u]
            resid = A @ base - np.stack(np.broadcast_arrays(b, np.eye(b.shape[-1])[index]), -1)
            r0, ru = np.sqrt(_squared_norm(resid, -2)).T[:, :, None]  # |R0|, |Ru| (F, 1)
            limit = 1e-10 * np.sqrt(_squared_norm(b, -1))[:, None]
            gv0, G = np.sum(base * blocks[3][..., None], axis=-2).T[:, :, None]
            if not (np.all(r0 <= limit) and np.all(ru <= 1e-10)):
                raise SolverError("circuit solve residual exceeds tolerance")
        D0, (v0k, uk) = blocks[2][:, None] + gv0, base[:, index].T[:, :, None]
        y0 = _admittance(loads[0][index], loads[1][index], omega)[:, None]

        parts = []
        for s in _stacks(len(ohms), omega.size):
            with np.errstate(divide="ignore", invalid="ignore"):  # non-finite raises below
                delta = _admittance(ohms[s], henries[s], omega[:, None]) - y0  # (F, C)
                coef = delta * v0k / (1.0 + delta * uk)
                bound = r0 + np.abs(coef) * ru + np.abs(delta * (v0k - coef * uk) - coef)
                disp = D0 - coef * G
            if not np.all(bound <= limit):
                raise SolverError("circuit solve residual exceeds tolerance")
            if not np.isfinite(disp).all():
                raise SolverError("non-finite response; an undamped mode may lie on the grid")
            parts.append(np.abs(1j * omega * disp.T))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def run(self, freqs_hz: np.ndarray, topologies) -> list[FrfResult]:
        """The FRF over a grid (F,) of each of a list of topologies of one
        wiring (``None`` for the mechanical response), evaluated in
        consecutive blocks of BLOCK_POINTS that share one set of structure
        temporaries. Each block's structural blocks are computed once for
        the whole list, whose loads then go to one ``respond`` call, as in
        ``velocity``; each topology's FRF has the bits of its own run. Each
        block's node voltages go straight to the patch columns, so the
        results are the only grid-sized arrays."""
        nodes, ohms, henries = self.stack(topologies)
        omega = 2.0 * np.pi * freqs_hz
        scratch = self.scratch(min(omega.size, BLOCK_POINTS), nodes.table.shape[1])
        parts = []
        for i in range(0, omega.size, BLOCK_POINTS):
            w = omega[i:i + BLOCK_POINTS]
            d, v = self.respond(w, nodes, ohms[:, None], henries[:, None],
                                self.structure(w, nodes, scratch))
            parts.append((d, v.take(nodes.patch_node, axis=2) if v.shape[2]
                          else np.zeros(d.shape + nodes.patch_node.shape, dtype=complex)))
        del scratch  # before the grid-sized outputs, which a stack makes several of
        disp = np.concatenate([d for d, _ in parts], axis=1)
        volts = np.concatenate([v for _, v in parts], axis=1)
        vel = 1j * omega * disp
        freqs_hz = freqs_hz.copy()
        return [FrfResult(freqs_hz, *x) for x in zip(disp, vel, volts)]


def assemble_circuit_system(omega: float, model: ModalModel, loads, force: HarmonicForce,
                            n_modes: int | None = None):
    """Voltage-space system (A, b) for a separated topology at one frequency.

    A's diagonal carries the branch admittance 1/Z_k + j*omega*C_k plus
    the self term of the structure-mediated interaction; off-diagonals
    are symmetric in the two patch indices. b is linear in the force.
    This is the kernel's system at a single frequency, its rows and
    columns in the listed order of the patches and loads.
    """
    kernel = _Kernel(model, force, (force.x, force.y), None,  # target unused here
                     model.n_modes if n_modes is None else n_modes)
    omega = np.array([omega], dtype=float)
    nodes, ohms, henries = kernel.stack([ShuntTopology.separated(loads)])
    A, b = kernel.system(omega, nodes, ohms[0], henries[0], kernel.structure(omega, nodes))
    p = nodes.patch_node
    return A[0][np.ix_(p, p)], force.amplitude * b[0][p]


def solve_voltages(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense complex solve with a residual guard (no explicit inverse).

    Solves one system, A (K, K), or a stack, A (F, K, K), for one
    right-hand side b (..., K) or for R of them, the columns of b
    (..., K, R). A one-node system (K = 1, every connected wiring) is a
    division, any larger one goes to LAPACK. Raises SolverError when a
    system is singular (for K = 1, a zero entry) or the residual of a
    right-hand side is not below 1e-10 times its norm, which a NaN
    residual never is.
    """
    columns = b.ndim == A.ndim
    B = b if columns else b[..., None]
    if B.shape[-2] == 0:
        return np.zeros(b.shape, dtype=complex)
    singular = "singular circuit system (topology/frequency degeneracy)"
    if B.shape[-2] == 1:
        if (A == 0).any():
            raise SolverError(singular)
        with np.errstate(all="ignore"):  # an inf or NaN fails the residual check
            V = B / A
            small = _small_residual(A * V - B, B, axis=-2)
    else:
        try:
            V = np.linalg.solve(A, B)
        except np.linalg.LinAlgError as exc:
            raise SolverError(singular) from exc
        small = _small_residual(A @ V - B, B, axis=-2)
    if not small.all():
        raise SolverError("circuit solve residual exceeds tolerance")
    return V if columns else V[..., 0]


def _small_residual(resid: np.ndarray, b: np.ndarray, axis: int) -> np.ndarray:
    """Whether |resid| <= 1e-10 * |b| along ``axis``, the bound of every
    circuit solve; a NaN fails. Compared as squared norms, which need no
    complex temporary: ``np.linalg.norm`` of a complex array makes two
    of its size, enough to raise the descent job's peak memory. The
    literal 1e-20 is the bound squared; 1e-10**2 rounds above it."""
    return _squared_norm(resid, axis) <= 1e-20 * _squared_norm(b, axis)


def _squared_norm(x: np.ndarray, axis: int) -> np.ndarray:
    """|x|^2 of complex ``x`` along ``axis``."""
    s = np.square(x.real)
    s += np.square(x.imag)
    return s.sum(axis=axis)


def frf(model: ModalModel, topology: ShuntTopology | None, force: HarmonicForce,
        target, grid_hz, *, n_modes: int | None = None) -> FrfResult:
    """FRF over a grid of one wiring: separated, connected or, for
    ``topology=None``, the purely mechanical response with all
    electromechanical feedback dropped. Every patch of a connected wiring
    reports the common node's voltage. A load count other than the patch
    count, a connected wiring without patches or a model without coupling
    data raises DomainError."""
    grid_hz = np.asarray(grid_hz, dtype=float)
    return _Kernel(model, force, target, grid_hz, n_modes).run(grid_hz, [topology])[0]


def frf_separated(model: ModalModel, topology: ShuntTopology, force: HarmonicForce,
                  target, grid_hz) -> FrfResult:
    """``frf`` of a separated topology; any other raises DomainError."""
    if topology.mode != "separated":
        raise DomainError("frf_separated requires a separated topology")
    return frf(model, topology, force, target, grid_hz)


def frf_connected(model: ModalModel, topology: ShuntTopology, force: HarmonicForce,
                  target, grid_hz) -> FrfResult:
    """``frf`` of a connected topology; any other raises DomainError."""
    if topology.mode != "connected":
        raise DomainError("frf_connected requires a connected topology")
    return frf(model, topology, force, target, grid_hz)
