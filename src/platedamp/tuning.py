"""Shunt resistance tuning and damping-performance reporting.

The tuning objective is the peak magnitude of the velocity FRF at the
measurement point inside a frequency band (by default a window around
the first mode). Sweeps are log-spaced in resistance; for each
candidate the peak is located on the band's grid points and then
sharpened by a fixed number of safeguarded parabolic steps between the
grid neighbours of that point, so peak heights are not quantized by the
grid.

This module only searches. A sweep evaluates all of its candidates at
the band's grid points in one call of the response module's kernel, and
each parabolic step evaluates all of them again in one call; the
kernel stacks the candidates. A uniform sweep of at least 4m candidates
on m >= 1 nodes takes its band points from ``charpoly`` instead, and a
coordinate sweep of the per-patch descent, which changes the load of one
node only, from the kernel's rank-one update, one scalar per candidate
and frequency. The descent computes what does not depend on the loads
once: the band's structural blocks for all its sweeps, and in each cycle
the solution X = A0^-1 [b | I] of its band systems, one array carried from
sweep to sweep by one rank-one update per accepted law and checked once.

The descent keeps a candidate only when it strictly beats the current
objective, so it refines only the candidates that still can. A sweep
does not offer the patch's current resistance: it is a grid value whose
peak is the current objective. And the search stops refining a
candidate once its value reaches the current objective: refinement
only ever raises a value above its grid peak, so that candidate cannot
win, and its value is a lower bound. Neither rule turns away a law
that could be accepted; the candidates still refined share smaller
kernel stacks, so their values move by rounding only. The uniform sweep
refines every candidate, since its values are outputs. The tests check
the descent against one that sweeps every patch with ``peaks_in_band``
over the explicit topologies, which shares no rank-one, carry or pruning
code with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .response import HarmonicForce, ShuntTopology, _check_coupled, _Kernel
from .ritz import ModalModel, _check_integers, _is_integer

# Peak refinement: parabolic steps on 1/|v|^2, close to a quadratic in f
# near a resonance (Brent, Algorithms for Minimization without Derivatives,
# 1973, ch. 5). Evaluated points stay SPACING of the grid bracket apart, the
# final width of a 28-evaluation golden-section search, so no vertex is
# left to rounding and batched and single runs agree.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
PARABOLIC_STEPS = 6
SPACING = GOLDEN ** 27


def _parabolic_search(velocity, pts, vals, stop=math.inf):
    """Maxima of C candidates with values ``vals`` (C, P) at the ascending
    ``pts`` (P,), refined off the grid: best values and frequencies (C,).

    The grid argmax x and its neighbours a < b bracket the peak. Each step
    evaluates the vertex of the parabola through (f, 1/v^2) at a, x and b if
    it lies inside the bracket at least tol = SPACING * (2 grid steps) from
    each (a NaN or inf vertex never does), else the golden point of the
    larger side, for every candidate whose golden point keeps tol, in one
    ``velocity(rows, f)`` call. At a band end (x = a or b) the point last
    dropped from the bracket stands in, and the fallback is 1.5 tol inward.
    A finite point becomes x only when strictly higher; the bracket then
    shrinks to x's neighbours.

    A candidate whose value at x is not below ``stop`` is not evaluated
    again, and its value there is returned as a lower bound of its peak:
    x's value only ever rises. Every other candidate takes the steps it
    takes with ``stop`` at inf, bit for bit where ``velocity`` computes
    each row on its own; the kernel's rows move by rounding with their
    stack.
    """
    c = np.arange(vals.shape[0])
    i = np.argmax(vals, axis=1)
    lo, hi = np.maximum(i - 1, 0), np.minimum(i + 1, pts.size - 1)
    up, down = np.minimum(lo + 2, pts.size - 1), np.maximum(hi - 2, 0)  # tol spans two steps
    j = np.where(i == 0, up, down)
    a, x, b, w = pts[lo], pts[i], pts[hi], pts[j]
    va, vx, vb, vw = vals[c, lo], vals[c, i], vals[c, hi], vals[c, j]
    tol = SPACING * (pts[up] - pts[down])
    for _ in range(PARABOLIC_STEPS):
        side = np.where(b - x > x - a, b - x, a - x)
        edge = (a == x) | (b == x)  # x on a band end: w stands in for the missing side
        a3, va3 = np.where(a == x, w, a), np.where(a == x, vw, va)
        b3, vb3 = np.where(b == x, w, b), np.where(b == x, vw, vb)
        with np.errstate(all="ignore"):  # a 0/0 or inf vertex takes the golden point
            ga, gx, gb = 1.0 / va3**2, 1.0 / vx**2, 1.0 / vb3**2
            p = (x - a3)**2 * (gx - gb) - (x - b3)**2 * (gx - ga)
            u = x - p / (2.0 * ((x - a3) * (gx - gb) - (x - b3) * (gx - ga)))
        ok = (u - a >= tol) & (b - u >= tol) & (np.abs(u - x) >= tol)  # False on NaN
        u = np.where(ok, u, x + np.where(edge, np.sign(side) * 1.5 * tol, (1.0 - GOLDEN) * side))
        s = np.flatnonzero(((1.0 - GOLDEN) * np.abs(side) > tol) & (vx < stop))
        if not s.size:
            break
        u, vu = u[s], velocity(s, u[s])
        better = (vu > vx[s]) & np.isfinite(vu)  # NaN or inf never becomes the best
        end, vend = np.where(better, x[s], u), np.where(better, vx[s], vu)
        left = better == (u > x[s])  # the new end replaces a, else b
        w[s], vw[s] = np.where(left, a[s], b[s]), np.where(left, va[s], vb[s])
        a[s], va[s] = np.where(left, end, a[s]), np.where(left, vend, va[s])
        b[s], vb[s] = np.where(left, b[s], end), np.where(left, vb[s], vend)
        x[s], vx[s] = np.where(better, u, x[s]), np.where(better, vu, vx[s])
    return vx, x


@dataclass(frozen=True)
class SweepSpec:
    """Log-spaced resistance sweep and its objective band."""

    r_min: float = 100.0
    r_max: float = 1e6
    points: int = 200
    objective_band: tuple[float, float] | None = None
    report_modes: int = 3

    def __post_init__(self):
        if not 0.0 < self.r_min < self.r_max < math.inf:
            raise DomainError("sweep requires 0 < r_min < r_max < inf")
        _check_integers(self, "sweep", "points", "report_modes")
        if not self.points >= 2:
            raise DomainError("sweep requires points >= 2")
        if not self.report_modes >= 1:
            raise DomainError("sweep requires report_modes >= 1")
        if self.objective_band is not None:
            lo, hi = self.objective_band
            if not lo < hi:
                raise DomainError("sweep objective_band must satisfy lo < hi")

    def resistances(self) -> np.ndarray:
        return np.geomspace(self.r_min, self.r_max, self.points)


@dataclass(frozen=True)
class ModeReduction:
    """Peak comparison for one mode window."""

    mode: int
    window_hz: tuple[float, float]
    oc_peak: float
    oc_peak_hz: float
    shunted_peak: float
    shunted_peak_hz: float
    reduction_pct: float
    flagged: bool
    note: str = ""


@dataclass(frozen=True)
class SweepResult:
    """Objective curve of one resistance sweep."""

    r_values: np.ndarray
    objective_values: np.ndarray
    peak_freqs_hz: np.ndarray
    r_opt: float
    objective_opt: float
    peak_hz_opt: float


class VelocityObjective:
    """|velocity FRF| evaluator bound to one model/force/target.

    Evaluates whole frequency vectors through the response module's
    block kernel, the same one behind every FRF; a call of up to
    BLOCK_POINTS frequencies is a single block.

    ``peaks_in_band`` evaluates a list of candidate topologies of one
    wiring at once, and the descent's ``_sweep`` the candidates of one
    coordinate sweep, which change a single node's load. Each makes one
    kernel call for the band's grid points and one per parabolic step.
    The grid must strictly ascend, since the search brackets each peak
    between its grid neighbors; any other grid raises DomainError.
    """

    def __init__(self, model: ModalModel, force: HarmonicForce, target, grid_hz):
        _check_coupled(model)
        self.model = model
        self.grid_hz = np.asarray(grid_hz, dtype=float)
        self._kernel = _Kernel(model, force, target, self.grid_hz, None)
        if not (self.grid_hz[1:] > self.grid_hz[:-1]).all():
            raise DomainError("objective grid must strictly ascend")
        self.n_modes = self._kernel.n

    def velocity_abs(self, topology: ShuntTopology, freqs_hz: np.ndarray) -> np.ndarray:
        """|velocity| per newton at each frequency."""
        freqs_hz = np.asarray(freqs_hz, dtype=float)
        return np.abs(self._kernel.run(freqs_hz, [topology])[0].velocity)

    def band_points(self, band: tuple[float, float]) -> np.ndarray:
        lo, hi = band
        pts = self.grid_hz[(self.grid_hz >= lo) & (self.grid_hz <= hi)]
        if pts.size == 0:
            raise DomainError(f"objective band [{lo}, {hi}] Hz contains no grid point")
        return pts

    def peak_in_band(self, topology: ShuntTopology, band: tuple[float, float]):
        """Peak |velocity| inside the band and its frequency, refined off
        the grid, for one topology (see ``peaks_in_band``)."""
        peaks, freqs = self.peaks_in_band([topology], band)
        return float(peaks[0]), float(freqs[0])

    def peaks_in_band(self, topologies, band: tuple[float, float]):
        """Peak |velocity| inside the band and its frequency, refined off
        the grid, for each of a list of topologies of one wiring.

        Each candidate brackets its grid argmax between its neighbors,
        then narrows the bracket by PARABOLIC_STEPS safeguarded parabolic
        steps, the fixed count keeping the search deterministic. Returns
        two arrays with one entry per topology.
        """
        if not topologies:
            raise DomainError("peaks_in_band needs at least one topology")
        nodes, ohms, henries = self._kernel.stack(topologies)
        pts = self.band_points(band)
        return self._refine(nodes, ohms, henries, pts,
                            self._kernel.velocity(pts, nodes, ohms, henries))

    def _sweep(self, nodes, loads, pts, blocks, solved, node: int, ohms, henries,
               stop=math.inf):
        """Refined peaks and their frequencies of one coordinate sweep: the
        candidate loads ``ohms`` and ``henries`` (C,) at ``node``, every
        other node keeping its load in ``loads``, the pair (ohms, henries)
        of arrays (m,). The values at the band's points ``pts`` are rank-one
        updates (``_Kernel.rank_one``) of the checked solution ``solved`` of
        the band systems of ``loads``, for the structural ``blocks`` there; a
        candidate whose value reaches ``stop`` returns a lower bound
        (``_parabolic_search``). Gives what ``peaks_in_band`` gives for the
        explicit topologies, up to rounding."""
        vals = self._kernel.rank_one(pts, loads, node, ohms, henries, blocks, solved)
        rows = [np.repeat(x[None], ohms.size, axis=0) for x in loads]
        rows[0][:, node], rows[1][:, node] = ohms, henries
        return self._refine(nodes, *rows, pts, vals, stop)

    def _refine(self, nodes, ohms, henries, pts: np.ndarray, vals: np.ndarray,
                stop=math.inf):
        """Refined peaks and their frequencies of C candidates with node
        loads ``ohms`` and ``henries`` (C, m) and values ``vals`` (C, P)
        at the band points: one parabolic search over all of them."""
        return _parabolic_search(
            lambda rows, f: self._kernel.velocity(f[:, None], nodes, ohms[rows],
                                                  henries[rows])[:, 0], pts, vals, stop)


def mode_windows(model: ModalModel, count: int, grid_hz) -> list[tuple[float, float]]:
    """Frequency windows around the first ``count`` modes.

    Half-width is 8 percent of the modal frequency, shrunk near
    neighboring modes so windows never overlap, and clipped to the grid
    if the mode lies on it; a mode off the grid keeps its whole window.
    """
    grid_hz = np.asarray(grid_hz, dtype=float)
    glo, ghi = float(grid_hz.min()), float(grid_hz.max())
    f = model.frequencies_hz
    count = min(count, f.size)
    out = []
    for r in range(count):
        fr = f[r]
        half = 0.08 * fr
        if r > 0:
            half = min(half, 0.45 * (fr - f[r - 1]))
        if r + 1 < f.size:
            half = min(half, 0.45 * (f[r + 1] - fr))
        lo, hi = fr - half, fr + half
        if glo <= fr <= ghi:
            lo, hi = max(lo, glo), min(hi, ghi)
        out.append((float(lo), float(hi)))
    return out


def _resolve_band(objective: VelocityObjective, sweep: SweepSpec):
    if sweep.objective_band is not None:
        lo, hi = sweep.objective_band
        glo, ghi = float(objective.grid_hz.min()), float(objective.grid_hz.max())
        if hi < glo or lo > ghi:
            raise DomainError("sweep objective_band lies outside the frequency grid")
        return (max(lo, glo), min(hi, ghi))
    return mode_windows(objective.model, 1, objective.grid_hz)[0]


def sweep_resistance(model: ModalModel, force: HarmonicForce, target, grid_hz,
                     sweep: SweepSpec, topology_mode: str = "separated") -> SweepResult:
    """Uniform resistance sweep: every branch gets the same candidate R.

    Returns the full objective curve plus the arg-min candidate. The
    endpoints of the sweep range are always part of the log grid.
    """
    objective = VelocityObjective(model, force, target, grid_hz)
    return _uniform_sweep(objective, sweep, topology_mode)[0]


def _uniform_sweep(objective: VelocityObjective, sweep: SweepSpec, topology_mode: str):
    """``sweep_resistance`` on ``objective``: its result and the objective band."""
    band = _resolve_band(objective, sweep)
    kernel, rs = objective._kernel, sweep.resistances()
    nodes = kernel.nodes(topology_mode)
    pts, loads = objective.band_points(band), (rs[:, None], np.zeros((rs.size, 1)))
    if nodes.caps.size and rs.size >= 4 * nodes.caps.size:  # where the recursion pays
        from . import charpoly  # imported, so compiled, only by the sweeps that use it
        vals = charpoly.velocity(kernel, pts, nodes, *loads)
    else:
        vals = kernel.velocity(pts, nodes, *loads)
    peaks, freqs = objective._refine(nodes, *loads, pts, vals)
    i_opt = int(np.argmin(peaks))
    return SweepResult(
        r_values=rs,
        objective_values=peaks,
        peak_freqs_hz=freqs,
        r_opt=float(rs[i_opt]),
        objective_opt=float(peaks[i_opt]),
        peak_hz_opt=float(freqs[i_opt]),
    ), band


def optimize_per_patch(model: ModalModel, force: HarmonicForce, target, grid_hz,
                       sweep: SweepSpec, threads: int = 1,
                       max_cycles: int = 10, rel_tol: float = 1e-3):
    """Per-patch resistances by cyclic coordinate descent.

    Starts from the uniform-sweep optimum and sweeps one patch's
    resistance at a time over the same log grid, accepting only strict
    improvements, so the final objective can never exceed the uniform
    optimum. Each coordinate sweep's band points are rank-one updates of
    the current loads' system. Each cycle solves that system at the band
    points once, for X = A0^-1 [b | I], and each accepted law carries X on
    by one rank-one update (``_Kernel.carry``); ``_Kernel.solution`` checks
    each X once, solved or carried, for the sweeps that read it.

    A sweep offers every grid resistance but the patch's current one,
    whose peak is the current objective and so never strictly improves
    it, and stops refining a candidate once its value reaches the
    current objective, because refinement only raises a value: neither
    rule turns away a law that could be accepted. Stops after a full cycle
    improves the objective by less than ``rel_tol`` or after
    ``max_cycles`` cycles (0 returns the uniform optimum). ``threads``
    is accepted and ignored, because the benchmark's descent job still
    passes it.
    """
    if not (_is_integer(max_cycles) and max_cycles >= 0):
        raise DomainError("max_cycles must be a non-negative integer")
    if not 0.0 <= rel_tol < math.inf:
        raise DomainError("rel_tol must be finite and non-negative")
    k = len(model.patches)
    objective = VelocityObjective(model, force, target, grid_hz)
    base, band = _uniform_sweep(objective, sweep, "separated")
    if k <= 1:
        return [base.r_opt] * k, base.objective_opt, base

    kernel = objective._kernel
    pts = objective.band_points(band)
    omega = 2.0 * np.pi * pts
    rs_grid = sweep.resistances()
    at = [int(np.argmin(base.objective_values))] * k  # each patch's grid index
    best = base.objective_opt
    nodes = kernel.nodes("separated")
    loads = np.full(k, rs_grid[at[0]]), np.zeros(k)  # node loads, all at the uniform optimum
    blocks = kernel.structure(omega, nodes)

    for _ in range(max_cycles):
        cycle_start = best
        solved = kernel.solution(omega, nodes, *loads, blocks)
        for patch_idx in range(k):
            offer = np.delete(np.arange(rs_grid.size), at[patch_idx])
            node = int(nodes.patch_node[patch_idx])
            vals = objective._sweep(nodes, loads, pts, blocks, solved, node,
                                    rs_grid[offer], np.zeros(offer.size), stop=best)[0]
            i_min = int(np.argmin(vals))
            if vals[i_min] < best:
                best, at[patch_idx] = float(vals[i_min]), int(offer[i_min])
                carried = kernel.carry(omega, loads, node, rs_grid[at[patch_idx]], 0.0, solved[0])
                loads[0][node] = rs_grid[at[patch_idx]]
                solved = kernel.solution(omega, nodes, *loads, blocks, carried)
        if cycle_start - best < rel_tol * cycle_start:
            break

    return [float(rs_grid[i]) for i in at], best, base


def percent_reduction(frf_oc, frf_shunted, windows) -> tuple[ModeReduction, ...]:
    """Per-window peak comparison between an OC baseline and a shunted run:
    one ModeReduction per window.

    Both FRFs must share one frequency grid. A window whose maximum sits
    on the window edge (no interior local maximum) is flagged rather
    than silently reported. A window without grid points, or reaching
    past the grid as only that of a mode off it does, gets NaN peaks.
    """
    if not np.array_equal(frf_oc.frequencies_hz, frf_shunted.frequencies_hz):
        raise DomainError("percent_reduction requires identical frequency grids")
    f = frf_oc.frequencies_hz
    entries = []
    for m, (lo, hi) in enumerate(windows, start=1):
        idx = np.where((f >= lo) & (f <= hi))[0]
        empty = ("mode lies outside the frequency grid" if lo < f.min() or hi > f.max()
                 else "window contains no grid point" if idx.size == 0 else "")
        if empty:
            entries.append(ModeReduction(m, (lo, hi), float("nan"), float("nan"),
                                         float("nan"), float("nan"), float("nan"),
                                         True, empty))
            continue
        flagged = False
        note = ""
        peaks = []
        for frf in (frf_oc, frf_shunted):
            mag = np.abs(frf.velocity[idx])
            j = int(np.argmax(mag))
            interior = 0 < j < idx.size - 1
            if not interior:
                flagged = True
                note = "no interior local maximum in window"
            peaks.append((float(mag[j]), float(f[idx[j]])))
        (oc_peak, oc_hz), (sh_peak, sh_hz) = peaks
        red = 100.0 * (1.0 - sh_peak / oc_peak)
        entries.append(ModeReduction(m, (float(lo), float(hi)), oc_peak, oc_hz,
                                     sh_peak, sh_hz, red, flagged, note))
    return tuple(entries)
