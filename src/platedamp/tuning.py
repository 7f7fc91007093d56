"""Shunt resistance tuning and damping-performance reporting.

The tuning objective is the peak magnitude of the velocity FRF at the
measurement point inside a frequency band (by default a window around
the first mode). Sweeps are log-spaced in resistance; for each
candidate the peak is located on the band's grid points and then
sharpened by a deterministic bracketing refinement on the frequency
axis, so peak heights are not quantized by the grid.

A sweep evaluates all of its candidates in one batched call: the
load-independent structural block at the band's grid points is built
once and shared, and candidates are stacked in consecutive chunks of
about CHUNK_ENTRIES complex entries, each chunk refined together. Only
whole chunks go to threads, so results do not depend on the thread
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .response import (HarmonicForce, ImpedanceLaw, ShuntTopology, _check_coupled,
                       _Kernel, _load_arrays, _parallel_map)
from .ritz import ModalModel

REFINE_ROUNDS = 8
REFINE_POINTS = 11

# Complex entries of one chunk's stacked band systems: a chunk holds
# max(1, CHUNK_ENTRIES // (P * (m*m + n))) candidates for P band points,
# m voltage nodes and n retained modes.
CHUNK_ENTRIES = 2**17


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
        if self.points < 2:
            raise DomainError("sweep requires points >= 2")
        if self.report_modes < 1:
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
class ReductionReport:
    """Per-mode velocity reductions of one shunted run against its
    open-circuit baseline."""

    topology: str
    resistances_ohms: tuple[float, ...]
    entries: tuple[ModeReduction, ...]


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
    wiring at once. The structural block at the band's grid points is
    built once per call and shared by every candidate; the candidates
    are cut into consecutive chunks of whole candidates, each sized so
    that its stacked band systems hold about CHUNK_ENTRIES complex
    entries, and each chunk's candidates are refined together. Threads
    only hand out whole chunks, so results are bitwise independent of
    the thread count.
    """

    def __init__(self, model: ModalModel, force: HarmonicForce, target, grid_hz,
                 n_modes: int | None = None):
        _check_coupled(model)
        self.model = model
        self.grid_hz = np.asarray(grid_hz, dtype=float)
        self._kernel = _Kernel(model, force, target, self.grid_hz, n_modes)
        self.n_modes = self._kernel.n

    def velocity_abs(self, topology: ShuntTopology, freqs_hz: np.ndarray) -> np.ndarray:
        """|velocity| per newton at each frequency."""
        freqs_hz = np.asarray(freqs_hz, dtype=float)
        disp, _ = self._kernel.run(freqs_hz, topology)
        return np.abs(1j * 2.0 * np.pi * freqs_hz * disp)

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

    def peaks_in_band(self, topologies, band: tuple[float, float], threads: int = 1):
        """Peak |velocity| inside the band and its frequency, refined off
        the grid, for each of a list of topologies of one wiring.

        Each candidate brackets its grid argmax between its neighbors,
        then shrinks the bracket by repeated uniform subdivision; fixed
        round and point counts keep the search deterministic. Returns
        two arrays with one entry per topology.
        """
        if not topologies:
            raise DomainError("peaks_in_band needs at least one topology")
        first = topologies[0]
        if any(t.mode != first.mode or len(t.loads) != len(first.loads) for t in topologies):
            raise DomainError("candidate topologies must share one wiring")
        nodes = self._kernel.nodes(first)
        ohms, henries = _load_arrays(topologies)
        pts = self.band_points(band)
        band_blocks = self._kernel.structure(2.0 * np.pi * pts, nodes)
        m = nodes.theta.shape[1]
        size = max(1, CHUNK_ENTRIES // (pts.size * (m * m + self.n_modes)))

        def chunk(i):
            stack = nodes._replace(ohms=ohms[i:i + size, None], henries=henries[i:i + size, None])
            return self._refine(stack, pts, band_blocks)

        parts = _parallel_map(chunk, range(0, len(topologies), size), threads)
        return (np.concatenate([v for v, _ in parts]), np.concatenate([f for _, f in parts]))

    def _velocity(self, freqs_hz: np.ndarray, nodes, blocks) -> np.ndarray:
        """|velocity| per newton (C, Q) of C stacked load sets at the
        frequencies (Q,) or (C, Q) that ``blocks`` was built for."""
        disp, _ = self._kernel.respond(2.0 * np.pi * freqs_hz, nodes, blocks)
        return np.abs(1j * 2.0 * np.pi * freqs_hz * disp)

    def _refine(self, nodes, pts: np.ndarray, band_blocks):
        """Refined peaks and their frequencies for one chunk of stacked
        load sets, each candidate with its own bracket."""
        vals = self._velocity(pts, nodes, band_blocks)
        rows = np.arange(vals.shape[0])
        i = np.argmax(vals, axis=1)
        best_v, best_f = vals[rows, i], pts[i]
        lo = pts[np.maximum(i - 1, 0)]
        hi = pts[np.minimum(i + 1, pts.size - 1)]
        live = np.flatnonzero(hi > lo)
        if live.size:
            nodes = nodes._replace(ohms=nodes.ohms[live], henries=nodes.henries[live])
            rows = np.arange(live.size)
            lo, hi, top_v, top_f = lo[live], hi[live], best_v[live], best_f[live]
            for _ in range(REFINE_ROUNDS):
                sub = np.linspace(lo, hi, REFINE_POINTS, axis=-1)
                sv = self._velocity(sub, nodes, self._kernel.structure(2.0 * np.pi * sub, nodes))
                j = np.argmax(sv, axis=1)
                better = sv[rows, j] > top_v
                top_v = np.where(better, sv[rows, j], top_v)
                top_f = np.where(better, sub[rows, j], top_f)
                lo = sub[rows, np.maximum(j - 1, 0)]
                hi = sub[rows, np.minimum(j + 1, REFINE_POINTS - 1)]
            best_v[live], best_f[live] = top_v, top_f
        return best_v, best_f


def mode_windows(model: ModalModel, count: int, grid_hz) -> list[tuple[float, float]]:
    """Frequency windows around the first ``count`` modes.

    Half-width is 8 percent of the modal frequency, shrunk near
    neighboring modes so windows never overlap, and clipped to the grid.
    """
    grid_hz = np.asarray(grid_hz, dtype=float)
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
        lo = max(fr - half, float(grid_hz.min()))
        hi = min(fr + half, float(grid_hz.max()))
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
                     sweep: SweepSpec, topology_mode: str = "separated",
                     threads: int = 1) -> SweepResult:
    """Uniform resistance sweep: every branch gets the same candidate R.

    Returns the full objective curve plus the arg-min candidate. The
    endpoints of the sweep range are always part of the log grid.
    """
    objective = VelocityObjective(model, force, target, grid_hz)
    band = _resolve_band(objective, sweep)
    k = len(model.patches)
    rs = sweep.resistances()
    topologies = [ShuntTopology.uniform(topology_mode, k, ImpedanceLaw.resistor(float(r)))
                  for r in rs]
    peaks, freqs = objective.peaks_in_band(topologies, band, threads)
    i_opt = int(np.argmin(peaks))
    return SweepResult(
        r_values=rs,
        objective_values=peaks,
        peak_freqs_hz=freqs,
        r_opt=float(rs[i_opt]),
        objective_opt=float(peaks[i_opt]),
        peak_hz_opt=float(freqs[i_opt]),
    )


def optimize_per_patch(model: ModalModel, force: HarmonicForce, target, grid_hz,
                       sweep: SweepSpec, threads: int = 1,
                       max_cycles: int = 10, rel_tol: float = 1e-3):
    """Per-patch resistances by cyclic coordinate descent.

    Starts from the uniform-sweep optimum and sweeps one patch's
    resistance at a time over the same log grid, accepting only
    improvements, so the final objective can never exceed the uniform
    optimum. Stops after a full cycle improves the objective by less
    than ``rel_tol`` or after ``max_cycles`` cycles.
    """
    k = len(model.patches)
    base = sweep_resistance(model, force, target, grid_hz, sweep,
                            topology_mode="separated", threads=threads)
    if k <= 1:
        return [base.r_opt] * k, base.objective_opt, base

    objective = VelocityObjective(model, force, target, grid_hz)
    band = _resolve_band(objective, sweep)
    rs_grid = sweep.resistances()
    current = [base.r_opt] * k
    best = base.objective_opt

    for _ in range(max_cycles):
        cycle_start = best
        for patch_idx in range(k):
            topologies = []
            for ohms in rs_grid:
                loads = [ImpedanceLaw.resistor(r) for r in current]
                loads[patch_idx] = ImpedanceLaw.resistor(float(ohms))
                topologies.append(ShuntTopology.separated(loads))
            vals = objective.peaks_in_band(topologies, band, threads)[0]
            i_min = int(np.argmin(vals))
            if vals[i_min] < best:
                best = float(vals[i_min])
                current[patch_idx] = float(rs_grid[i_min])
        if cycle_start - best < rel_tol * cycle_start:
            break

    return current, best, base


def percent_reduction(frf_oc, frf_shunted, windows, topology: str = "",
                      resistances=()) -> ReductionReport:
    """Per-window peak comparison between an OC baseline and a shunted run.

    Both FRFs must share one frequency grid. A window whose maximum sits
    on the window edge (no interior local maximum) is flagged rather
    than silently reported.
    """
    if not np.array_equal(frf_oc.frequencies_hz, frf_shunted.frequencies_hz):
        raise DomainError("percent_reduction requires identical frequency grids")
    f = frf_oc.frequencies_hz
    entries = []
    for m, (lo, hi) in enumerate(windows, start=1):
        idx = np.where((f >= lo) & (f <= hi))[0]
        if idx.size == 0:
            entries.append(ModeReduction(m, (lo, hi), float("nan"), float("nan"),
                                         float("nan"), float("nan"), float("nan"),
                                         True, "window contains no grid point"))
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
    return ReductionReport(topology=topology, resistances_ohms=tuple(float(r) for r in resistances),
                           entries=tuple(entries))
