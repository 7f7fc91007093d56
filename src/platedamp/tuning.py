"""Shunt resistance tuning and damping-performance reporting.

The tuning objective is the peak magnitude of the velocity FRF at the
measurement point inside a frequency band (by default a window around
the first mode). Sweeps are log-spaced in resistance; for each
candidate the peak is located on the band's grid points and then
sharpened by a golden-section search between the grid neighbours of
that point, with a fixed number of steps, so peak heights are not
quantized by the grid.

A sweep evaluates all of its candidates in one batched call. At the
band's grid points the load-independent structural block is built once
and shared, and candidates are stacked in consecutive chunks of about
CHUNK_ENTRIES complex entries. A coordinate sweep of the per-patch
descent changes the load of one node only, so there each band point
takes one solve of the current loads' system and each candidate a
rank-one update of it. The golden-section steps of all candidates of a
sweep are then stacked together, again in stacks sized from
CHUNK_ENTRIES alone. Chunks and stacks bound memory and run in order on
the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .response import (HarmonicForce, ImpedanceLaw, ShuntTopology, _check_coupled,
                       _Kernel, _load_arrays)
from .ritz import ModalModel

# Golden-section refinement: each step keeps GOLDEN of the bracket, so
# GOLDEN_STEPS evaluations leave GOLDEN**(GOLDEN_STEPS - 1) of it, the
# fewest steps that are no wider than the (2/10)**8 left by eight
# rounds of 11-point uniform subdivision.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_STEPS = 28

# Complex entries of one stack of candidates. A chunk of band systems
# holds max(1, CHUNK_ENTRIES // (P * (m*m + n))) candidates for P band
# points, m voltage nodes and n retained modes; a rank-one chunk holds
# CHUNK_ENTRIES // (P * m) and a golden-section stack
# CHUNK_ENTRIES // (2 * (m*m + n)).
CHUNK_ENTRIES = 2**17


def _stacks(count: int, entries: int) -> list[slice]:
    """Consecutive slices of ``count`` candidates, each of about
    CHUNK_ENTRIES complex entries at ``entries`` per candidate."""
    size = max(1, CHUNK_ENTRIES // entries)
    return [slice(i, i + size) for i in range(0, count, size)]


def _golden_search(velocity, lo, hi, best_v, best_f):
    """Golden-section search for the maximum of ``velocity`` inside each
    bracket [lo, hi] (L,).

    ``velocity`` maps frequencies (L, q) to values (L, q). The first call
    evaluates both interior points, every later call one new point,
    GOLDEN_STEPS evaluations in all. An evaluated point replaces the
    running best (best_v, best_f) only when it is strictly higher.
    Returns the final best values and their frequencies.
    """
    def keep(best_v, best_f, v, f):
        better = v > best_v
        return np.where(better, v, best_v), np.where(better, f, best_f)

    a, b = lo, hi
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    vals = velocity(np.stack([c, d], axis=1))
    fc, fd = vals[:, 0], vals[:, 1]
    best_v, best_f = keep(*keep(best_v, best_f, fc, c), fd, d)
    for _ in range(GOLDEN_STEPS - 2):
        left = fc > fd  # the maximum lies in [a, d], else in [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        new = np.where(left, b - GOLDEN * (b - a), a + GOLDEN * (b - a))
        fnew = velocity(new[:, None])[:, 0]
        best_v, best_f = keep(best_v, best_f, fnew, new)
        c, d, fc, fd = (np.where(left, new, d), np.where(left, c, new),
                        np.where(left, fnew, fd), np.where(left, fc, fnew))
    return best_v, best_f


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
    wiring at once, and ``coordinate_peaks`` the candidates of one
    coordinate sweep, which change a single node's load. The structural
    block at the band's grid points is built once per call and shared by
    every candidate. Candidates are cut into consecutive stacks of whole
    candidates sized from CHUNK_ENTRIES, first for the band points and
    then for the refinement, and the stacks run in order.
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

    def peaks_in_band(self, topologies, band: tuple[float, float]):
        """Peak |velocity| inside the band and its frequency, refined off
        the grid, for each of a list of topologies of one wiring.

        Each candidate brackets its grid argmax between its neighbors,
        then narrows the bracket by a golden-section search of
        GOLDEN_STEPS evaluations, the fixed count keeping the search
        deterministic. Returns two arrays with one entry per topology.
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

        parts = [self._velocity(pts, nodes._replace(ohms=ohms[s, None], henries=henries[s, None]),
                                band_blocks)
                 for s in _stacks(len(topologies), pts.size * (m * m + self.n_modes))]
        return self._refine(nodes, ohms, henries, pts, np.concatenate(parts))

    def coordinate_peaks(self, topology: ShuntTopology, index: int, laws,
                         band: tuple[float, float]):
        """Peak |velocity| inside the band and its frequency, refined off
        the grid, for ``topology`` with the load of node ``index`` (the
        patch, for separated wiring) replaced by each of ``laws``.

        This is one coordinate sweep of the per-patch descent, and gives
        what ``peaks_in_band`` gives for the explicit topologies, up to
        rounding. At the band's grid points each frequency takes one
        solve of ``topology``'s own system and each candidate a rank-one
        update of it, with its residual checked; the refinement is that
        of ``peaks_in_band``. Returns two arrays with one entry per law.
        """
        if not laws:
            raise DomainError("coordinate_peaks needs at least one load")
        nodes = self._kernel.nodes(topology)
        m = nodes.theta.shape[1]
        if not 0 <= index < m:
            raise DomainError(f"node index {index} outside 0..{m - 1}")
        ohms = np.repeat(nodes.ohms[None], len(laws), axis=0)
        henries = np.repeat(nodes.henries[None], len(laws), axis=0)
        ohms[:, index] = [law.ohms for law in laws]
        henries[:, index] = [law.henries for law in laws]
        pts = self.band_points(band)
        respond = self._kernel.rank_one(2.0 * np.pi * pts, nodes, index)

        parts = [np.abs(1j * 2.0 * np.pi * pts * respond(ohms[s, index], henries[s, index]))
                 for s in _stacks(len(laws), pts.size * m)]
        return self._refine(nodes, ohms, henries, pts, np.concatenate(parts))

    def _velocity(self, freqs_hz: np.ndarray, nodes, blocks) -> np.ndarray:
        """|velocity| per newton (C, Q) of C stacked load sets at the
        frequencies (Q,) or (C, Q) that ``blocks`` was built for."""
        disp, _ = self._kernel.respond(2.0 * np.pi * freqs_hz, nodes, blocks)
        return np.abs(1j * 2.0 * np.pi * freqs_hz * disp)

    def _refine(self, nodes, ohms, henries, pts: np.ndarray, vals: np.ndarray):
        """Refined peaks and their frequencies of C candidates with node
        loads ``ohms`` and ``henries`` (C, m) and values ``vals`` (C, P)
        at the band points: the golden-section searches of all of them,
        in stacks of whole candidates."""
        i = np.argmax(vals, axis=1)
        best_v, best_f = vals[np.arange(vals.shape[0]), i], pts[i]
        lo = pts[np.maximum(i - 1, 0)]
        hi = pts[np.minimum(i + 1, pts.size - 1)]
        live = np.flatnonzero(hi > lo)
        m = nodes.theta.shape[1]

        for s in _stacks(live.size, 2 * (m * m + self.n_modes)):
            rows = live[s]
            cand = nodes._replace(ohms=ohms[rows, None], henries=henries[rows, None])

            def velocity(f):
                return self._velocity(f, cand, self._kernel.structure(2.0 * np.pi * f, cand))

            best_v[rows], best_f[rows] = _golden_search(velocity, lo[rows], hi[rows],
                                                        best_v[rows], best_f[rows])
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
                     sweep: SweepSpec, topology_mode: str = "separated") -> SweepResult:
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
    peaks, freqs = objective.peaks_in_band(topologies, band)
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
    optimum. Each coordinate sweep is one ``coordinate_peaks`` call: its
    band points are rank-one updates of the current loads' system.
    Stops after a full cycle improves the objective by less than
    ``rel_tol`` or after ``max_cycles`` cycles. ``threads`` is accepted
    and ignored, because the benchmark's descent job still passes it.
    """
    k = len(model.patches)
    base = sweep_resistance(model, force, target, grid_hz, sweep, topology_mode="separated")
    if k <= 1:
        return [base.r_opt] * k, base.objective_opt, base

    objective = VelocityObjective(model, force, target, grid_hz)
    band = _resolve_band(objective, sweep)
    rs_grid = sweep.resistances()
    laws = [ImpedanceLaw.resistor(float(r)) for r in rs_grid]
    current = [base.r_opt] * k
    best = base.objective_opt

    for _ in range(max_cycles):
        cycle_start = best
        for patch_idx in range(k):
            topology = ShuntTopology.separated([ImpedanceLaw.resistor(r) for r in current])
            vals = objective.coordinate_peaks(topology, patch_idx, laws, band)[0]
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
