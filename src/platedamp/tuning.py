"""Shunt resistance tuning and damping-performance reporting.

The tuning objective is the peak magnitude of the velocity FRF at the
measurement point inside a frequency band (by default a window around
the first mode). Sweeps are log-spaced in resistance; for each
candidate the peak is located on the band's grid points and then
sharpened by a deterministic bracketing refinement on the frequency
axis, so peak heights are not quantized by the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .response import (HarmonicForce, ImpedanceLaw, ShuntTopology, _check_coupled,
                       _Kernel, _parallel_map)
from .ritz import ModalModel

REFINE_ROUNDS = 8
REFINE_POINTS = 11


@dataclass(frozen=True)
class SweepSpec:
    """Log-spaced resistance sweep and its objective band."""

    r_min: float = 100.0
    r_max: float = 1e6
    points: int = 200
    objective_band: tuple[float, float] | None = None
    report_modes: int = 3

    def __post_init__(self):
        if not self.r_min < self.r_max:
            raise DomainError("sweep requires r_min < r_max")
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
        """Peak |velocity| inside the band, refined off the grid.

        Bracket the grid argmax between its neighbors, then shrink the
        bracket by repeated uniform subdivision; fixed round and point
        counts keep the search deterministic.
        """
        pts = self.band_points(band)
        vals = self.velocity_abs(topology, pts)
        i = int(np.argmax(vals))
        best_f, best_v = float(pts[i]), float(vals[i])
        lo = float(pts[max(i - 1, 0)])
        hi = float(pts[min(i + 1, pts.size - 1)])
        if hi > lo:
            for _ in range(REFINE_ROUNDS):
                sub = np.linspace(lo, hi, REFINE_POINTS)
                sv = self.velocity_abs(topology, sub)
                j = int(np.argmax(sv))
                if sv[j] > best_v:
                    best_v, best_f = float(sv[j]), float(sub[j])
                lo = float(sub[max(j - 1, 0)])
                hi = float(sub[min(j + 1, REFINE_POINTS - 1)])
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

    def candidate(ohms):
        law = ImpedanceLaw.resistor(float(ohms))
        return objective.peak_in_band(ShuntTopology.uniform(topology_mode, k, law), band)

    peaks, freqs = np.array(_parallel_map(candidate, rs, threads)).T
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

    def candidate(patch_idx, ohms):
        loads = [ImpedanceLaw.resistor(r) for r in current]
        loads[patch_idx] = ImpedanceLaw.resistor(float(ohms))
        return objective.peak_in_band(ShuntTopology.separated(loads), band)[0]

    for _ in range(max_cycles):
        cycle_start = best
        for patch_idx in range(k):
            vals = np.array(_parallel_map(lambda r: candidate(patch_idx, r), rs_grid, threads))
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
