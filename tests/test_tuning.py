import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from platedamp import (BasisSpec, DomainError, FrfResult, HarmonicForce, ImpedanceLaw,
                       ShuntTopology, SolverError, SweepSpec, VelocityObjective,
                       build_model, frf_connected, frf_separated, mode_windows,
                       optimize_per_patch, percent_reduction, sweep_resistance,
                       with_coupling)
from platedamp import charpoly, response
from platedamp.config import parse_config_dict
from platedamp.response import CHUNK_ENTRIES, _Kernel
from platedamp.tuning import PARABOLIC_STEPS, SPACING, _parabolic_search, _uniform_sweep

from oracles import descent_loop, frf_loop_connected, frf_loop_separated, peak_in_band_loop
from test_response import build_case, shunted_layouts

BENCH = Path(__file__).resolve().parent.parent / "bench"


def chunk_size(objective, band, nodes):
    """Candidates per stacked chunk of ``peaks_in_band`` for ``nodes`` voltage nodes."""
    points = objective.band_points(band).size
    return max(1, CHUNK_ENTRIES // (points * (nodes * nodes + objective.n_modes)))


@pytest.fixture(scope="module")
def array_model(ref_config):
    """Twelve reference patches on a 4x3 layout, on a small basis."""
    plate, patch = ref_config.plate, ref_config.patches[0]
    w, h = 0.06, 0.06
    patches = [dataclasses.replace(patch, x1=(i + 0.5) * plate.length_a / 4 - w / 2,
                                   x2=(i + 0.5) * plate.length_a / 4 + w / 2,
                                   y1=(j + 0.5) * plate.width_b / 3 - h / 2,
                                   y2=(j + 0.5) * plate.width_b / 3 + h / 2)
               for j in range(3) for i in range(4)]
    return with_coupling(build_model(plate, patches, BasisSpec(6, 6, 10)))


@pytest.fixture(scope="module")
def unequal_model(ref_config):
    """The reference with patches 100, 50 and 72.4 mm wide, so that the
    three capacitances differ."""
    a, b, c = ref_config.patches
    patches = [dataclasses.replace(a, x2=a.x1 + 0.1), dataclasses.replace(b, x2=b.x1 + 0.05), c]
    return with_coupling(build_model(ref_config.plate, patches, ref_config.basis))


@pytest.fixture(scope="module")
def ref_sweep(ref_model, point_force, target_point, ref_config):
    grid = ref_config.grid.frequencies()
    return sweep_resistance(ref_model, point_force, target_point, grid,
                            SweepSpec(), topology_mode="separated")


class TestSweep:
    def test_optimum_dominates_endpoints(self, ref_sweep):
        assert ref_sweep.objective_opt <= ref_sweep.objective_values[0]
        assert ref_sweep.objective_opt <= ref_sweep.objective_values[-1]

    def test_optimum_is_interior(self, ref_sweep):
        assert 100.0 < ref_sweep.r_opt < 1e6
        assert ref_sweep.objective_opt < ref_sweep.objective_values[0]
        assert ref_sweep.objective_opt < ref_sweep.objective_values[-1]

    def test_single_mode_tuning_scale(self, k1_model, point_force, target_point):
        """Classic resistive-shunt rule: the optimum sits near 1/(omega_1 * Cp)."""
        grid = np.linspace(30.0, 90.0, 800)
        res = sweep_resistance(k1_model, point_force, target_point, grid,
                               SweepSpec(objective_band=(45.0, 65.0)),
                               topology_mode="separated")
        scale = 1.0 / (k1_model.frequencies[0] * k1_model.capacitances[0])
        assert scale / 3.0 < res.r_opt < scale * 3.0

    def test_optimum_interior_on_coarser_basis(self, ref_model_8, point_force,
                                               target_point, ref_config):
        grid = ref_config.grid.frequencies()
        res = sweep_resistance(ref_model_8, point_force, target_point, grid,
                               SweepSpec(), topology_mode="separated")
        assert 100.0 < res.r_opt < 1e6

    def test_two_point_sweep_returns_better_endpoint(self, ref_model, point_force,
                                                     target_point, ref_config):
        grid = ref_config.grid.frequencies()
        res = sweep_resistance(ref_model, point_force, target_point, grid,
                               SweepSpec(points=2), topology_mode="separated")
        assert res.r_opt in (100.0, 1e6)
        assert res.objective_opt == min(res.objective_values)

    def test_repeat_runs_bit_identical(self, ref_model, point_force, target_point,
                                       ref_config):
        grid = ref_config.grid.frequencies()
        spec = SweepSpec(points=25)
        a = sweep_resistance(ref_model, point_force, target_point, grid, spec,
                             "connected")
        b = sweep_resistance(ref_model, point_force, target_point, grid, spec,
                             "connected")
        assert np.array_equal(a.objective_values, b.objective_values)
        assert a.r_opt == b.r_opt and a.objective_opt == b.objective_opt

    def test_band_outside_grid_rejected(self, ref_model, point_force, target_point):
        grid = np.linspace(1.0, 250.0, 100)
        with pytest.raises(DomainError):
            sweep_resistance(ref_model, point_force, target_point, grid,
                             SweepSpec(objective_band=(300.0, 400.0)), "separated")
        with pytest.raises(DomainError, match="contains no grid point"):
            sweep_resistance(ref_model, point_force, target_point, grid,
                             SweepSpec(objective_band=(60.0, 61.0)), "separated")

    @pytest.mark.parametrize("order", ["reversed", "duplicated"])
    def test_grid_that_does_not_strictly_ascend_rejected(self, ref_model, point_force,
                                                         target_point, ref_config, order):
        """The peak search brackets each peak between its grid neighbors:
        on the reversed grid the sweep used to return 0.0062322 against
        0.0062453 on the ascending one, without an error."""
        grid = ref_config.grid.frequencies()
        grid = grid[::-1] if order == "reversed" else np.insert(grid, 1000, grid[1000])
        with pytest.raises(DomainError, match="strictly ascend"):
            VelocityObjective(ref_model, point_force, target_point, grid)
        for mode in ("separated", "connected"):
            with pytest.raises(DomainError, match="strictly ascend"):
                sweep_resistance(ref_model, point_force, target_point, grid,
                                 SweepSpec(points=4), mode)

    def test_invalid_spec_rejected(self):
        with pytest.raises(DomainError):
            SweepSpec(r_min=1e4, r_max=1e3)
        for counts in ({"points": 1}, {"points": float("nan")}, {"report_modes": 0},
                       {"report_modes": float("nan")}, {"objective_band": (70.0, 40.0)}):
            with pytest.raises(DomainError):
                SweepSpec(**counts)

    @pytest.mark.parametrize("counts", [{"points": 2.5}, {"report_modes": 1.5}],
                             ids=["points", "report_modes"])
    def test_fractional_counts_rejected(self, counts):
        """A fractional count used to build, then fail inside numpy or
        ``mode_windows``."""
        with pytest.raises(DomainError, match=f"sweep.{next(iter(counts))} must be an integer"):
            SweepSpec(**counts)

    @pytest.mark.parametrize("r_min,r_max", [(0.0, 1e6), (-10.0, 1e6), (float("nan"), 1e6),
                                             (float("-inf"), 1e6), (100.0, float("inf"))])
    def test_nonpositive_or_nonfinite_range_rejected(self, r_min, r_max):
        with pytest.raises(DomainError, match="r_min"):
            SweepSpec(r_min=r_min, r_max=r_max)


class TestModeWindows:
    def test_windows_contain_their_modes_and_do_not_overlap(self, ref_model):
        grid = np.linspace(1.0, 250.0, 100)
        wins = mode_windows(ref_model, 3, grid)
        f = ref_model.frequencies_hz
        for r, (lo, hi) in enumerate(wins):
            assert lo < f[r] < hi
        for (_, hi), (lo2, _) in zip(wins, wins[1:]):
            assert hi <= lo2

    def test_mode_off_the_grid_keeps_its_whole_window(self, ref_model):
        """A mode above or below the grid is not clipped into an inverted
        window; a mode on the grid is clipped to it."""
        f = ref_model.frequencies_hz
        whole = mode_windows(ref_model, 3, np.linspace(1.0, 250.0, 100))
        above = mode_windows(ref_model, 3, np.linspace(1.0, 0.5 * (f[0] + f[1]), 100))
        below = mode_windows(ref_model, 3, np.linspace(f[1] + 1.0, 250.0, 100))
        assert above[1:] == whole[1:] and below[:2] == whole[:2]
        assert above[0] == (whole[0][0], min(whole[0][1], 0.5 * (f[0] + f[1])))
        assert below[2][0] == max(whole[2][0], f[1] + 1.0)
        assert all(lo < hi for lo, hi in above + below)


class TestPercentReduction:
    def _fake_frf(self, grid, vel):
        disp = vel / (1j * 2 * np.pi * grid)
        return FrfResult(grid.copy(), disp, vel.astype(complex),
                         np.zeros((grid.size, 0), dtype=complex))

    def test_identical_inputs_give_zero(self, ref_model, point_force, target_point,
                                        grid_500):
        topo = ShuntTopology.separated([ImpedanceLaw.open()] * 3)
        res = frf_separated(ref_model, topo, point_force, target_point, grid_500)
        wins = mode_windows(ref_model, 3, grid_500)
        rows = percent_reduction(res, res, wins)
        assert all(e.reduction_pct == 0.0 for e in rows)

    def test_halved_peak_gives_fifty_percent(self):
        grid = np.linspace(10.0, 30.0, 201)
        bump = 1.0 / (1.0 + ((grid - 20.0) / 2.0) ** 2)
        oc = self._fake_frf(grid, bump)
        half = self._fake_frf(grid, 0.5 * bump)
        rows = percent_reduction(oc, half, [(15.0, 25.0)])
        assert rows[0].reduction_pct == pytest.approx(50.0, abs=1e-12)
        assert not rows[0].flagged

    def test_window_without_interior_maximum_is_flagged(self):
        grid = np.linspace(10.0, 30.0, 201)
        ramp = np.linspace(1.0, 2.0, 201)
        rows = percent_reduction(self._fake_frf(grid, ramp),
                                 self._fake_frf(grid, 0.9 * ramp),
                                 [(15.0, 25.0)])
        assert rows[0].flagged
        assert rows[0].note

    def test_window_off_the_grid_or_between_points_has_no_peaks(self):
        grid = np.linspace(10.0, 30.0, 21)
        bump = self._fake_frf(grid, 1.0 / (1.0 + ((grid - 20.0) / 2.0) ** 2))
        rows = percent_reduction(bump, bump, [(15.0, 25.0), (28.0, 32.0), (7.0, 9.0),
                                              (12.2, 12.8)])
        notes = [e.note for e in rows]
        assert notes == ["", "mode lies outside the frequency grid",
                         "mode lies outside the frequency grid", "window contains no grid point"]
        assert all(e.flagged and np.isnan(e.oc_peak) and np.isnan(e.reduction_pct)
                   for e in rows[1:])

    def test_mismatched_grids_rejected(self):
        g1 = np.linspace(10.0, 30.0, 100)
        g2 = np.linspace(10.0, 30.0, 101)
        with pytest.raises(DomainError):
            percent_reduction(self._fake_frf(g1, np.ones(100)),
                              self._fake_frf(g2, np.ones(101)), [(15.0, 25.0)])

    def test_reduction_bounded_above_by_100(self):
        grid = np.linspace(10.0, 30.0, 201)
        bump = 1.0 / (1.0 + ((grid - 20.0) / 2.0) ** 2)
        rows = percent_reduction(self._fake_frf(grid, bump),
                                 self._fake_frf(grid, 1e-8 * bump), [(15.0, 25.0)])
        assert rows[0].reduction_pct <= 100.0


class TestPerPatch:
    def test_single_patch_matches_uniform_sweep(self, k1_model, point_force,
                                                target_point):
        grid = np.linspace(30.0, 90.0, 600)
        spec = SweepSpec(points=60, objective_band=(45.0, 65.0))
        rs, best, base = optimize_per_patch(k1_model, point_force, target_point,
                                            grid, spec)
        assert rs == [base.r_opt]
        assert best == base.objective_opt

    def test_descent_never_worse_than_uniform(self, ref_model, point_force,
                                              target_point, ref_config):
        grid = ref_config.grid.frequencies()
        spec = SweepSpec(points=40)
        rs, best, base = optimize_per_patch(ref_model, point_force, target_point,
                                            grid, spec, max_cycles=2)
        assert best <= base.objective_opt
        assert len(rs) == 3

    def test_deterministic(self, ref_model, point_force, target_point, ref_config):
        grid = ref_config.grid.frequencies()
        spec = SweepSpec(points=25)
        a = optimize_per_patch(ref_model, point_force, target_point, grid, spec,
                               max_cycles=1)
        b = optimize_per_patch(ref_model, point_force, target_point, grid, spec,
                               max_cycles=1, threads=3)
        assert a[0] == b[0] and a[1] == b[1]

    @pytest.mark.parametrize("bad", [{"max_cycles": 2.5}, {"max_cycles": -1},
                                     {"max_cycles": True}, {"rel_tol": np.nan},
                                     {"rel_tol": -1e-3}, {"rel_tol": np.inf}],
                             ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
    def test_bad_cycles_or_tolerance_rejected(self, ref_model, point_force, target_point,
                                              ref_config, bad):
        """A fractional or negative cycle count would die in numpy or return
        the uniform optimum, and a NaN tolerance would never stop early."""
        with pytest.raises(DomainError):
            optimize_per_patch(ref_model, point_force, target_point,
                               ref_config.grid.frequencies(), SweepSpec(points=4), **bad)


class TestSeriesRL:
    def test_tuned_rl_branch_beats_pure_resistor(self, k1_model, point_force,
                                                 target_point):
        """A series RL branch tuned to the first mode forms a resonant
        shunt and outperforms the best pure resistor there."""
        grid = np.linspace(40.0, 70.0, 900)
        band = (45.0, 65.0)
        best_r = sweep_resistance(k1_model, point_force, target_point, grid,
                                  SweepSpec(objective_band=band),
                                  topology_mode="separated").objective_opt
        objective = VelocityObjective(k1_model, point_force, target_point, grid)
        henries = 1.0 / (k1_model.frequencies[0] ** 2 * k1_model.capacitances[0])
        rl_peaks = []
        for ohms in np.geomspace(100.0, 1e5, 40):
            topo = ShuntTopology.separated([ImpedanceLaw.series_rl(ohms, henries)])
            rl_peaks.append(objective.peak_in_band(topo, band)[0])
        assert min(rl_peaks) < best_r


class TestObjectiveEngine:
    def test_batched_evaluator_matches_frf_engine(self, ref_model, point_force,
                                                  target_point, ref_config):
        """The sweep objective and the FRFs run the block kernel; the
        oracle loops solve each frequency on its own. They must agree."""
        grid = ref_config.grid.frequencies()
        objective = VelocityObjective(ref_model, point_force, target_point, grid)
        n = objective.n_modes
        sub = grid[::137]
        henries = 1.0 / (ref_model.frequencies[0] ** 2 * ref_model.capacitances[0])
        for topo in (ShuntTopology.separated([ImpedanceLaw.resistor(8e3)] * 3),
                     ShuntTopology.separated([ImpedanceLaw.series_rl(8e3, henries)] * 3),
                     ShuntTopology.connected(ImpedanceLaw.resistor(8e3))):
            if topo.mode == "separated":
                res = frf_separated(ref_model, topo, point_force, target_point, sub)
                disp, volts = frf_loop_separated(ref_model, topo.loads, point_force,
                                                 target_point, sub, n)
            else:
                res = frf_connected(ref_model, topo, point_force, target_point, sub)
                disp, node = frf_loop_connected(ref_model, topo.loads[0], point_force,
                                                target_point, sub, n)
                volts = np.repeat(node[:, None], 3, axis=1)
            vel = np.abs(1j * 2 * np.pi * sub * disp)
            batched = objective.velocity_abs(topo, sub)
            assert np.max(np.abs(batched - vel) / vel) < 1e-12
            assert np.max(np.abs(res.displacement - disp) / np.abs(disp)) < 1e-12
            assert np.max(np.abs(res.voltages - volts) / np.abs(volts)) < 1e-12


class TestPassivity:
    def test_resistive_peaks_bounded_by_oc_sc_envelope(self, ref_model, point_force,
                                                       target_point, ref_config):
        grid = ref_config.grid.frequencies()
        objective = VelocityObjective(ref_model, point_force, target_point, grid)
        wins = mode_windows(ref_model, 3, grid)
        k = 3

        def peaks(ohms):
            topo = ShuntTopology.separated([ImpedanceLaw.resistor(ohms)] * k)
            return [objective.peak_in_band(topo, w)[0] for w in wins]

        oc = peaks(1e9)
        sc = peaks(1e-3)
        for ohms in (500.0, 5e3, 5e4):
            mid = peaks(ohms)
            for pm, po, ps in zip(mid, oc, sc):
                assert pm <= max(po, ps) * (1 + 1e-9)


class TestBatchedPeaks:
    @pytest.mark.parametrize("mode, inductive", [("separated", False), ("connected", False),
                                                 ("separated", True)])
    def test_batched_peaks_match_candidate_loop(self, ref_model, point_force, target_point,
                                                ref_config, mode, inductive):
        """Stacked candidates give the peaks the candidate-by-candidate search
        gives, over three chunks of which the last is short."""
        grid = ref_config.grid.frequencies()
        objective = VelocityObjective(ref_model, point_force, target_point, grid)
        band = mode_windows(ref_model, 1, grid)[0]
        size = chunk_size(objective, band, 1 if mode == "connected" else 3)
        assert size >= 2
        count = 2 * size + size // 2
        henries = 1.0 / (ref_model.frequencies[0] ** 2 * ref_model.capacitances[0])
        laws = [ImpedanceLaw.series_rl(r, henries) if inductive else ImpedanceLaw.resistor(r)
                for r in np.geomspace(100.0, 1e6, count)]
        topologies = [ShuntTopology.uniform(mode, 3, law) for law in laws]
        peaks, freqs = objective.peaks_in_band(topologies, band)
        expected = np.array([peak_in_band_loop(objective, t, band) for t in topologies])
        assert np.max(np.abs(peaks - expected[:, 0]) / expected[:, 0]) <= 1e-12
        assert np.max(np.abs(freqs - expected[:, 1]) / expected[:, 1]) <= 1e-6
        single = objective.peak_in_band(topologies[-1], band)
        assert single == pytest.approx((peaks[-1], freqs[-1]), rel=1e-12)

    def test_mixed_wirings_rejected(self, ref_model, point_force, target_point, grid_500):
        objective = VelocityObjective(ref_model, point_force, target_point, grid_500)
        law = ImpedanceLaw.resistor(1e4)
        band = mode_windows(ref_model, 1, grid_500)[0]
        with pytest.raises(DomainError):
            objective.peaks_in_band([ShuntTopology.uniform("separated", 3, law),
                                     ShuntTopology.connected(law)], band)
        with pytest.raises(DomainError):
            objective.peaks_in_band([], band)

    def test_multi_chunk_sweep_matches_single_chunk(self, ref_model, point_force,
                                                   target_point, ref_config, monkeypatch):
        """The polynomial band points of four stacks, the last short, and
        of one stack agree bit for bit, for both wirings; a polynomial
        stack holds m times the kernel's candidates."""
        grid = ref_config.grid.frequencies()
        objective = VelocityObjective(ref_model, point_force, target_point, grid)
        calls = char_poly_calls(monkeypatch)
        points = objective.band_points(mode_windows(ref_model, 1, grid)[0]).size
        for mode, m in (("separated", 3), ("connected", 1)):
            entries = points * (m * m + objective.n_modes) // m
            spec = SweepSpec(points=3 * (CHUNK_ENTRIES // entries) + 1)
            assert len(response._stacks(spec.points, entries)) == 4
            chunked = sweep_resistance(ref_model, point_force, target_point, grid, spec, mode)
            with monkeypatch.context() as patch:
                patch.setattr(response, "CHUNK_ENTRIES", CHUNK_ENTRIES * spec.points)
                whole = sweep_resistance(ref_model, point_force, target_point, grid, spec, mode)
            assert np.array_equal(chunked.objective_values, whole.objective_values)
            assert np.array_equal(chunked.peak_freqs_hz, whole.peak_freqs_hz)
        assert calls == [3, 3, 1, 1]

    def test_multi_chunk_array_descent_matches_single_chunk(self, array_model, point_force,
                                                            target_point, ref_config,
                                                            monkeypatch):
        grid = ref_config.grid.frequencies()
        spec = SweepSpec(points=16)
        objective = VelocityObjective(array_model, point_force, target_point, grid)
        assert chunk_size(objective, mode_windows(array_model, 1, grid)[0], 12) < 16
        chunked = optimize_per_patch(array_model, point_force, target_point, grid, spec,
                                     max_cycles=1)
        monkeypatch.setattr(response, "CHUNK_ENTRIES", CHUNK_ENTRIES * spec.points)
        whole = optimize_per_patch(array_model, point_force, target_point, grid, spec,
                                   max_cycles=1)
        assert np.array_equal(chunked[0], whole[0])
        assert chunked[1] == whole[1]
        assert np.array_equal(chunked[2].objective_values, whole[2].objective_values)


def char_poly_calls(monkeypatch):
    """The node count of every ``charpoly.coefficients`` call from now on."""
    calls, coefficients = [], charpoly.coefficients

    def spy(A0, b):
        calls.append(b.shape[-1])
        return coefficients(A0, b)

    monkeypatch.setattr(charpoly, "coefficients", spy)
    return calls


def uniform_case(model, mode, point_force, target_point, ref_config):
    """Objective on the reference grid, its mode-1 band and the nodes of
    wiring ``mode``."""
    grid = ref_config.grid.frequencies()
    objective = VelocityObjective(model, point_force, target_point, grid)
    nodes = objective._kernel.nodes(ShuntTopology.uniform(mode, len(model.patches),
                                                          ImpedanceLaw.open()))
    return objective, mode_windows(model, 1, grid)[0], nodes


def polynomial_peaks(objective, nodes, ohms, henries, band):
    """Refined peaks of the candidates that put ``ohms[c]``, ``henries[c]``
    on every node, their band points from ``charpoly.velocity``."""
    pts, loads = objective.band_points(band), (ohms[:, None], henries[:, None])
    return objective._refine(nodes, *loads, pts,
                             charpoly.velocity(objective._kernel, pts, nodes, *loads))


class TestUniformPolynomial:
    """A uniform sweep of at least 4m candidates on m >= 1 nodes takes its
    band points from the characteristic polynomial of each frequency's
    system; a failed residual check sends that frequency to the kernel."""

    @pytest.mark.parametrize("inductive", [False, True], ids=["R", "RL"])
    @pytest.mark.parametrize("name, mode, m", [("k1_model", "separated", 1),
                                               ("ref_model", "connected", 1),
                                               ("ref_model", "separated", 3),
                                               ("unequal_model", "separated", 3),
                                               ("array_model", "separated", 12)])
    def test_matches_explicit_topologies(self, request, point_force, target_point,
                                         ref_config, name, mode, m, inductive):
        """Peaks within 1e-12 of ``peaks_in_band`` over the explicit
        topologies, and their frequencies within 1e-10: near a flat top the
        parabolic vertex moves more than the values (4.7e-12 at 12 nodes
        with RL loads). Unequal capacitances put j*omega*(C_i - C_1) on A0's
        diagonal. One node gives the same bits, since s + A0 is the general
        path's A0 + s."""
        model = request.getfixturevalue(name)
        objective, band, nodes = uniform_case(model, mode, point_force, target_point,
                                              ref_config)
        count = max(4 * m, 20)
        ohms = np.geomspace(100.0, 1e6, count)
        henries = np.full(count, 1.0 / (model.frequencies[0] ** 2 * model.capacitances[0])
                          if inductive else 0.0)
        peaks, freqs = polynomial_peaks(objective, nodes, ohms, henries, band)
        laws = [ImpedanceLaw.series_rl(r, h) if inductive else ImpedanceLaw.resistor(r)
                for r, h in zip(ohms, henries)]
        want_peaks, want_freqs = objective.peaks_in_band(
            [ShuntTopology.uniform(mode, len(model.patches), law) for law in laws], band)
        assert np.max(np.abs(peaks - want_peaks) / want_peaks) <= 1e-12
        assert np.max(np.abs(freqs - want_freqs) / want_freqs) <= 1e-10
        if m == 1:
            assert peaks.tobytes() == want_peaks.tobytes()
            assert freqs.tobytes() == want_freqs.tobytes()

    def test_nan_load_fails_closed(self, ref_model, point_force, target_point, ref_config):
        for mode in ("separated", "connected"):
            objective, band, nodes = uniform_case(ref_model, mode, point_force, target_point,
                                                  ref_config)
            ohms = np.geomspace(100.0, 1e6, 20)
            ohms[7] = np.nan
            with pytest.raises(SolverError):
                polynomial_peaks(objective, nodes, ohms, np.zeros(20), band)

    def test_reference_sweeps_solve_no_band_system(self, ref_model, ref_config, monkeypatch):
        """compare's two sweeps on the reference solve only the systems of
        their parabolic steps, one per candidate and step."""
        sizes, solve = [], response.solve_voltages
        monkeypatch.setattr(response, "solve_voltages",
                            lambda A, b: sizes.append(A.shape[0]) or solve(A, b))
        objective = VelocityObjective(ref_model, ref_config.force, ref_config.target,
                                      ref_config.grid.frequencies())
        spec = ref_config.sweep or SweepSpec()
        calls = char_poly_calls(monkeypatch)
        for mode in ("separated", "connected"):
            _uniform_sweep(objective, spec, mode)
        assert calls == [3, 1]
        assert sizes and max(sizes) <= spec.points

    def test_general_path_keeps_its_bits(self, array_model, bare_model_10, point_force,
                                         target_point, ref_config, monkeypatch):
        """A 16-point sweep of 12 nodes (fewer than 4m = 48 candidates) and
        a sweep without patches keep the bits of the explicit topologies."""
        calls = char_poly_calls(monkeypatch)
        grid = ref_config.grid.frequencies()
        for model, points in ((array_model, 16), (with_coupling(bare_model_10), 200)):
            objective, band, _ = uniform_case(model, "separated", point_force, target_point,
                                              ref_config)
            spec = SweepSpec(points=points, objective_band=band)
            got = sweep_resistance(model, point_force, target_point, grid, spec, "separated")
            k = len(model.patches)
            want = objective.peaks_in_band(
                [ShuntTopology.uniform("separated", k, ImpedanceLaw.resistor(float(r)))
                 for r in spec.resistances()], band)
            assert got.objective_values.tobytes() == want[0].tobytes()
            assert got.peak_freqs_hz.tobytes() == want[1].tobytes()
        assert calls == []

    def test_failed_check_falls_back_to_velocity(self, ref_model, point_force, target_point,
                                                 ref_config, monkeypatch):
        """Skewed coefficients at two frequencies fail their check there:
        those columns are the kernel's ``velocity`` at those frequencies,
        and every other column keeps its bits."""
        objective, band, nodes = uniform_case(ref_model, "separated", point_force,
                                              target_point, ref_config)
        kernel, pts = objective._kernel, objective.band_points(band)
        loads = np.geomspace(100.0, 1e6, 40)[:, None], np.zeros((40, 1))
        clean = charpoly.velocity(kernel, pts, nodes, *loads)
        bad, coefficients = [3, 17], charpoly.coefficients

        def skewed(A0, b):
            c, n = coefficients(A0, b)
            c[-1] = c[-1].copy()
            c[-1][bad] *= 1.0 + 1e-3
            return c, n

        monkeypatch.setattr(charpoly, "coefficients", skewed)
        fallback, velocity = [], kernel.velocity
        monkeypatch.setattr(kernel, "velocity",
                            lambda f, *a: fallback.append(f.tolist()) or velocity(f, *a))
        got = charpoly.velocity(kernel, pts, nodes, *loads)
        assert fallback == [pts[bad].tolist()]
        assert got[:, bad].tobytes() == velocity(pts[bad], nodes, *loads).tobytes()
        keep = np.setdiff1d(np.arange(pts.size), bad)
        assert got[:, keep].tobytes() == clean[:, keep].tobytes()

    def test_non_finite_response_still_raises(self, ref_config, point_force, target_point,
                                              monkeypatch):
        """Without damping and a grid point on the first natural frequency,
        the polynomial's check fails there and the kernel raises."""
        plate = dataclasses.replace(ref_config.plate, modal_damping_xi=0.0)
        model = with_coupling(build_model(plate, ref_config.patches, ref_config.basis))
        grid = np.linspace(0.5 * model.frequencies_hz[0], model.frequencies_hz[0], 50)
        calls = char_poly_calls(monkeypatch)
        for mode in ("separated", "connected"):
            with pytest.raises(SolverError):
                sweep_resistance(model, point_force, target_point, grid, SweepSpec(points=12),
                                 mode)
        assert calls == [3, 1]

    def test_imported_only_by_the_sweeps_that_use_it(self):
        """A sweep below 4m candidates leaves ``charpoly`` unimported, so
        a run that never takes the polynomial never compiles it."""
        script = """import sys
from platedamp import SweepSpec, build_model, reference_config, sweep_resistance, with_coupling
c = reference_config()
model = with_coupling(build_model(c.plate, c.patches, c.basis))
for points, loaded in ((11, False), (12, True)):
    sweep_resistance(model, c.force, c.target, c.grid.frequencies(), SweepSpec(points=points))
    assert ("platedamp.charpoly" in sys.modules) == loaded, points
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def recorded(function):
    """``function`` of frequencies (C,) as a ``_parabolic_search`` velocity,
    with every evaluated frequency appended to its candidate's list."""
    seen = {}

    def velocity(rows, f):
        for r, fr in zip(rows, f):
            seen.setdefault(int(r), []).append(float(fr))
        return function(rows, f)

    return velocity, seen


class TestParabolicSearch:
    PTS = np.linspace(10.0, 20.0, 11)

    def search(self, function, **stop):
        """Search the candidates of ``function(rows, f)`` from its values at
        PTS; returns the peaks, their frequencies and every evaluated point."""
        rows = np.arange(len(function.peaks))
        vals = np.stack([function(np.full(self.PTS.size, r), self.PTS) for r in rows])
        velocity, seen = recorded(function)
        best_v, best_f = _parabolic_search(velocity, self.PTS, vals, **stop)
        return best_v, best_f, seen

    @staticmethod
    def quadratic(peaks):
        """1/|v|^2 = 1 + 3 (f - peak)^2 for each candidate's peak."""
        def function(rows, f):
            return 1.0 / np.sqrt(1.0 + 3.0 * (f - function.peaks[rows]) ** 2)
        function.peaks = np.asarray(peaks)
        return function

    @staticmethod
    def resonance(peaks, zeta=0.01):
        """|velocity| of a single damped mode at each candidate's frequency,
        with one damping ratio for all or one each."""
        def function(rows, f):
            fn, z = function.peaks[rows], function.zeta[rows]
            return f / np.hypot(fn**2 - f**2, 2.0 * z * fn * f)
        function.peaks = np.asarray(peaks)
        function.zeta = np.broadcast_to(zeta, function.peaks.shape)
        return function

    def test_one_kernel_call_per_step_for_the_whole_stack(self, array_objective,
                                                        monkeypatch):
        """Refining a stack of candidates makes PARABOLIC_STEPS kernel
        calls, each with one frequency of every candidate."""
        objective, band = array_objective
        shapes = []
        velocity = objective._kernel.velocity

        def counted(freqs_hz, *args):
            shapes.append(np.shape(freqs_hz))
            return velocity(freqs_hz, *args)

        monkeypatch.setattr(objective._kernel, "velocity", counted)
        topologies = [ShuntTopology.uniform("separated", 12, ImpedanceLaw.resistor(r))
                      for r in np.geomspace(100.0, 1e6, 9)]
        objective.peaks_in_band(topologies, band)
        points = objective.band_points(band).size
        assert shapes == [(points,)] + [(9, 1)] * PARABOLIC_STEPS
        shapes.clear()
        current = ShuntTopology.separated([ImpedanceLaw.resistor(r)
                                           for r in TestCoordinatePeaks.CURRENT])
        objective.coordinate_peaks(current, 4, TestCoordinatePeaks.LAWS, band)
        assert shapes == [(16, 1)] * PARABOLIC_STEPS

    def test_exact_quadratic_gives_its_vertex(self):
        """Where 1/|v|^2 is a parabola, the first step lands on its vertex,
        wherever the vertex lies between the grid neighbours."""
        peaks = [13.0, 13.37, 15.61, 16.5, 10.73, 19.25, 14.0 - 3e-3]
        best_v, best_f, _ = self.search(self.quadratic(peaks))
        assert np.max(np.abs(best_f - peaks) / peaks) <= 1e-12
        assert np.max(np.abs(best_v - 1.0)) <= 1e-12

    @pytest.mark.parametrize("kind", ["quadratic", "resonance"])
    def test_no_evaluated_point_within_tol_of_another(self, kind):
        """No evaluated point comes within tol = SPACING * (b - a) of a grid
        point or of another evaluated point, peaks on or next to the grid
        included. A vertex nearer than tol to the best point is not
        evaluated, so the best point may stay about tol off the peak."""
        peaks = [13.0, 13.0 + 1e-9, 13.5, 13.37, 16.5 - 1e-7, 10.02, 19.62, 17.5]
        function = getattr(self, kind)(peaks)
        best_v, best_f, seen = self.search(function)
        tol = SPACING * 2.0
        for r, evaluated in seen.items():
            assert len(evaluated) == PARABOLIC_STEPS
            points = np.sort(np.concatenate([self.PTS, evaluated]))
            assert np.min(np.diff(points)) >= tol
        assert np.all(best_v == function(np.arange(len(peaks)), best_f))
        assert np.all(np.abs(best_f - peaks) <= 2.0 * tol)

    def test_peak_on_a_band_end_stays_finite_and_inside(self, ref_model, point_force,
                                                        target_point, ref_config):
        """A monotone band keeps its end point; so does a flat one, whose
        equal values never replace the first grid maximum."""
        ramp = self.quadratic([5.0, 25.0, 10.0 - 1e-3, 20.0 + 1e-3])
        best_v, best_f, seen = self.search(ramp)
        assert best_f.tolist() == [10.0, 20.0, 10.0, 20.0]
        assert np.all(best_v == ramp(np.arange(4), best_f))
        assert all(10.0 < f < 20.0 for evaluated in seen.values() for f in evaluated)

        flat_v, flat_f = _parabolic_search(lambda rows, f: np.ones(f.shape), self.PTS,
                                           np.ones((1, self.PTS.size)))
        assert flat_v.tolist() == [1.0] and flat_f.tolist() == [10.0]

        grid = ref_config.grid.frequencies()
        objective = VelocityObjective(ref_model, point_force, target_point, grid)
        f1 = ref_model.frequencies_hz[0]
        topologies = [ShuntTopology.uniform("separated", 3, ImpedanceLaw.resistor(r))
                      for r in (1e2, 1e4, 1e6)]
        for band in ((0.8 * f1, 0.95 * f1), (1.05 * f1, 1.2 * f1)):
            pts = objective.band_points(band)
            peaks, freqs = objective.peaks_in_band(topologies, band)
            assert np.all(np.isfinite(peaks)) and np.all(np.isfinite(freqs))
            end = pts[-1] if band[1] < f1 else pts[0]
            assert np.all(freqs == end)

    @pytest.mark.parametrize("peak", [19.9999, 19.99, 10.0001, 10.01, 15.3])
    def test_resonance_next_to_a_band_end_is_found(self, peak):
        """A damped mode's |velocity| peaks exactly at its natural frequency.
        Just inside a band end the grid argmax is the end itself, and the
        search still reaches the peak as closely as it does inside the band."""
        function = self.resonance([peak])
        best_v, best_f, seen = self.search(function)
        exact = function(np.array([0]), np.array([peak]))[0]
        assert exact - best_v[0] <= 1e-9 * exact
        assert abs(best_f[0] - peak) <= 1e-6 * peak
        assert len(seen[0]) <= PARABOLIC_STEPS

    def test_stop_ends_only_the_candidates_that_reach_it(self):
        """With ``stop`` at inf every candidate takes the same steps as by
        default. A finite ``stop`` leaves every candidate that stays below
        it bit for bit as it was; one whose best value reaches it, on the
        grid or in a step, is never evaluated again and returns that value,
        a lower bound of its peak."""
        function = self.resonance([13.0, 13.37, 15.61, 16.5, 10.73, 19.25, 14.2, 17.9],
                                  [0.01, 0.012, 0.009, 0.011, 0.01, 0.0095, 0.0105, 0.012])
        free_v, free_f, free_seen = self.search(function)
        inf_v, inf_f, inf_seen = self.search(function, stop=np.inf)
        assert inf_v.tobytes() == free_v.tobytes() and inf_f.tobytes() == free_f.tobytes()
        assert inf_seen == free_seen

        stop = 3.2
        best_v, best_f, seen = self.search(function, stop=stop)
        below = free_v < stop
        assert best_v[below].tobytes() == free_v[below].tobytes()
        assert best_f[below].tobytes() == free_f[below].tobytes()
        assert all(seen[r] == free_seen[r] for r in np.flatnonzero(below))
        reached_in_a_step = 0
        for r in np.flatnonzero(~below):
            grid_max = function(np.full(self.PTS.size, r), self.PTS).max()
            steps = function(np.full(len(free_seen[r]), r), np.array(free_seen[r]))
            running = np.maximum.accumulate(np.concatenate([[grid_max], steps]))
            reached = int(np.argmax(running >= stop))
            reached_in_a_step += reached > 0
            assert seen.get(r, []) == free_seen[r][:reached]
            assert stop <= best_v[r] == running[reached] <= free_v[r]
        assert below.any() and reached_in_a_step and reached_in_a_step < np.sum(~below)

    def test_band_of_one_grid_point_makes_no_call(self):
        calls = []
        best_v, best_f = _parabolic_search(lambda rows, f: calls.append(f),
                                           np.array([12.0]), np.array([[3.0], [4.0]]))
        assert not calls
        assert best_v.tolist() == [3.0, 4.0] and best_f.tolist() == [12.0, 12.0]

    @pytest.mark.parametrize("bad", [np.nan, 0.0, np.inf])
    @pytest.mark.parametrize("step", [0, 2, PARABOLIC_STEPS - 1])
    def test_non_finite_or_zero_step_fails_closed(self, ref_model, point_force,
                                                  target_point, ref_config, monkeypatch,
                                                  step, bad):
        """A step whose velocity comes back NaN, inf or zero never gives the
        peak or its frequency: the result is finite and no lower than the
        grid maximum, or the search raises SolverError."""
        grid = ref_config.grid.frequencies()
        objective = VelocityObjective(ref_model, point_force, target_point, grid)
        band = mode_windows(ref_model, 1, grid)[0]
        topologies = [ShuntTopology.uniform("separated", 3, ImpedanceLaw.resistor(r))
                      for r in (1e3, 1e4, 1e5)]
        pts = objective.band_points(band)
        grid_peaks = np.array([objective.velocity_abs(t, pts).max() for t in topologies])
        velocity = objective._kernel.velocity
        calls, poisoned = [], []

        def faulty(freqs_hz, *args):
            calls.append(None)
            out = velocity(freqs_hz, *args)
            if len(calls) == step + 2:  # the band's grid points take the first call
                poisoned.extend(np.ravel(freqs_hz))
                out = np.full_like(out, bad)
            return out

        monkeypatch.setattr(objective._kernel, "velocity", faulty)
        try:
            peaks, freqs = objective.peaks_in_band(topologies, band)
        except SolverError:
            return
        assert poisoned
        assert np.all(np.isfinite(peaks)) and np.all(np.isfinite(freqs))
        assert np.all(peaks >= grid_peaks)
        assert not set(freqs.tolist()) & set(poisoned)
        assert np.all((freqs >= band[0]) & (freqs <= band[1]))


@pytest.fixture(scope="module")
def array_objective(array_model, point_force, target_point, ref_config):
    grid = ref_config.grid.frequencies()
    objective = VelocityObjective(array_model, point_force, target_point, grid)
    return objective, mode_windows(array_model, 1, grid)[0]


class TestCoordinatePeaks:
    LAWS = [ImpedanceLaw.resistor(float(r)) for r in np.geomspace(100.0, 1e6, 16)]
    CURRENT = [float(r) for r in np.geomspace(2e3, 9e4, 12)]

    @pytest.mark.parametrize("index", [0, 7])
    def test_matches_explicit_topologies(self, array_objective, index):
        """A rank-one coordinate sweep from unequal current resistances
        gives the peaks of the 16 explicit topologies."""
        objective, band = array_objective
        current = ShuntTopology.separated([ImpedanceLaw.resistor(r) for r in self.CURRENT])
        explicit = []
        for law in self.LAWS:
            loads = list(current.loads)
            loads[index] = law
            explicit.append(ShuntTopology.separated(loads))
        peaks, freqs = objective.coordinate_peaks(current, index, self.LAWS, band)
        want_peaks, want_freqs = objective.peaks_in_band(explicit, band)
        assert np.max(np.abs(peaks - want_peaks) / want_peaks) <= 1e-12
        assert np.max(np.abs(freqs - want_freqs) / want_freqs) <= 1e-12

    def test_multi_stack_sweep_matches_single_stack(self, array_objective, monkeypatch):
        """Chunks and stacks of a few candidates each give the peaks of
        one chunk and one stack."""
        objective, band = array_objective
        current = ShuntTopology.separated([ImpedanceLaw.resistor(r) for r in self.CURRENT])
        whole = objective.coordinate_peaks(current, 3, self.LAWS, band)
        points = objective.band_points(band).size
        per_candidate = 12 * 12 + objective.n_modes  # at a parabolic step's one point
        assert len(response._stacks(16, points * 12)) == 1
        assert len(response._stacks(16, per_candidate)) == 1
        monkeypatch.setattr(response, "CHUNK_ENTRIES", 5 * per_candidate)
        assert len(response._stacks(16, points * 12)) > 2     # rank-one band chunks
        assert len(response._stacks(16, per_candidate)) == 4  # one-point step stacks of 5
        stacked = objective.coordinate_peaks(current, 3, self.LAWS, band)
        assert np.max(np.abs(stacked[0] - whole[0]) / whole[0]) <= 1e-12
        assert np.max(np.abs(stacked[1] - whole[1]) / whole[1]) <= 1e-12

    def test_relabeling_moves_the_sweep_with_its_patch(self, array_objective, array_model,
                                                       point_force, target_point, ref_config):
        """Listing the patches, and their current loads, in another order:
        the coordinate sweep of patch perm[i] of the relabeled array gives
        the peaks of patch i of the original, bit for bit, since the kernel
        orders its nodes by footprint. (The descent itself visits patches
        in list order, so it has no such invariant.)"""
        objective, band = array_objective
        perm = [5, 11, 2, 8, 0, 9, 3, 7, 10, 1, 6, 4]
        patches, current = [None] * 12, [None] * 12
        for i, j in enumerate(perm):
            patches[j], current[j] = array_model.patches[i], self.CURRENT[i]
        moved = VelocityObjective(
            with_coupling(build_model(ref_config.plate, patches, BasisSpec(6, 6, 10))),
            point_force, target_point, ref_config.grid.frequencies())
        base = ShuntTopology.separated([ImpedanceLaw.resistor(r) for r in self.CURRENT])
        relabeled = ShuntTopology.separated([ImpedanceLaw.resistor(r) for r in current])
        for i, j in enumerate(perm):
            want = objective.coordinate_peaks(base, i, self.LAWS, band)
            got = moved.coordinate_peaks(relabeled, j, self.LAWS, band)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_bad_index_or_empty_laws_rejected(self, array_objective):
        objective, band = array_objective
        current = ShuntTopology.separated([ImpedanceLaw.resistor(r) for r in self.CURRENT])
        with pytest.raises(DomainError):
            objective.coordinate_peaks(current, 12, self.LAWS, band)
        with pytest.raises(DomainError):
            objective.coordinate_peaks(current, 0, [], band)


def bench_case(name, seed, monkeypatch):
    """The benchmark's scenario of workload ``name`` and ``seed``, parsed,
    and its coupled model."""
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import WORKLOADS, scenario
    config = parse_config_dict(json.loads(scenario(WORKLOADS[name], seed)))
    return config, with_coupling(build_model(config.plate, config.patches, config.basis))


class TestCarriedDescent:
    """The per-patch descent computes its band's structural blocks once,
    solves each cycle's starting band systems once and carries the
    solution from sweep to sweep; every sweep checks what it takes."""

    def band(self, array_objective):
        """The kernel, the nodes of TestCoordinatePeaks.CURRENT, the band's
        points and angular frequencies, and the structural blocks there."""
        objective, band = array_objective
        kernel = objective._kernel
        nodes = kernel.nodes(ShuntTopology.separated([ImpedanceLaw.resistor(r)
                                                      for r in TestCoordinatePeaks.CURRENT]))
        pts = objective.band_points(band)
        omega = 2.0 * np.pi * pts
        return kernel, nodes, pts, omega, kernel.structure(omega, nodes)

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_bench_descent_matches_fresh_sweeps(self, seed, monkeypatch):
        """The benchmark's array_descent job (two cycles, rel_tol 0) picks
        the resistances of a descent whose every sweep starts afresh, with
        the same objective."""
        config, model = bench_case("array_descent", seed, monkeypatch)
        args = (model, config.force, config.target, config.grid.frequencies(), config.sweep)
        rs, best, base = optimize_per_patch(*args, max_cycles=2, rel_tol=0.0)
        want_rs, want_best, want_base = descent_loop(*args, max_cycles=2, rel_tol=0.0)
        assert len(set(rs)) > 1 and best < base.objective_opt  # laws were carried
        assert rs == want_rs
        assert abs(best - want_best) <= 1e-12 * want_best
        assert base.objective_opt == want_base.objective_opt

    @settings(derandomize=True, deadline=None, max_examples=6, database=None)
    @given(case=shunted_layouts())
    def test_drawn_layouts_match_fresh_sweeps(self, case, aluminum_plate, pzt_patch):
        model, _, grid, p, q = build_case(case, aluminum_plate, pzt_patch)
        args = (model, HarmonicForce(1.0, *p), q, grid, SweepSpec(points=12))
        rs, best, _ = optimize_per_patch(*args, max_cycles=3)
        want_rs, want_best, _ = descent_loop(*args, max_cycles=3)
        assert rs == want_rs
        assert abs(best - want_best) <= 1e-12 * want_best

    def test_one_band_structure_per_objective(self, array_model, point_force, target_point,
                                              ref_config, monkeypatch):
        """The uniform sweep and the descent share one objective, and each
        computes the structural blocks at the band's grid points once, for
        all of its candidates, sweeps and cycles."""
        grid = ref_config.grid.frequencies()
        band = mode_windows(array_model, 1, grid)[0]
        points = VelocityObjective(array_model, point_force, target_point,
                                   grid).band_points(band).size
        kernels = []
        structure = _Kernel.structure

        def counted(kernel, omega, nodes, scratch=None):
            if omega.shape == (points,):
                kernels.append(kernel)
            return structure(kernel, omega, nodes, scratch)

        monkeypatch.setattr(_Kernel, "structure", counted)
        optimize_per_patch(array_model, point_force, target_point, grid, SweepSpec(points=16),
                           max_cycles=2, rel_tol=0.0)
        assert len(kernels) == 2 and kernels[0] is kernels[1]

    def test_carried_pair_matches_a_fresh_solve(self, array_objective):
        kernel, nodes, pts, omega, blocks = self.band(array_objective)
        solution = kernel.solution(omega, nodes, blocks)
        for index, ohms in ((4, 7e3), (9, 2.5e5), (4, 1e2)):
            nodes, solution = kernel.carry(omega, nodes, index, solution, ohms, 0.0)
        assert nodes.ohms[4] == 1e2 and nodes.ohms[9] == 2.5e5
        for got, want in zip(solution, kernel.solution(omega, nodes, blocks)):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("load", ["singular", "nan"])
    def test_degenerate_carried_update_raises(self, array_objective, load):
        """A carried load that makes 1 + delta u_k vanish at one band point,
        so that the updated system is singular there, or a NaN load: the
        next sweep's check of the carried pair raises SolverError."""
        kernel, nodes, pts, omega, blocks = self.band(array_objective)
        solution = kernel.solution(omega, nodes, blocks)
        k, p = 4, pts.size // 2
        if load == "nan":
            ohms, henries = np.nan, 0.0
        else:
            z = 1.0 / (1.0 / nodes.ohms[k] - 1.0 / solution[1][p, k, k])
            ohms, henries = z.real, z.imag / omega[p]
        nodes, solution = kernel.carry(omega, nodes, k, solution, ohms, henries)
        with pytest.raises(SolverError):
            kernel.rank_one(pts, nodes, 7, np.array([1e3, 1e4]), np.zeros(2), blocks, solution)

    def test_pair_check_covers_a_column_no_candidate_uses(self, array_objective):
        """A drifted column u of the carried inverse fails the pair check
        even when the only candidate keeps the node's load, so that no
        candidate's residual could show the drift."""
        kernel, nodes, pts, omega, blocks = self.band(array_objective)
        v0, inverse = kernel.solution(omega, nodes, blocks)
        k = 7
        load = np.array([nodes.ohms[k]]), np.array([nodes.henries[k]])
        kernel.rank_one(pts, nodes, k, *load, blocks, (v0, inverse))
        inverse = inverse.copy()
        inverse[..., k] *= 1.0 + 1e-6
        with pytest.raises(SolverError, match="residual"):
            kernel.rank_one(pts, nodes, k, *load, blocks, (v0, inverse))

    def test_every_sweep_checks_the_carried_pair(self, array_model, point_force,
                                                target_point, ref_config, monkeypatch):
        """A carried pair that drifted by 1e-6 fails the next sweep's
        residual check, and the descent raises instead of going on."""
        carry, carried = _Kernel.carry, []

        def drifted(kernel, *args):
            nodes, (v0, inverse) = carry(kernel, *args)
            carried.append(args[2])
            return nodes, (v0 * (1.0 + 1e-6), inverse)

        monkeypatch.setattr(_Kernel, "carry", drifted)
        with pytest.raises(SolverError, match="residual"):
            optimize_per_patch(array_model, point_force, target_point,
                               ref_config.grid.frequencies(), SweepSpec(points=16),
                               max_cycles=1)
        assert len(carried) == 1


class TestPrunedDescent:
    """Each sweep of the per-patch descent offers every grid resistance
    but the patch's current one, and refines a candidate only while it
    can still beat the current objective."""

    def test_bench_descent_refines_only_what_can_win(self, monkeypatch):
        config, model = bench_case("array_descent", 0, monkeypatch)
        offered, refined = [], []
        sweep, velocity = VelocityObjective._sweep, _Kernel.velocity

        def recorded_sweep(objective, nodes, pts, blocks, solution, index, laws, **stop):
            current = nodes.ohms[np.flatnonzero(nodes.load_index == index)[0]]
            offered.append((current, [law.ohms for law in laws]))
            return sweep(objective, nodes, pts, blocks, solution, index, laws, **stop)

        def counted(kernel, freqs_hz, *args):
            if np.ndim(freqs_hz) == 2:  # one frequency per candidate: a refinement step
                refined.append(len(freqs_hz))
            return velocity(kernel, freqs_hz, *args)

        monkeypatch.setattr(VelocityObjective, "_sweep", recorded_sweep)
        monkeypatch.setattr(_Kernel, "velocity", counted)
        optimize_per_patch(model, config.force, config.target, config.grid.frequencies(),
                           config.sweep, max_cycles=2, rel_tol=0.0)
        assert len(offered) == 2 * len(config.patches)
        grid = config.sweep.resistances().tolist()
        for current, ohms in offered:
            assert current in grid and ohms == [r for r in grid if r != current]
        assert len(refined) <= 40 and sum(refined) <= 300
