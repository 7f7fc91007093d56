"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines on the terminal.
"""

import dataclasses
import functools
import time
from importlib import resources

import numpy as np
import pytest

from platedamp import (BasisSpec, ImpedanceLaw, ShuntTopology, SweepSpec,
                       assemble_circuit_system, build_model, frf, frf_connected,
                       frf_separated, mode_windows,
                       optimize_per_patch, percent_reduction,
                       retained_mode_count, solve_voltages, sweep_resistance,
                       with_coupling)
from platedamp.cli import main as cli_main

from oracles import fd_plate_frequencies_hz, monolithic_separated


def criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num}: FAIL - {desc}")
                raise
            print(f"\nACCEPTANCE {num}: PASS - {desc}")
        return run
    return wrap


def rel_diff(a, b):
    scale = np.maximum(np.abs(a), np.abs(b))
    scale = np.where(scale == 0.0, 1.0, scale)
    return np.abs(a - b) / scale


@criterion(1, "bare-plate modal accuracy vs finite-difference oracle (0.5%)")
def test_criterion_1_bare_plate_modal_accuracy(aluminum_plate):
    t0 = time.perf_counter()
    model = build_model(aluminum_plate, [], BasisSpec(10, 10, 10))
    ritz = model.frequencies_hz[:6]
    fd = fd_plate_frequencies_hz(aluminum_plate.length_a, aluminum_plate.width_b,
                                 aluminum_plate.thickness_hs, aluminum_plate.youngs_Ys,
                                 aluminum_plate.poisson_nus, aluminum_plate.density_rhos,
                                 n_modes=6, nx=200, ny=200)
    elapsed = time.perf_counter() - t0
    rel = np.abs(ritz - fd) / fd
    assert np.all(rel < 5e-3), f"frequency mismatch {rel}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


@criterion(2, "patch-limit consistency: frequencies converge to bare plate")
def test_criterion_2_patch_limit(aluminum_plate, pzt_patch):
    spec = BasisSpec(10, 10, 10)
    bare = build_model(aluminum_plate, [], spec).frequencies[:6]
    gaps = []
    for hp in (1e-4, 1e-5, 1e-6):
        thin = dataclasses.replace(pzt_patch, thickness_hp=hp)
        f = build_model(aluminum_plate, [thin], spec).frequencies[:6]
        gaps.append(np.abs(f - bare) / bare)
    gaps = np.array(gaps)
    assert np.all(gaps[1] <= gaps[0]), "not monotone from 1e-4 to 1e-5"
    assert np.all(gaps[2] <= gaps[1]), "not monotone from 1e-5 to 1e-6"
    assert np.max(gaps[2]) < 5e-4, f"final gap {np.max(gaps[2]):.2e}"


@criterion(3, "circuit solve matches monolithic modal+circuit oracle (1e-8)")
def test_criterion_3_circuit_oracle(ref_model, point_force):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    freqs = rng.uniform(1.0, 250.0, size=10)
    loads = [ImpedanceLaw.resistor(r) for r in (1.2e3, 1.5e4, 2.4e5)]
    n = retained_mode_count(ref_model, [250.0])
    worst = 0.0
    for f in freqs:
        omega = 2.0 * np.pi * f
        A, b = assemble_circuit_system(omega, ref_model, loads, point_force,
                                       n_modes=n)
        v = solve_voltages(A, b)
        _, v_ref = monolithic_separated(ref_model, loads, point_force, omega, n)
        worst = max(worst, float(np.max(rel_diff(v, v_ref))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8, f"worst voltage mismatch {worst:.2e}"
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"


@criterion(4, "separated and connected topologies coincide for one patch (1e-12)")
def test_criterion_4_topology_equivalence(k1_model, point_force, target_point,
                                          grid_500):
    law = ImpedanceLaw.resistor(1.8e4)
    sep = frf_separated(k1_model, ShuntTopology.separated([law]), point_force,
                        target_point, grid_500)
    conn = frf_connected(k1_model, ShuntTopology.connected(law), point_force,
                         target_point, grid_500)
    worst_disp = float(np.max(rel_diff(sep.displacement, conn.displacement)))
    worst_volt = float(np.max(rel_diff(sep.voltages, conn.voltages)))
    assert worst_disp < 1e-12, f"displacement mismatch {worst_disp:.2e}"
    assert worst_volt < 1e-12, f"voltage mismatch {worst_volt:.2e}"


@criterion(5, "short/open surrogate limits behave (1e-6 / 1e-4)")
def test_criterion_5_short_open_limits(ref_model, k1_model, point_force,
                                       target_point, grid_500):
    # short limit: electromechanical feedback disappears into the branch
    for model, loads in ((ref_model, 3), (k1_model, 1)):
        topo = ShuntTopology.separated([ImpedanceLaw.short()] * loads)
        shorted = frf_separated(model, topo, point_force, target_point, grid_500)
        mech = frf(model, None, point_force, target_point, grid_500)
        worst = float(np.max(rel_diff(shorted.displacement, mech.displacement)))
        assert worst < 1e-6, f"short-limit mismatch {worst:.2e}"
    # open limit: with one patch the two topologies share a single
    # open-circuit response
    sep = frf_separated(k1_model, ShuntTopology.separated([ImpedanceLaw.open()]),
                        point_force, target_point, grid_500)
    conn = frf_connected(k1_model, ShuntTopology.connected(ImpedanceLaw.open()),
                         point_force, target_point, grid_500)
    worst = float(np.max(rel_diff(sep.displacement, conn.displacement)))
    assert worst < 1e-4, f"open-limit mismatch {worst:.2e}"


@criterion(6, "resistance sweep finds an interior optimum on the reference scenario")
def test_criterion_6_interior_optimum(ref_model, ref_config, point_force,
                                      target_point):
    grid = ref_config.grid.frequencies()
    res = sweep_resistance(ref_model, point_force, target_point, grid,
                           SweepSpec(), topology_mode="separated")
    assert res.r_values[0] == 100.0 and res.r_values[-1] == 1e6
    assert res.r_values[0] < res.r_opt < res.r_values[-1], "optimum pinned at endpoint"
    assert res.objective_opt < res.objective_values[0], "no improvement over short end"
    assert res.objective_opt < res.objective_values[-1], "no improvement over open end"


def _topology_reductions(model, config, point_force, target_point):
    grid = config.grid.frequencies()
    windows = mode_windows(model, 3, grid)
    out = {}
    for mode in ("separated", "connected"):
        sweep = sweep_resistance(model, point_force, target_point, grid,
                                 SweepSpec(), topology_mode=mode)
        run = frf_connected if mode == "connected" else frf_separated
        k = len(model.patches)
        if mode == "connected":
            oc = ShuntTopology.connected(ImpedanceLaw.open())
            opt = ShuntTopology.connected(ImpedanceLaw.resistor(sweep.r_opt))
        else:
            oc = ShuntTopology.separated([ImpedanceLaw.open()] * k)
            opt = ShuntTopology.separated([ImpedanceLaw.resistor(sweep.r_opt)] * k)
        frf_oc = run(model, oc, point_force, target_point, grid)
        frf_opt = run(model, opt, point_force, target_point, grid)
        report = percent_reduction(frf_oc, frf_opt, windows, topology=mode)
        assert not any(e.flagged for e in report.entries)
        out[mode] = [e.reduction_pct for e in report.entries]
    return out


@criterion(7, "per-mode reductions: separated beats connected, mode-2 advantage largest")
def test_criterion_7_reduction_ordering(ref_config, ref_model, ref_model_8,
                                        point_force, target_point):
    for model in (ref_model_8, ref_model):
        reds = _topology_reductions(model, ref_config, point_force, target_point)
        seps, conns = reds["separated"], reds["connected"]
        for m in range(3):
            assert seps[m] > conns[m], (
                f"mode {m + 1}: separated {seps[m]:.2f}% <= connected {conns[m]:.2f}%")
        assert all(c > 0 for c in conns), f"connected reductions not positive: {conns}"
        ratios = [s / c for s, c in zip(seps, conns)]
        assert ratios[1] > ratios[0] and ratios[1] > ratios[2], (
            f"mode-2 advantage not largest: {ratios}")


@criterion(8, "per-patch coordinate descent is never worse than the uniform optimum")
def test_criterion_8_distribution_gain(ref_model, ref_config, point_force,
                                       target_point):
    grid = ref_config.grid.frequencies()
    spec = SweepSpec(points=60)
    resistances, best, base = optimize_per_patch(ref_model, point_force,
                                                 target_point, grid, spec)
    assert best <= base.objective_opt, (
        f"per-patch objective {best:.3e} worse than uniform {base.objective_opt:.3e}")
    assert len(resistances) == 3
    assert all(spec.r_min <= r <= spec.r_max for r in resistances)


@criterion(9, "compare command is byte-identical across reruns and thread counts")
def test_criterion_9_determinism(tmp_path):
    config = str(resources.files("platedamp").joinpath("data/reference.json"))
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / name
        rc = cli_main(["compare", "--config", config, "--out", str(out),
                       "--threads", threads])
        assert rc == 0
        outs.append(out)
    names = ["report.json", "sweep_separated.csv", "sweep_connected.csv",
             "frf_separated_oc.csv", "frf_separated_opt.csv",
             "frf_connected_oc.csv", "frf_connected_opt.csv"]
    for name in names:
        base = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == base, f"{name} differs across reruns"
        assert (outs[2] / name).read_bytes() == base, f"{name} differs across threads"
