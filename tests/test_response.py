import dataclasses

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from platedamp import (BasisSpec, DomainError, HarmonicForce, ImpedanceLaw,
                       PatchSpec, PlateSpec, ShuntTopology, SolverError, SweepSpec,
                       VelocityObjective, assemble_circuit_system, build_model, frf,
                       frf_connected, frf_separated, mode_windows,
                       optimize_per_patch, retained_mode_count, solve_voltages,
                       sweep_resistance, with_coupling)

from platedamp import response
from platedamp.response import _Kernel

from oracles import (displacement_from_modal, monolithic_connected, monolithic_separated,
                     open_circuit_coupling, state_space_frf, static_ritz_displacement)


def run_one(kernel, grid, topology):
    """Displacement, velocity and voltages of ``kernel.run`` for one topology."""
    res = kernel.run(grid, [topology])[0]
    return res.displacement, res.velocity, res.voltages


def coordinate_sweep(objective, band, current, patch, ohms):
    """Refined peaks and frequencies of ``objective._sweep`` putting each
    resistance of ``ohms`` on patch ``patch`` of the separated resistances
    ``current``, listed in patch order, from the band's structural blocks
    and the solution of ``current``'s band systems, as the descent has
    them at the start of a cycle."""
    kernel = objective._kernel
    nodes, r, l = kernel.stack([ShuntTopology.separated(
        [ImpedanceLaw.resistor(x) for x in current])])
    pts = objective.band_points(band)
    omega = 2.0 * np.pi * pts
    blocks = kernel.structure(omega, nodes)
    return objective._sweep(nodes, (r[0], l[0]), pts, blocks,
                            kernel.solution(omega, nodes, r[0], l[0], blocks),
                            int(nodes.patch_node[patch]), ohms, np.zeros(ohms.size))


def rel_diff(a, b):
    scale = np.maximum(np.abs(a), np.abs(b))
    scale = np.where(scale == 0.0, 1.0, scale)
    return np.abs(a - b) / scale


class TestImpedanceLaw:
    def test_surrogate_values(self):
        assert ImpedanceLaw.open().impedance(100.0) == 1e9
        assert ImpedanceLaw.short().impedance(100.0) == 1e-3

    def test_series_rl(self):
        law = ImpedanceLaw.series_rl(50.0, 0.2)
        assert law.impedance(300.0) == pytest.approx(50.0 + 1j * 60.0)

    def test_negative_values_rejected(self):
        with pytest.raises(DomainError):
            ImpedanceLaw.resistor(-1.0)
        for bad in (lambda: ImpedanceLaw.resistor(np.nan),
                    lambda: ImpedanceLaw.series_rl(1.0, np.nan),
                    lambda: ImpedanceLaw.series_rl(np.nan, 1e-3)):
            with pytest.raises(DomainError):
                bad()

    @pytest.mark.parametrize("make", [lambda: ImpedanceLaw.resistor(np.inf),
                                      lambda: ImpedanceLaw.series_rl(np.inf, 1e-3),
                                      lambda: ImpedanceLaw.series_rl(1.0, np.inf),
                                      lambda: ImpedanceLaw("open", ohms=np.inf),
                                      lambda: ImpedanceLaw("short", henries=np.inf)],
                             ids=["resistor-ohms", "series_rl-ohms", "series_rl-henries",
                                  "open-ohms", "short-henries"])
    def test_infinite_values_rejected(self, make):
        """An infinite R or L would build and fail later in a circuit solve."""
        with pytest.raises(DomainError, match="finite"):
            make()

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            ImpedanceLaw("inductor", 1.0)

    def test_inductance_only_on_series_rl(self):
        for kind in ("resistor", "open", "short"):
            with pytest.raises(DomainError):
                ImpedanceLaw(kind, ohms=10.0, henries=1e-3)
        assert ImpedanceLaw("series_rl", 10.0, 1e-3).impedance(1e3) == 10.0 + 1j

    def test_open_and_short_carry_their_surrogate(self):
        assert ImpedanceLaw("open") == ImpedanceLaw.open()
        assert ImpedanceLaw("short").ohms == 1e-3
        for law in (ImpedanceLaw.open(), ImpedanceLaw.short()):
            assert dataclasses.replace(law) == law

    def test_resistance_refused_on_open_and_short(self):
        """The surrogate is the branch's resistance: another one given to an
        open or short branch would otherwise be dropped without a word."""
        for kind, ohms in (("open", 5.0), ("short", 7.0), ("open", 1e-3), ("short", 1e9)):
            with pytest.raises(DomainError, match="takes no resistance"):
                ImpedanceLaw(kind, ohms=ohms)


class TestCircuitAssembly:
    def test_single_patch_reduces_to_scalar_formula(self, k1_model, point_force):
        omega = 2 * np.pi * 80.0
        law = ImpedanceLaw.resistor(1e4)
        A, b = assemble_circuit_system(omega, k1_model, [law], point_force)
        assert A.shape == (1, 1)
        n = k1_model.n_modes
        theta = k1_model.coupling[:, 0]
        denom = (k1_model.frequencies**2 - omega**2
                 + 2j * k1_model.damping_ratios * k1_model.frequencies * omega)
        expected = (1.0 / 1e4 + 1j * omega * k1_model.capacitances[0]
                    + 1j * omega * np.sum(theta**2 / denom))
        assert A[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_interaction_block_symmetric(self, ref_model, point_force):
        omega = 2 * np.pi * 60.0
        loads = [ImpedanceLaw.resistor(5e3)] * 3
        A, _ = assemble_circuit_system(omega, ref_model, loads, point_force)
        off = A - np.diag(np.diag(A))
        assert np.max(np.abs(off - off.T)) < 1e-12 * np.max(np.abs(A))

    def test_zero_force_gives_zero_rhs(self, ref_model):
        force = HarmonicForce(0.0, 0.45, 0.16)
        _, b = assemble_circuit_system(2 * np.pi * 60.0, ref_model,
                                       [ImpedanceLaw.resistor(1e4)] * 3, force)
        assert np.all(b == 0.0)

    @pytest.mark.parametrize("force", [(np.nan, 0.45, 0.16), (1.0, np.inf, 0.16),
                                       (1.0, 0.45, -np.inf)])
    def test_non_finite_force_rejected(self, force):
        with pytest.raises(DomainError, match="force amplitude and position must be finite"):
            HarmonicForce(*force)

    def test_zero_impedance_rejected(self, ref_model, point_force):
        with pytest.raises(SolverError):
            assemble_circuit_system(2 * np.pi * 60.0, ref_model,
                                    [ImpedanceLaw.resistor(0.0)] * 3, point_force)

    def test_solve_zero_rhs(self):
        A = np.eye(2, dtype=complex)
        assert np.all(solve_voltages(A, np.zeros(2, dtype=complex)) == 0.0)
        assert solve_voltages(np.zeros((3, 0, 0)), np.zeros((3, 0))).shape == (3, 0)

    def test_solve_singular_raises(self):
        A = np.zeros((2, 2), dtype=complex)
        with pytest.raises(SolverError):
            solve_voltages(A, np.ones(2, dtype=complex))

    def test_solve_nan_system_raises(self):
        A = np.full((2, 2), np.nan, dtype=complex)
        with pytest.raises(SolverError):
            solve_voltages(A, np.ones(2, dtype=complex))

    def test_stacked_solve_matches_single_solves(self, ref_model, k1_model, point_force):
        """Three nodes go to LAPACK, one node (k1_model) is a division."""
        for model, rs in ((ref_model, (1e3, 1e4, 1e5)), (k1_model, (1e4,))):
            loads = [ImpedanceLaw.resistor(r) for r in rs]
            systems = [assemble_circuit_system(2 * np.pi * f, model, loads, point_force)
                       for f in (20.0, 60.0, 140.0)]
            A = np.stack([a for a, _ in systems])
            b = np.stack([b for _, b in systems])
            stacked = solve_voltages(A, b)
            assert stacked.shape == (3, len(rs))
            for j, (a, bj) in enumerate(systems):
                assert np.array_equal(stacked[j], solve_voltages(a, bj))

    def test_several_right_hand_sides_match_single_solves(self, ref_model, point_force):
        loads = [ImpedanceLaw.resistor(r) for r in (1e3, 1e4, 1e5)]
        A = np.stack([assemble_circuit_system(2 * np.pi * f, ref_model, loads, point_force)[0]
                      for f in (20.0, 60.0)])
        B = np.random.default_rng(3).normal(size=(2, 3, 4)) * np.array([1.0, 1e-6, 1e3, 1j])
        V = solve_voltages(A, B)
        assert V.shape == (2, 3, 4)
        for r in range(4):
            single = solve_voltages(A, B[..., r])
            assert np.max(np.abs(V[..., r] - single)) <= 1e-14 * np.max(np.abs(single))

    def test_one_bad_right_hand_side_raises(self):
        B = np.ones((2, 2), dtype=complex)
        B[1, 1] = np.nan
        with pytest.raises(SolverError):
            solve_voltages(np.eye(2, dtype=complex), B)


def complex_draws(rng, shape):
    """Complex numbers of random sign and phase, their magnitudes spread
    over 1e-12 to 1e12."""
    return (10.0 ** rng.uniform(-12, 12, shape)
            * np.exp(1j * rng.uniform(-np.pi, np.pi, shape)))


class TestOneNodeSolve:
    """A one-node system (every connected wiring) is solved by division."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_lapack(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 2000))
        A = complex_draws(rng, (n, 1, 1))
        b = complex_draws(rng, (n, 1))
        B = complex_draws(rng, (n, 1, 3))
        for rhs in (b, B):
            got = solve_voltages(A, rhs)
            want = np.linalg.solve(A, rhs if rhs.ndim == 3 else rhs[..., None])
            want = want if rhs.ndim == 3 else want[..., 0]
            assert got.shape == rhs.shape
            assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.abs(want))
        assert np.array_equal(solve_voltages(A[0], b[0]), solve_voltages(A, b)[0])

    def test_zero_entry_is_singular(self):
        A = np.full((5, 1, 1), 2.0 + 1.0j)
        A[3] = 0.0
        with pytest.raises(SolverError, match="singular circuit system"):
            solve_voltages(A, np.ones((5, 1), dtype=complex))
        with pytest.raises(SolverError, match="singular circuit system"):
            solve_voltages(np.zeros((1, 1), dtype=complex), np.ones(1, dtype=complex))

    @pytest.mark.parametrize("where", ["A", "b"])
    def test_nan_raises(self, where):
        A = np.full((4, 1, 1), 2.0 + 1.0j)
        b = np.ones((4, 1), dtype=complex)
        (A if where == "A" else b)[2] = np.nan
        with pytest.raises(SolverError, match="residual"):
            solve_voltages(A, b)

    def test_no_lapack_call(self, ref_model, point_force, target_point, monkeypatch):
        """A connected FRF solves its one-node systems without LAPACK;
        three separated nodes still go to it."""
        sizes = []
        solve = np.linalg.solve

        def spy(A, B):
            sizes.append(A.shape[-1])
            return solve(A, B)

        monkeypatch.setattr(np.linalg, "solve", spy)
        grid = np.linspace(1.0, 250.0, 300)
        law = ImpedanceLaw.resistor(1e4)
        frf(ref_model, ShuntTopology.connected(law), point_force, target_point, grid)
        assert sizes == []
        frf(ref_model, ShuntTopology.separated([law] * 3), point_force, target_point, grid)
        assert sizes and set(sizes) == {3}


@pytest.fixture(scope="module")
def reversed_model(ref_config):
    """The reference model with its three patches listed against footprint
    order (the reference lists them sorted by (x1, y1))."""
    return with_coupling(build_model(ref_config.plate, ref_config.patches[::-1],
                                     ref_config.basis))


@pytest.fixture(scope="module")
def shuffled_array_model(ref_config):
    """Twelve reference patches on a 4x3 layout, listed in a shuffled order."""
    plate, patch = ref_config.plate, ref_config.patches[0]
    cells = [(i, j) for j in range(3) for i in range(4)]
    order = [7, 2, 11, 0, 5, 9, 3, 10, 1, 6, 8, 4]
    patches = [dataclasses.replace(patch, x1=(i + 0.5) * plate.length_a / 4 - 0.03,
                                   x2=(i + 0.5) * plate.length_a / 4 + 0.03,
                                   y1=(j + 0.5) * plate.width_b / 3 - 0.03,
                                   y2=(j + 0.5) * plate.width_b / 3 + 0.03)
               for i, j in (cells[c] for c in order)]
    return with_coupling(build_model(plate, patches, BasisSpec(6, 6, 10)))


def footprint_theta(model, n, mode):
    """Node coupling columns (n, m): separated nodes follow the patches
    sorted by footprint corner, a connected node sums every column."""
    if mode is None:
        return np.zeros((n, 0))
    order = sorted(range(len(model.patches)),
                   key=lambda i: (model.patches[i].x1, model.patches[i].y1))
    theta = model.coupling[:n, order]
    return theta.sum(axis=1, keepdims=True) if mode == "connected" else theta


def structure_oracle(kernel, omega, theta):
    """S, b, d0 and g of ``_Kernel.structure`` at frequencies ``omega``
    (F,), formed by complex division and complex products."""
    m = theta.shape[1]
    w = omega.reshape(-1, 1)
    inv = 1.0 / (kernel.omega_n**2 - w**2 + 2j * kernel.zeta * kernel.omega_n * w)
    outer = (theta[:, :, None] * theta[:, None, :]).reshape(kernel.n, -1)
    drive = kernel.phi0 * inv
    return ((1j * w * (inv @ outer)).reshape(w.size, m, m), -1j * w * (drive @ theta),
            drive @ kernel.phit, (inv * kernel.phit) @ theta)


class TestStructure:
    """``_Kernel.structure`` takes S, b, d0 and g from one real product of
    the modal inverse's real and imaginary parts with the wiring's table."""

    def assert_matches_oracle(self, model, mode, omega, point_force, target_point):
        kernel = _Kernel(model, point_force, target_point, omega.ravel() / (2 * np.pi), None)
        nodes = kernel.nodes(mode)
        blocks = kernel.structure(omega, nodes)
        oracle = structure_oracle(kernel, omega.ravel(), footprint_theta(model, kernel.n, mode))
        for got, want in zip(blocks, oracle):
            assert got.shape == omega.shape + want.shape[1:]
            got = got.reshape(want.shape)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        return nodes

    @pytest.mark.parametrize("mode", ["separated", "connected", None])
    def test_three_patches_match_complex_expressions(self, reversed_model, point_force,
                                                     target_point, mode):
        omega = 2 * np.pi * np.linspace(1.0, 250.0, 256)
        self.assert_matches_oracle(reversed_model, mode, omega, point_force, target_point)

    def test_twelve_patches_cut_into_row_chunks(self, shuffled_array_model, point_force,
                                                target_point):
        omega = 2 * np.pi * np.linspace(1.0, 250.0, 256).reshape(128, 2)
        nodes = self.assert_matches_oracle(shuffled_array_model, "separated", omega,
                                           point_force, target_point)
        assert nodes.table.shape[1] == 12 * 12 + 2 * 12 + 1
        assert 2 * omega.size * nodes.table.size > 4 * response._PRODUCT_MADDS

    def test_each_listed_patch_carries_its_own_load(self, reversed_model, point_force):
        """A and b of patches listed against footprint order, each on its own
        load, come back in listed order: each diagonal entry carries its own
        patch's 1/z + j*omega*C."""
        model = reversed_model
        omega = 2 * np.pi * 47.0
        loads = [ImpedanceLaw.resistor(2e3), ImpedanceLaw.series_rl(800.0, 0.4),
                 ImpedanceLaw.resistor(6e4)]
        A, b = assemble_circuit_system(omega, model, loads, point_force)
        inv = 1.0 / (model.frequencies**2 - omega**2
                     + 2j * model.damping_ratios * model.frequencies * omega)
        S = 1j * omega * (model.coupling.T * inv) @ model.coupling
        y = [1.0 / law.impedance(omega) + 1j * omega * c
             for law, c in zip(loads, model.capacitances)]
        for i in range(3):
            assert abs(A[i, i] - S[i, i] - y[i]) <= 1e-12 * abs(y[i])
        assert np.linalg.norm(A - S - np.diag(y)) <= 1e-13 * np.linalg.norm(A)
        phi0 = model.mode_shapes_at(point_force.x, point_force.y)
        b_ref = -1j * omega * point_force.amplitude * (phi0 * inv) @ model.coupling
        assert np.linalg.norm(b - b_ref) <= 1e-13 * np.linalg.norm(b_ref)


def allocating_structure(kernel, omega, nodes, scratch=None):
    """``_Kernel.structure`` as it was before it took scratch buffers: the
    same operations in the same order, each temporary a new array."""
    m = nodes.caps.size
    w = omega.reshape(-1, 1)
    a = kernel.omega_n**2 - w**2
    c = 2.0 * kernel.zeta * kernel.omega_n * w
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = a * a + c * c
        inv = np.concatenate((a / mag, -c / mag))
    table = nodes.table
    out = np.empty((len(inv), table.shape[1]))
    rows = max(1, response._PRODUCT_MADDS // table.size)
    for i in range(0, len(inv), rows):
        np.matmul(inv[i:i + rows], table, out=out[i:i + rows])
    re, im = out[:len(w)], out[len(w):]
    mm = m * m
    S = response._times_jw(w, re[:, :mm], im[:, :mm])
    b = response._times_jw(-w, re[:, mm:mm + m], im[:, mm:mm + m])
    g = re[:, mm + m:-1] + 1j * im[:, mm + m:-1]
    d0 = re[:, -1] + 1j * im[:, -1]
    shape = omega.shape
    return (S.reshape(shape + (m, m)), b.reshape(shape + (m,)), d0.reshape(shape),
            g.reshape(shape + (m,)))


class TestScratchBuffers:
    """``_Kernel.run`` gives the blocks of a grid one set of structure
    temporaries; what ``structure`` returns is new, and the buffers change
    no bit."""

    @pytest.fixture()
    def kernel(self, reversed_model, point_force, target_point):
        return _Kernel(reversed_model, point_force, target_point, [250.0], None)

    def test_same_bits_as_new_temporaries(self, kernel):
        omega = 2 * np.pi * np.linspace(1.0, 250.0, 256)
        for nodes in (kernel.nodes("separated"), kernel.nodes(None)):
            scratch = kernel.scratch(256, nodes.table.shape[1])
            for w in (omega, omega[:37] * 0.5, omega.reshape(128, 2)):
                want = allocating_structure(kernel, w, nodes)
                for got in (kernel.structure(w, nodes, scratch), kernel.structure(w, nodes)):
                    for x, y in zip(got, want):
                        assert x.shape == y.shape and np.array_equal(x, y)

    def test_results_survive_later_calls(self, kernel):
        nodes = kernel.nodes("separated")
        scratch = kernel.scratch(256, nodes.table.shape[1])
        omega = 2 * np.pi * np.linspace(1.0, 250.0, 256)
        first = kernel.structure(omega, nodes, scratch)
        kept = [x.copy() for x in first]
        assert not any(np.shares_memory(x, buf) for x in first for buf in scratch)
        kernel.structure(omega + 1.0, nodes, scratch)
        kernel.structure(omega[:100] * 0.5, nodes, scratch)
        for got, want in zip(first, kept):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("mode", ["separated", "connected", None])
    def test_short_last_block_matches_one_kernel_per_block(self, reversed_model,
                                                           point_force, target_point, mode):
        grid = np.linspace(1.0, 250.0, 2 * response.BLOCK_POINTS + 37)
        k = len(reversed_model.patches)
        topology = (None if mode is None
                    else ShuntTopology.uniform(mode, k, ImpedanceLaw.resistor(5e3)))
        whole = run_one(_Kernel(reversed_model, point_force, target_point, grid, None), grid,
                        topology)
        blocks = [run_one(_Kernel(reversed_model, point_force, target_point, grid, None),
                          grid[i:i + response.BLOCK_POINTS], topology)
                  for i in range(0, grid.size, response.BLOCK_POINTS)]
        for got, parts in zip(whole, zip(*blocks)):
            assert np.array_equal(got, np.concatenate(parts))

    def test_sweeps_and_frf_unchanged(self, kernel, monkeypatch):
        """velocity over shared and per-candidate frequencies, rank_one and
        an FRF of a short last block give the bits they give with every
        temporary of ``structure`` a new array."""
        ohms = np.array([[1e3, 3e4, 9e4], [5e3, 3e4, 9e4], [2e4, 3e4, 9e4]])
        henries = np.zeros_like(ohms)
        pts = np.linspace(60.0, 90.0, 41)
        grid = np.linspace(1.0, 250.0, response.BLOCK_POINTS + 37)
        topology = ShuntTopology.separated([ImpedanceLaw.resistor(r) for r in (2e3, 3e4, 9e4)])
        nodes, ohms0, henries0 = kernel.stack([topology])
        loads = ohms0[0], henries0[0]

        def sweeps():
            blocks = kernel.structure(2.0 * np.pi * pts, nodes)
            solution = kernel.solution(2.0 * np.pi * pts, nodes, *loads, blocks)
            return (kernel.velocity(pts, nodes, ohms, henries),
                    kernel.velocity(np.array([[61.3], [74.9], [88.2]]), nodes, ohms, henries),
                    kernel.rank_one(pts, nodes, loads, 0, ohms[:, 0], henries[:, 0], blocks,
                                    solution),
                    *run_one(kernel, grid, topology))

        got = sweeps()
        monkeypatch.setattr(_Kernel, "structure", allocating_structure)
        for x, y in zip(got, sweeps()):
            assert np.array_equal(x, y)


class TestStackedRun:
    """``_Kernel.run`` over a list of topologies of one wiring computes each
    block's structural blocks once for the list and gives each topology
    the bits of its own run."""

    @pytest.mark.parametrize("mode", ["separated", "connected"])
    def test_stack_equals_single_runs(self, reversed_model, point_force, target_point, mode,
                                      monkeypatch):
        grid = np.linspace(1.0, 250.0, 2 * response.BLOCK_POINTS + 37)
        kernel = _Kernel(reversed_model, point_force, target_point, grid, None)
        k = len(reversed_model.patches)
        topologies = [ShuntTopology.uniform(mode, k, law) for law in
                      (ImpedanceLaw.open(), ImpedanceLaw.resistor(7e3), ImpedanceLaw.short())]
        calls = []
        structure = _Kernel.structure
        monkeypatch.setattr(_Kernel, "structure",
                            lambda self, *a: calls.append(1) or structure(self, *a))
        stacked = kernel.run(grid, topologies)
        assert len(calls) == 3  # one per block for all three topologies
        for topology, got in zip(topologies, stacked):
            want = kernel.run(grid, [topology])[0]
            for name in ("frequencies_hz", "displacement", "velocity", "voltages"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            assert np.array_equal(got.displacement,
                                  frf(reversed_model, topology, point_force, target_point,
                                      grid).displacement)

    def test_one_wiring_per_stack(self, reversed_model, point_force, target_point):
        kernel = _Kernel(reversed_model, point_force, target_point, [250.0], None)
        law = ImpedanceLaw.resistor(1e4)
        for mixed in ([ShuntTopology.separated([law] * 3), ShuntTopology.connected(law)],
                      [None, ShuntTopology.connected(law)]):
            with pytest.raises(DomainError, match="share one wiring"):
                kernel.run(np.array([10.0, 20.0]), mixed)


class TestVoltageColumns:
    def test_connected_patches_share_one_voltage_bit_for_bit(self, ref_model, point_force,
                                                              target_point, grid_500):
        topology = ShuntTopology.connected(ImpedanceLaw.resistor(7e3))
        volts = frf_connected(ref_model, topology, point_force, target_point,
                              grid_500).voltages
        assert volts.shape == (grid_500.size, 3)
        for i in range(1, 3):
            assert np.array_equal(volts[:, i], volts[:, 0])

    def test_separated_voltages_come_back_in_listed_order(self, ref_model, reversed_model,
                                                          point_force, target_point,
                                                          grid_500):
        """The same patches and loads, listed sorted and reversed: the same
        bits, the voltage columns reversed; each column also matches the
        monolithic solve of the reversed listing."""
        loads = [ImpedanceLaw.resistor(r) for r in (1.5e3, 2.2e4, 9e4)]
        listed = frf_separated(reversed_model, ShuntTopology.separated(loads[::-1]),
                               point_force, target_point, grid_500)
        sorted_ = frf_separated(ref_model, ShuntTopology.separated(loads), point_force,
                                target_point, grid_500)
        assert np.array_equal(listed.voltages, sorted_.voltages[:, ::-1])
        assert np.array_equal(listed.displacement, sorted_.displacement)
        n = retained_mode_count(reversed_model, grid_500)
        for j in (40, 107, 300):
            _, v_ref = monolithic_separated(reversed_model, loads[::-1], point_force,
                                            2 * np.pi * grid_500[j], n)
            assert np.max(rel_diff(listed.voltages[j], v_ref)) < 1e-8


class TestMirrorSymmetry:
    def test_mirrored_patches_see_equal_voltages(self, aluminum_plate):
        a = aluminum_plate.length_a
        args = (76335877862.59541, 23664122137.40458, 26335877862.595417,
                -19.0, 9.57e-9, 7800.0, 2.67e-4)
        left = PatchSpec(*args, x1=0.10, x2=0.18, y1=0.20, y2=0.28)
        right = PatchSpec(*args, x1=a - 0.18, x2=a - 0.10, y1=0.20, y2=0.28)
        model = with_coupling(build_model(aluminum_plate, [left, right],
                                          BasisSpec(8, 8, 10)))
        force = HarmonicForce(1.0, a / 2, 0.24)
        for f in (40.0, 90.0, 140.0):
            A, b = assemble_circuit_system(2 * np.pi * f, model,
                                           [ImpedanceLaw.resistor(2e4)] * 2, force)
            v = solve_voltages(A, b)
            assert abs(v[0] - v[1]) < 1e-10 * max(abs(v[0]), 1e-30)


class TestMonolithicOracle:
    def test_voltages_match_monolithic_solve(self, ref_model, point_force):
        rng = np.random.default_rng(20240817)
        loads = [ImpedanceLaw.resistor(r) for r in (3e3, 2.2e4, 8e4)]
        n = retained_mode_count(ref_model, [250.0])
        for f in rng.uniform(1.0, 250.0, size=6):
            omega = 2 * np.pi * f
            A, b = assemble_circuit_system(omega, ref_model, loads, point_force,
                                           n_modes=n)
            v = solve_voltages(A, b)
            _, v_ref = monolithic_separated(ref_model, loads, point_force, omega, n)
            assert np.max(rel_diff(v, v_ref)) < 1e-8

    def test_displacement_matches_monolithic_solve(self, ref_model, point_force,
                                                   target_point):
        loads = [ImpedanceLaw.resistor(1.5e4)] * 3
        topo = ShuntTopology.separated(loads)
        grid = np.array([33.0, 54.0, 107.0, 161.0])
        n = retained_mode_count(ref_model, grid)
        res = frf_separated(ref_model, topo, point_force, target_point, grid)
        for j, f in enumerate(grid):
            modal, _ = monolithic_separated(ref_model, loads, point_force,
                                            2 * np.pi * f, n)
            w = displacement_from_modal(ref_model, modal, target_point, n)
            assert rel_diff(res.displacement[j], w) < 1e-9

    def test_connected_matches_constrained_monolithic(self, ref_model, point_force,
                                                      target_point):
        load = ImpedanceLaw.resistor(5e3)
        topo = ShuntTopology.connected(load)
        grid = np.array([54.0, 107.0, 115.0])
        n = retained_mode_count(ref_model, grid)
        res = frf_connected(ref_model, topo, point_force, target_point, grid)
        for j, f in enumerate(grid):
            modal, v = monolithic_connected(ref_model, load, point_force,
                                            2 * np.pi * f, n)
            w = displacement_from_modal(ref_model, modal, target_point, n)
            assert rel_diff(res.displacement[j], w) < 1e-9
            assert np.max(rel_diff(res.voltages[j], np.full(3, v))) < 1e-9

    def test_current_balance_residual(self, ref_model, point_force):
        """Each branch's solved voltage satisfies its own circuit law with
        the current driven by the modal velocities."""
        loads = [ImpedanceLaw.resistor(r) for r in (1e3, 1e4, 1e5)]
        omega = 2 * np.pi * 113.0
        n = retained_mode_count(ref_model, [250.0])
        A, b = assemble_circuit_system(omega, ref_model, loads, point_force, n_modes=n)
        v = solve_voltages(A, b)
        theta = ref_model.coupling[:n, :]
        denom = (ref_model.frequencies[:n]**2 - omega**2
                 + 2j * ref_model.damping_ratios[:n] * ref_model.frequencies[:n] * omega)
        phi0 = ref_model.mode_shapes_at(point_force.x, point_force.y)[:n]
        modal = (point_force.amplitude * phi0 + theta @ v) / denom
        current = -1j * omega * (theta.T @ modal)
        for k, law in enumerate(loads):
            lhs = (1j * omega * ref_model.capacitances[k]
                   + 1.0 / law.impedance(omega)) * v[k]
            assert lhs == pytest.approx(current[k], rel=1e-9)


class TestLimits:
    def test_short_circuit_recovers_mechanical_frf(self, ref_model, point_force,
                                                   target_point, grid_500):
        topo = ShuntTopology.separated([ImpedanceLaw.short()] * 3)
        shorted = frf_separated(ref_model, topo, point_force, target_point, grid_500)
        mech = frf(ref_model, None, point_force, target_point, grid_500)
        assert np.max(rel_diff(shorted.displacement, mech.displacement)) < 1e-6

    def test_connected_short_recovers_mechanical_frf(self, ref_model, point_force,
                                                     target_point, grid_500):
        topo = ShuntTopology.connected(ImpedanceLaw.short())
        shorted = frf_connected(ref_model, topo, point_force, target_point, grid_500)
        mech = frf(ref_model, None, point_force, target_point, grid_500)
        assert np.max(rel_diff(shorted.displacement, mech.displacement)) < 1e-6

    def test_single_patch_topologies_coincide(self, k1_model, point_force,
                                              target_point, grid_500):
        for ohms in (1e-3, 4e3, 1e9):
            sep = frf_separated(k1_model,
                                ShuntTopology.separated([ImpedanceLaw.resistor(ohms)]),
                                point_force, target_point, grid_500)
            conn = frf_connected(k1_model,
                                 ShuntTopology.connected(ImpedanceLaw.resistor(ohms)),
                                 point_force, target_point, grid_500)
            assert np.max(rel_diff(sep.displacement, conn.displacement)) < 1e-12
            assert np.max(rel_diff(sep.voltages, conn.voltages)) < 1e-12

    def test_open_surrogate_is_converged_limit(self, k1_model, point_force,
                                               target_point, grid_500):
        """Raising the open-circuit surrogate another three decades moves
        the FRF by far less than the documented 1e-4."""
        def run(ohms):
            topo = ShuntTopology.separated([ImpedanceLaw.resistor(ohms)])
            return frf_separated(k1_model, topo, point_force, target_point, grid_500)
        assert np.max(rel_diff(run(1e9).displacement,
                               run(1e12).displacement)) < 1e-4

    def test_static_limit_matches_direct_stiffness_solve(self, aluminum_plate,
                                                         pzt_patch, point_force,
                                                         target_point):
        spec = BasisSpec(8, 8, 10)
        model = with_coupling(build_model(aluminum_plate, [pzt_patch], spec))
        topo = ShuntTopology.separated([ImpedanceLaw.resistor(1e4)])
        res = frf(model, topo, point_force, target_point, np.array([0.01]),
                  n_modes=model.n_modes)
        static = static_ritz_displacement(aluminum_plate, [pzt_patch], spec,
                                          point_force, target_point)
        assert abs(res.displacement[0]) == pytest.approx(abs(static), rel=1e-3)


class TestFrfContracts:
    def test_velocity_identity_exact(self, ref_model, point_force, target_point):
        grid = np.linspace(5.0, 200.0, 40)
        topo = ShuntTopology.separated([ImpedanceLaw.resistor(1e4)] * 3)
        res = frf_separated(ref_model, topo, point_force, target_point, grid)
        expected = 1j * 2 * np.pi * grid * res.displacement
        assert np.array_equal(res.velocity, expected)

    def test_per_newton_outputs_independent_of_amplitude(self, ref_model,
                                                         target_point):
        grid = np.linspace(5.0, 200.0, 25)
        topo = ShuntTopology.separated([ImpedanceLaw.resistor(1e4)] * 3)
        one = frf_separated(ref_model, topo, HarmonicForce(1.0, 0.45, 0.16),
                            target_point, grid)
        two = frf_separated(ref_model, topo, HarmonicForce(2.0, 0.45, 0.16),
                            target_point, grid)
        assert np.max(rel_diff(one.displacement, two.displacement)) < 1e-13
        assert np.max(rel_diff(one.voltages, two.voltages)) < 1e-13

    def test_bare_plate_separated_equals_mechanical(self, bare_model_10,
                                                    point_force, target_point):
        model = dataclasses.replace(bare_model_10,
                                    coupling=np.zeros((bare_model_10.n_modes, 0)),
                                    capacitances=np.zeros(0))
        grid = np.linspace(5.0, 200.0, 30)
        sep = frf_separated(model, ShuntTopology.separated([]), point_force,
                            target_point, grid)
        mech = frf(model, None, point_force, target_point, grid)
        assert np.array_equal(sep.displacement, mech.displacement)
        assert sep.voltages.shape == (30, 0)

    @pytest.mark.parametrize("n_modes", [None, 40])
    def test_mechanical_frf_is_the_kernel_without_nodes(self, ref_model, bare_model_10,
                                                        point_force, target_point, n_modes):
        """``frf(model, None, ...)`` is the kernel's node-free run and no
        more, bit for bit, and needs no coupling data."""
        grid = np.linspace(1.0, 250.0, 700)
        for model in (ref_model, bare_model_10):
            res = frf(model, None, point_force, target_point, grid, n_modes=n_modes)
            disp, vel, volts = run_one(_Kernel(model, point_force, target_point, grid, n_modes),
                                       grid, None)
            assert np.array_equal(res.frequencies_hz, grid)
            assert np.array_equal(res.displacement, disp)
            assert np.array_equal(res.velocity, vel)
            assert np.array_equal(res.voltages, volts)
            assert volts.shape == (grid.size, len(model.patches)) and not volts.any()

    def test_wiring_checks(self, ref_model, bare_model_10, point_force, target_point):
        grid = np.linspace(5.0, 200.0, 10)
        law = ImpedanceLaw.resistor(1e4)
        separated, connected = ShuntTopology.separated([law] * 3), ShuntTopology.connected(law)
        coupled_bare = with_coupling(bare_model_10)
        uncoupled = dataclasses.replace(ref_model, coupling=None, capacitances=None)
        for call, match in (
                (lambda: frf_separated(ref_model, connected, point_force, target_point, grid),
                 "requires a separated"),
                (lambda: frf_connected(ref_model, separated, point_force, target_point, grid),
                 "requires a connected"),
                (lambda: frf(coupled_bare, connected, point_force, target_point, grid),
                 "at least one patch"),
                (lambda: sweep_resistance(coupled_bare, point_force, target_point, grid,
                                          SweepSpec(points=4), "connected"),
                 "at least one patch"),
                (lambda: frf(ref_model, ShuntTopology.separated([law] * 2), point_force,
                             target_point, grid), "expected 3 loads"),
                (lambda: frf(uncoupled, connected, point_force, target_point, grid),
                 "no coupling data"),
                (lambda: ShuntTopology("parallel", (law,)), "unknown topology mode"),
                (lambda: sweep_resistance(ref_model, point_force, target_point, grid,
                                          SweepSpec(points=4), "parallel"),
                 "unknown topology mode"),
                (lambda: ShuntTopology("connected", (law, law)), "exactly one load")):
            with pytest.raises(DomainError, match=match):
                call()

    @pytest.mark.parametrize("n_modes", [-1, 0, 2.5, True, False, "5"])
    def test_n_modes_must_be_a_positive_integer(self, ref_model, point_force, target_point,
                                                n_modes):
        """-1 and 0 used to fail in a numpy reshape, 2.5 and True with a
        TypeError."""
        grid = np.linspace(5.0, 200.0, 10)
        loads = [ImpedanceLaw.resistor(1e4)] * 3
        calls = [lambda: frf(ref_model, ShuntTopology.separated(loads), point_force,
                             target_point, grid, n_modes=n_modes),
                 lambda: frf(ref_model, None, point_force, target_point, grid, n_modes=n_modes),
                 lambda: assemble_circuit_system(2 * np.pi * 60.0, ref_model, loads,
                                                 point_force, n_modes=n_modes)]
        for call in calls:
            with pytest.raises(DomainError, match="n_modes must be a positive integer"):
                call()

    def test_n_modes_takes_any_integer_type(self, ref_model, point_force, target_point):
        grid = np.linspace(5.0, 200.0, 10)
        want = frf(ref_model, None, point_force, target_point, grid, n_modes=30).displacement
        for n in (np.int64(30), np.int32(30)):
            got = frf(ref_model, None, point_force, target_point, grid, n_modes=n).displacement
            assert np.array_equal(got, want)
        full = frf(ref_model, None, point_force, target_point, grid,
                   n_modes=ref_model.n_modes).displacement
        assert np.array_equal(full, frf(ref_model, None, point_force, target_point, grid,
                                        n_modes=10 ** 6).displacement)

    def test_all_outputs_finite(self, ref_model, point_force, target_point, grid_500):
        topo = ShuntTopology.connected(ImpedanceLaw.series_rl(500.0, 2.0))
        res = frf_connected(ref_model, topo, point_force, target_point, grid_500)
        for arr in (res.displacement, res.velocity, res.voltages):
            assert np.all(np.isfinite(arr))

    def test_retained_mode_rule(self, ref_model):
        n = retained_mode_count(ref_model, [250.0])
        omega_cut = 2 * np.pi * 1000.0
        below = int(np.sum(ref_model.frequencies <= omega_cut))
        assert n == min(ref_model.n_modes, max(25, below))
        assert retained_mode_count(ref_model, [0.5]) == 25


class TestTruncation:
    def test_retained_modes_against_the_full_set(self, ref_model, ref_config):
        """Baseline of the modal truncation error on the reference scenario:
        the velocity FRF at the retained modes against all modes, norm-wise
        over the grid and at the peak of each reported mode window."""
        grid = ref_config.grid.frequencies()
        assert retained_mode_count(ref_model, grid) < ref_model.n_modes
        args = (ref_model, ref_config.topology, ref_config.force, ref_config.target, grid)
        kept = frf(*args).velocity
        full = frf(*args, n_modes=ref_model.n_modes).velocity
        assert np.linalg.norm(kept - full) < 1e-2 * np.linalg.norm(full)
        for lo, hi in mode_windows(ref_model, ref_config.sweep.report_modes, grid):
            band = (grid >= lo) & (grid <= hi)
            peak_kept, peak_full = np.max(np.abs(kept[band])), np.max(np.abs(full[band]))
            assert abs(peak_kept - peak_full) < 2e-2 * peak_full


class TestPointsOnThePlate:
    """A force or target point on a clamped edge, where every mode shape
    vanishes and the response would be rounding noise, or off the plate
    raises DomainError at every library entry point, as a scenario file
    with such a point raises ConfigError."""

    CASES = [((0.0, 0.16), (0.09, 0.50), "force location .* clamped edge x = 0 m"),
             ((0.7, 0.16), (0.09, 0.50), "force location lies outside the plate"),
             ((0.45, 0.16), (0.54, 0.50), "target point .* clamped edge x = 0.54 m"),
             ((0.45, 0.16), (0.09, 0.58), "target point .* clamped edge y = 0.58 m"),
             ((0.45, 0.16), (0.09, -0.01), "target point lies outside the plate")]

    @pytest.mark.parametrize("force, target, match", CASES)
    def test_entry_points_refuse(self, ref_model, grid_500, force, target, match):
        force = HarmonicForce(1.0, *force)
        separated = ShuntTopology.separated([ImpedanceLaw.resistor(1e4)] * 3)
        calls = (
            lambda: frf(ref_model, separated, force, target, grid_500),
            lambda: frf(ref_model, None, force, target, grid_500),
            lambda: VelocityObjective(ref_model, force, target, grid_500),
            lambda: optimize_per_patch(ref_model, force, target, grid_500,
                                       SweepSpec(points=4), max_cycles=1),
        )
        for call in calls:
            with pytest.raises(DomainError, match=match):
                call()


class TestFailClosed:
    def test_undamped_resonance_on_grid_raises(self, ref_config, point_force,
                                               target_point):
        """Without damping, a grid point exactly on a natural frequency
        has an infinite modal response; every path raises instead of
        returning NaN."""
        plate = dataclasses.replace(ref_config.plate, modal_damping_xi=0.0)
        model = with_coupling(build_model(plate, ref_config.patches, ref_config.basis))
        grid = np.linspace(0.5 * model.frequencies_hz[0], model.frequencies_hz[0], 50)
        assert 2 * np.pi * grid[-1] == model.frequencies[0]
        separated = ShuntTopology.separated([ImpedanceLaw.resistor(1e4)] * 3)
        connected = ShuntTopology.connected(ImpedanceLaw.resistor(1e4))
        objective = VelocityObjective(model, point_force, target_point, grid)
        calls = (
            lambda: frf_separated(model, separated, point_force, target_point, grid),
            lambda: frf_connected(model, connected, point_force, target_point, grid),
            lambda: frf(model, None, point_force, target_point, grid),
            lambda: objective.velocity_abs(separated, grid),
            lambda: coordinate_sweep(objective, (grid[0], grid[-1]), [1e4] * 3, 1,
                                     np.array([1e3, 1e4, 1e5])),
            lambda: sweep_resistance(model, point_force, target_point, grid,
                                     SweepSpec(points=4), "separated"),
            lambda: sweep_resistance(model, point_force, target_point, grid,
                                     SweepSpec(points=4), "connected"),
            lambda: optimize_per_patch(model, point_force, target_point, grid,
                                       SweepSpec(points=4), max_cycles=1),
        )
        for call in calls:
            with pytest.raises(SolverError):
                call()


class TestGridGuard:
    @pytest.mark.parametrize("grid, match", [
        ([], "empty"), ([10.0, np.nan, 30.0], "non-finite"), ([10.0, np.inf], "non-finite"),
        ([[10.0, 20.0], [30.0, 40.0]], "one-dimensional"), (50.0, "one-dimensional")],
        ids=["empty", "nan", "inf", "2-D", "scalar"])
    def test_empty_or_non_finite_grid_rejected(self, ref_model, point_force, target_point,
                                               grid, match):
        """An empty grid used to fail inside numpy ("zero-size array"), and
        a NaN frequency as a circuit residual SolverError. A 2-D grid gave
        an FRF of (2, 2) frequencies and 2 displacements, and a scalar one
        a bare IndexError."""
        separated = ShuntTopology.separated([ImpedanceLaw.resistor(1e4)] * 3)
        connected = ShuntTopology.connected(ImpedanceLaw.resistor(1e4))
        calls = (
            lambda: frf(ref_model, separated, point_force, target_point, grid),
            lambda: frf(ref_model, connected, point_force, target_point, grid),
            lambda: frf(ref_model, None, point_force, target_point, grid, n_modes=10),
            lambda: VelocityObjective(ref_model, point_force, target_point, grid),
        )
        for call in calls:
            with pytest.raises(DomainError, match=match):
                call()


class TestCancellation:
    def test_net_coupling_cancellation_freezes_a_mode(self, aluminum_plate):
        """Two mirrored patches whose summed coupling vanishes for the
        antisymmetric mode: with connected wiring, that mode's peak does
        not respond to the load resistance."""
        a = aluminum_plate.length_a
        args = (76335877862.59541, 23664122137.40458, 26335877862.595417,
                -19.0, 9.57e-9, 7800.0, 2.67e-4)
        left = PatchSpec(*args, x1=0.10, x2=0.18, y1=0.25, y2=0.33)
        right = PatchSpec(*args, x1=a - 0.18, x2=a - 0.10, y1=0.25, y2=0.33)
        model = with_coupling(build_model(aluminum_plate, [left, right],
                                          BasisSpec(8, 8, 10)))
        # the lowest mode that both patches couple to and whose summed
        # coupling cancels; modes with both theta at round-off (nodal lines
        # through both patches) would pass without testing anything
        theta_max = np.max(np.abs(model.coupling), axis=1)
        theta_sum = np.abs(model.coupling.sum(axis=1))
        cancels = np.flatnonzero((theta_max >= 1e-3 * theta_max.max())
                                 & (theta_sum <= 1e-10 * theta_max))
        assert cancels.size > 0
        anti = int(cancels[0])
        f_anti = model.frequencies_hz[anti]
        grid = np.linspace(0.9 * f_anti, 1.1 * f_anti, 400)
        force = HarmonicForce(1.0, 0.1, 0.05)
        peaks = []
        for ohms in (100.0, 3e4, 1e6):
            res = frf_connected(model, ShuntTopology.connected(ImpedanceLaw.resistor(ohms)),
                                force, (0.47, 0.51), grid)
            peaks.append(np.max(np.abs(res.velocity)))
        assert max(peaks) - min(peaks) < 1e-6 * max(peaks)


GRID_CELLS = 3


@st.composite
def shunted_layouts(draw):
    """1-4 patches, each inside its own cell of a GRID_CELLS^2 grid, with a
    wiring, one load per node, a force point and a target point. The patch
    count is drawn first, so most examples have several patches."""
    count = draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(0, GRID_CELLS**2 - 1), min_size=count, max_size=count,
                          unique=True))
    frac = st.floats(0.0, 0.45)
    patches = []
    for c in cells:
        ci, cj = divmod(c, GRID_CELLS)
        x0, x1, y0, y1 = (draw(frac) for _ in range(4))
        patches.append(((ci + x0) / GRID_CELLS, (ci + 1 - x1) / GRID_CELLS,
                        (cj + y0) / GRID_CELLS, (cj + 1 - y1) / GRID_CELLS,
                        draw(st.floats(1e-4, 1e-3))))
    mode = draw(st.sampled_from(("separated", "connected")))
    ohms = st.floats(10.0, 1e6)
    law = st.one_of(st.builds(ImpedanceLaw.resistor, ohms),
                    st.builds(ImpedanceLaw.series_rl, ohms, st.floats(1e-2, 1e3)),
                    st.just(ImpedanceLaw.open()), st.just(ImpedanceLaw.short()))
    loads = draw(st.lists(law, min_size=len(patches), max_size=len(patches)))
    point = st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    return patches, mode, loads, draw(point), draw(point)


def build_case(case, plate, patch):
    """Model, topology, grid and the two points (in meters) of a drawn case."""
    fractions, mode, loads, p, q = case
    a, b = plate.length_a, plate.width_b
    patches = [dataclasses.replace(patch, x1=fx1 * a, x2=fx2 * a,
                                   y1=fy1 * b, y2=fy2 * b, thickness_hp=hp)
               for fx1, fx2, fy1, fy2, hp in fractions]
    model = with_coupling(build_model(plate, patches, BasisSpec(5, 5, 10)))
    topology = (ShuntTopology.connected(loads[0]) if mode == "connected"
                else ShuntTopology.separated(loads))
    grid = np.linspace(5.0, 300.0, 120)
    return model, topology, grid, (p[0] * a, p[1] * b), (q[0] * a, q[1] * b)


class TestInvariants:
    """Physics identities that hold for any layout, wiring and loads."""

    @settings(derandomize=True, deadline=None, max_examples=15, database=None)
    @given(case=shunted_layouts())
    def test_reciprocity_and_passivity(self, case, aluminum_plate, pzt_patch):
        model, topology, grid, p, q = build_case(case, aluminum_plate, pzt_patch)

        pq = frf(model, topology, HarmonicForce(1.0, *p), q, grid)
        qp = frf(model, topology, HarmonicForce(1.0, *q), p, grid)
        assert np.max(rel_diff(pq.displacement, qp.displacement)) <= 1e-12

        driving = frf(model, topology, HarmonicForce(1.0, *p), p, grid)
        assert np.all(driving.velocity.real >= 0.0)

    @settings(derandomize=True, deadline=None, max_examples=15, database=None)
    @given(case=shunted_layouts())
    def test_power_balance(self, case, aluminum_plate, pzt_patch):
        """Power put in at the force point, 1/2 Re(vel) per newton squared,
        equals the modal damping loss sum_r zeta_r w_r w^2 |q_r|^2 plus the
        branch loss 1/2 sum_nodes Re(1/z) |V|^2 over the retained modes."""
        model, topology, grid, p, _ = build_case(case, aluminum_plate, pzt_patch)
        res = frf(model, topology, HarmonicForce(1.0, *p), p, grid)

        n = retained_mode_count(model, grid)
        w = 2.0 * np.pi * grid[:, None]
        wn, zeta = model.frequencies[:n], model.damping_ratios[:n]
        theta = model.coupling[:n]
        volts = res.voltages
        if topology.mode == "connected":
            theta, volts = theta.sum(axis=1, keepdims=True), volts[:, :1]
        inv = 1.0 / (wn**2 - w**2 + 2j * zeta * wn * w)
        q = inv * (model.mode_shapes_at(*p)[:n] + volts @ theta.T)
        modal = np.sum(zeta * wn * w**2 * np.abs(q)**2, axis=1)
        z = np.stack([law.impedance(w[:, 0]) for law in topology.loads], axis=1)
        branch = 0.5 * np.sum((1.0 / z).real * np.abs(volts)**2, axis=1)
        assert np.max(rel_diff(0.5 * res.velocity.real, modal + branch)) <= 1e-12

    @settings(derandomize=True, deadline=None, max_examples=15, database=None)
    @given(case=shunted_layouts(), data=st.data())
    def test_relabeling_permutes_voltages(self, case, data, aluminum_plate, pzt_patch):
        """Listing the patches, and their loads, in another order permutes
        the voltage columns and leaves the displacement unchanged, bit for
        bit: assembly and the kernel's nodes, connected sums included,
        follow the footprint order."""
        fractions, mode, loads, p, q = case
        k = len(fractions)
        perm = data.draw(st.permutations(range(k)).filter(lambda p: k == 1 or p != sorted(p)))
        relabeled = ([fractions[i] for i in perm], mode,
                     [loads[i] for i in perm] if mode == "separated" else loads, p, q)
        base, moved = (frf(model, topology, HarmonicForce(1.0, *pp), qq, grid)
                       for model, topology, grid, pp, qq in
                       (build_case(c, aluminum_plate, pzt_patch) for c in (case, relabeled)))
        assert np.array_equal(moved.displacement, base.displacement)
        assert np.array_equal(moved.voltages, base.voltages[:, perm])

    @settings(derandomize=True, deadline=None, max_examples=25, database=None)
    @given(case=shunted_layouts())
    def test_separated_coupling_dominates_connected(self, case, aluminum_plate, pzt_patch):
        """k2_sep >= k2_con >= 0 for every mode: by Cauchy-Schwarz, theta
        C^-1 theta^T dominates the connected rank-one term, which is
        positive semidefinite, and Weyl's inequality orders each open-circuit
        eigenvalue. Allowed: eigvalsh's rounding, n eps of the largest
        eigenvalue."""
        model = build_case(case, aluminum_plate, pzt_patch)[0]
        omega_sep, k2_sep = open_circuit_coupling(model, "separated")[:2]
        k2_con = open_circuit_coupling(model, "connected").k2
        rounding = model.n_modes * np.finfo(float).eps * omega_sep[-1]**2 / model.frequencies**2
        assert np.all(k2_sep >= k2_con - rounding)
        assert np.all(k2_con >= -rounding)  # an open node only stiffens


def assert_matches_state_space(model, topology, force, target, grid):
    """frf() agrees with the pole-residue FRF of the time-domain system at
    1e-10 norm-wise, displacement and voltages."""
    res = frf(model, topology, force, target, grid)
    disp, volts = state_space_frf(model, topology, force, target, grid,
                                  retained_mode_count(model, grid))
    assert np.linalg.norm(res.displacement - disp) <= 1e-10 * np.linalg.norm(disp)
    assert np.linalg.norm(res.voltages - volts) <= 1e-10 * np.linalg.norm(volts)


class TestStateSpaceOracle:
    """The block kernel against x = [q, q', v, i] solved through its poles."""

    @pytest.mark.parametrize("topology", [
        ShuntTopology.separated([ImpedanceLaw.resistor(r) for r in (3e3, 1.5e4, 8e4)]),
        ShuntTopology.connected(ImpedanceLaw.resistor(5e3)),
        ShuntTopology.separated([ImpedanceLaw.series_rl(120.0, 0.35),
                                 ImpedanceLaw.series_rl(50.0, 2.0), ImpedanceLaw.resistor(1e4)]),
        ShuntTopology.connected(ImpedanceLaw.series_rl(120.0, 0.35)),
    ], ids=["separated-R", "connected-R", "separated-RL", "connected-RL"])
    def test_reference(self, ref_model, ref_config, topology):
        assert_matches_state_space(ref_model, topology, ref_config.force, ref_config.target,
                                   ref_config.grid.frequencies())

    @settings(derandomize=True, deadline=None, max_examples=15, database=None)
    @given(case=shunted_layouts())
    def test_random_layouts(self, case, aluminum_plate, pzt_patch):
        model, topology, grid, p, q = build_case(case, aluminum_plate, pzt_patch)
        assert_matches_state_space(model, topology, HarmonicForce(1.0, *p), q, grid)


def window_peaks(objective, wiring, laws, band):
    """Refined peak |velocity| in ``band`` with every node loaded by each of
    ``laws`` in turn."""
    k = len(objective.model.patches)
    return objective.peaks_in_band([ShuntTopology.uniform(wiring, k, law) for law in laws],
                                   band)[0]


class TestOpenCircuitCoupling:
    def test_reference_table(self, ref_model):
        """The effective couplings of modes 1-3 on the reference, x 1e-4,
        to the printed digits: one number per mode behind the paper's
        separated-against-connected result."""
        for wiring, want in (("separated", (72.42, 203.72, 52.41)),
                             ("connected", (64.75, 3.547, 10.59))):
            k2 = open_circuit_coupling(ref_model, wiring).k2[:3]
            assert k2 * 1e4 == pytest.approx(want, rel=1e-3), wiring

    @pytest.mark.parametrize("wiring", ["separated", "connected"])
    def test_uniform_sweep_reaches_the_ceiling(self, ref_model, ref_config, wiring):
        """Where k2 >= 3e-3 (separated modes 1-3, connected mode 1), a
        uniform-R sweep of each mode's own window on the reference cuts the
        peak to within 1.5 points of the ceiling 1 - xi / (xi + k2 / 4)."""
        grid = ref_config.grid.frequencies()
        objective = VelocityObjective(ref_model, ref_config.force, ref_config.target, grid)
        theory = open_circuit_coupling(ref_model, wiring)
        laws = [ImpedanceLaw.resistor(float(r)) for r in SweepSpec().resistances()]
        checked = 0
        for r, band in enumerate(mode_windows(ref_model, 3, grid)):
            if theory.k2[r] < 3e-3:
                continue
            open_peak = window_peaks(objective, wiring, [ImpedanceLaw.open()], band)[0]
            reached = 100.0 * (1.0 - window_peaks(objective, wiring, laws, band).min() / open_peak)
            assert reached == pytest.approx(100.0 * theory.ceiling[r], abs=1.5), r + 1
            checked += 1
        assert checked == (3 if wiring == "separated" else 1)

    def test_swept_optimum_is_the_tuned_resistance(self, ref_config):
        """On single-patch models of the reference, where k2 >= 3e-3, the
        resistance that minimises the peak of the mode's own window lies
        within 10% of R_r = 1 / (C_free omega_oc). The sweep's steps are
        2.3% apart."""
        grid = ref_config.grid.frequencies()
        rs = SweepSpec(points=401).resistances()
        laws = [ImpedanceLaw.resistor(float(r)) for r in rs]
        checked = 0
        for patch in ref_config.patches:
            model = with_coupling(build_model(ref_config.plate, [patch], ref_config.basis))
            objective = VelocityObjective(model, ref_config.force, ref_config.target, grid)
            theory = open_circuit_coupling(model, "separated")
            for r, band in enumerate(mode_windows(model, 3, grid)):
                if theory.k2[r] >= 3e-3:
                    swept = rs[np.argmin(window_peaks(objective, "separated", laws, band))]
                    assert swept == pytest.approx(theory.r_opt[r, 0], rel=0.1), (patch, r + 1)
                    checked += 1
        assert checked == 5
