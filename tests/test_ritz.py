import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from platedamp import (AssemblyError, BasisSpec, PlateSpec, assemble_system,
                       build_model, ritz, solve_modes)

from oracles import assemble_system_cell_mesh, fd_plate_frequencies_hz


def tiny_moduli(patch):
    """Patch that carries mass but negligible stiffness and coupling."""
    return dataclasses.replace(patch, c11_bar=1e-6, c12_bar=0.0, c66_bar=1e-7,
                               e31_bar=0.0)


class TestAssembly:
    def test_matrices_symmetric(self, aluminum_plate, pzt_patch):
        M, K = assemble_system(aluminum_plate, [pzt_patch], BasisSpec(6, 6, 10))
        assert np.array_equal(M, M.T)
        assert np.array_equal(K, K.T)

    def test_rayleigh_quotient_upper_bounds_fundamental(self, aluminum_plate):
        M1, K1 = assemble_system(aluminum_plate, [], BasisSpec(1, 1, 10))
        single = np.sqrt(K1[0, 0] / M1[0, 0])
        converged = build_model(aluminum_plate, [], BasisSpec(8, 8, 10)).frequencies[0]
        assert single >= converged

    def test_square_bare_plate_matches_finite_differences(self):
        """Nondimensional fundamental of a square clamped plate."""
        plate = PlateSpec(0.56, 0.56, 0.0019, 70e9, 0.33, 2700.0)
        model = build_model(plate, [], BasisSpec(8, 8, 10))
        fd = fd_plate_frequencies_hz(0.56, 0.56, 0.0019, 70e9, 0.33, 2700.0,
                                     n_modes=1, nx=150, ny=150)
        assert model.frequencies_hz[0] == pytest.approx(fd[0], rel=5e-3)

    def test_quadrature_order_is_converged(self, aluminum_plate, pzt_patch):
        M1, K1 = assemble_system(aluminum_plate, [pzt_patch], BasisSpec(8, 8, 10))
        M2, K2 = assemble_system(aluminum_plate, [pzt_patch], BasisSpec(8, 8, 20))
        scale_m = np.max(np.abs(M1))
        scale_k = np.max(np.abs(K1))
        assert np.max(np.abs(M1 - M2)) < 1e-10 * scale_m
        assert np.max(np.abs(K1 - K2)) < 1e-10 * scale_k

    def test_patch_order_does_not_matter(self, ref_config):
        spec = BasisSpec(6, 6, 10)
        M1, K1 = assemble_system(ref_config.plate, ref_config.patches, spec)
        M2, K2 = assemble_system(ref_config.plate, ref_config.patches[::-1], spec)
        assert np.array_equal(M1, M2)
        assert np.array_equal(K1, K2)


def assert_matches_cell_mesh(plate, patches, spec):
    """M and K agree with the cell-mesh oracle to 1e-12 of the largest entry."""
    M, K = assemble_system(plate, patches, spec)
    Mo, Ko = assemble_system_cell_mesh(plate, patches, spec)
    assert np.max(np.abs(M - Mo)) <= 1e-12 * np.max(np.abs(Mo))
    assert np.max(np.abs(K - Ko)) <= 1e-12 * np.max(np.abs(Ko))


def patch_array(plate, material):
    """Twelve 60 mm patches, each jittered by up to 20 mm inside its cell of a 4x3 layout."""
    rng = np.random.default_rng(0)
    half = 0.03
    out = []
    for j in range(3):
        for i in range(4):
            cx, cy = rng.uniform(-0.02, 0.02, 2) + ((i + 0.5) * plate.length_a / 4,
                                                   (j + 0.5) * plate.width_b / 3)
            out.append(dataclasses.replace(material, x1=cx - half, x2=cx + half,
                                           y1=cy - half, y2=cy + half))
    return out


class TestAssemblyOracle:
    def test_reference_scenario(self, ref_config):
        assert_matches_cell_mesh(ref_config.plate, ref_config.patches, ref_config.basis)

    def test_twelve_patch_array(self, ref_config):
        patches = patch_array(ref_config.plate, ref_config.patches[0])
        assert_matches_cell_mesh(ref_config.plate, patches, BasisSpec(12, 12, 10))

    def test_reference_patches_at_20x20(self, ref_config):
        spec = BasisSpec(20, 20, ref_config.basis.quadrature_order)
        assert_matches_cell_mesh(ref_config.plate, ref_config.patches, spec)


GRID_CELLS = 3  # candidate footprint cells per axis; one patch per cell at most


@st.composite
def layouts(draw):
    """0-5 patches, each inside its own cell of a GRID_CELLS^2 grid, plus a permutation."""
    cells = draw(st.lists(st.integers(0, GRID_CELLS**2 - 1), max_size=5, unique=True))
    frac = st.floats(0.0, 0.45)
    patches = []
    for c in cells:
        ci, cj = divmod(c, GRID_CELLS)
        x0, x1, y0, y1 = (draw(frac) for _ in range(4))
        patches.append(((ci + x0) / GRID_CELLS, (ci + 1 - x1) / GRID_CELLS,
                        (cj + y0) / GRID_CELLS, (cj + 1 - y1) / GRID_CELLS,
                        draw(st.floats(1e-4, 1e-3))))
    order = draw(st.permutations(range(len(patches))))
    spec = BasisSpec(draw(st.integers(3, 8)), draw(st.integers(3, 8)), 10)
    return patches, order, spec


class TestAssemblyProperties:
    @settings(derandomize=True, deadline=None, max_examples=25, database=None)
    @given(layout=layouts())
    def test_random_layouts(self, layout, aluminum_plate, pzt_patch):
        fractions, order, spec = layout
        a, b = aluminum_plate.length_a, aluminum_plate.width_b
        patches = [dataclasses.replace(pzt_patch, x1=fx1 * a, x2=fx2 * a,
                                       y1=fy1 * b, y2=fy2 * b, thickness_hp=hp)
                   for fx1, fx2, fy1, fy2, hp in fractions]
        assert_matches_cell_mesh(aluminum_plate, patches, spec)
        M, K = assemble_system(aluminum_plate, patches, spec)
        Mp, Kp = assemble_system(aluminum_plate, [patches[i] for i in order], spec)
        assert np.array_equal(M, Mp)
        assert np.array_equal(K, Kp)
        np.linalg.cholesky(M)


class TestModes:
    def test_mass_normalization(self, aluminum_plate, pzt_patch):
        spec = BasisSpec(8, 8, 10)
        M, K = assemble_system(aluminum_plate, [pzt_patch], spec)
        model = solve_modes(M, K, 0.01, plate=aluminum_plate,
                            patches=[pzt_patch], spec=spec)
        U = model.mode_coeffs
        assert np.max(np.abs(U.T @ M @ U - np.eye(U.shape[1]))) < 1e-10
        scale = model.frequencies[-1] ** 2
        assert np.max(np.abs(U.T @ K @ U - np.diag(model.frequencies**2))) < 1e-8 * scale

    def test_frequencies_ascending(self, ref_model):
        assert np.all(np.diff(ref_model.frequencies) >= 0.0)

    def test_uniform_damping_attached(self, ref_model, ref_config):
        assert np.all(ref_model.damping_ratios == ref_config.plate.modal_damping_xi)

    def test_added_mass_lowers_every_frequency(self, aluminum_plate, pzt_patch):
        spec = BasisSpec(8, 8, 10)
        bare = build_model(aluminum_plate, [], spec)
        loaded = build_model(aluminum_plate, [tiny_moduli(pzt_patch)], spec)
        assert np.all(loaded.frequencies < bare.frequencies)

    def test_singular_mass_raises(self):
        M = np.zeros((3, 3))
        K = np.eye(3)
        with pytest.raises(AssemblyError):
            solve_modes(M, K, 0.0, plate=None, patches=[], spec=None)

    def test_nan_in_mass_raises(self):
        M = np.eye(3)
        M[1, 2] = M[2, 1] = np.nan
        with pytest.raises(AssemblyError, match="non-finite"):
            solve_modes(M, np.eye(3), 0.0, plate=None, patches=[], spec=None)

    def test_inf_in_stiffness_raises(self):
        K = np.eye(3)
        K[0, 0] = np.inf
        with pytest.raises(AssemblyError, match="non-finite"):
            solve_modes(np.eye(3), K, 0.0, plate=None, patches=[], spec=None)

    def test_build_model_guards_its_assembly(self, aluminum_plate, monkeypatch):
        """build_model assembles through assemble_system and solve_modes
        rejects what it returns."""
        def nan_mass(plate, patches, spec):
            M = np.eye(spec.n_dof)
            M[0, 1] = M[1, 0] = np.nan
            return M, np.eye(spec.n_dof)

        monkeypatch.setattr(ritz, "assemble_system", nan_mass)
        with pytest.raises(AssemblyError, match="non-finite"):
            build_model(aluminum_plate, [], BasisSpec(2, 2, 10))


@pytest.fixture(scope="module", params=[10, 30], ids=["10x10", "30x30"])
def ref_system(request, ref_config):
    """Reference plate and patches at an n x n basis: (M, K, model)."""
    spec = BasisSpec(request.param, request.param, ref_config.basis.quadrature_order)
    M, K = assemble_system(ref_config.plate, ref_config.patches, spec)
    model = solve_modes(M, K, 0.0, plate=ref_config.plate,
                        patches=ref_config.patches, spec=spec)
    return M, K, model


class TestEigensolve:
    def test_matches_scipy_generalized_eigh(self, ref_system):
        M, K, model = ref_system
        lam = model.frequencies**2
        expected = scipy.linalg.eigh(K, M, eigvals_only=True)
        assert np.max(np.abs(lam - expected) / expected) <= 1e-10
        V = model.mode_coeffs
        KV = K @ V
        assert np.linalg.norm(KV - M @ V * lam) <= 1e-13 * np.linalg.norm(KV)

    def test_mass_orthonormal_with_pinned_signs(self, ref_system):
        M, _, model = ref_system
        V = model.mode_coeffs
        assert np.max(np.abs(V.T @ M @ V - np.eye(V.shape[1]))) <= 1e-13
        lead = np.argmax(np.abs(V), axis=0)
        assert np.all(V[lead, np.arange(V.shape[1])] > 0.0)


class TestConvergence:
    def test_first_six_frequencies_converged_at_10x10(self, aluminum_plate):
        f8 = build_model(aluminum_plate, [], BasisSpec(8, 8, 10)).frequencies[:6]
        f10 = build_model(aluminum_plate, [], BasisSpec(10, 10, 10)).frequencies[:6]
        assert np.all(np.abs(f8 - f10) / f10 < 1e-3)

    def test_nested_basis_upper_bound_property(self, aluminum_plate, pzt_patch):
        small = build_model(aluminum_plate, [pzt_patch], BasisSpec(6, 6, 10))
        large = build_model(aluminum_plate, [pzt_patch], BasisSpec(8, 8, 10))
        n = small.n_modes
        assert np.all(large.frequencies[:n] <= small.frequencies[:n] * (1 + 1e-12))

    def test_thin_patch_limit_recovers_bare_plate(self, aluminum_plate, pzt_patch):
        spec = BasisSpec(8, 8, 10)
        bare = build_model(aluminum_plate, [], spec).frequencies[:6]
        gaps = []
        for hp in (1e-4, 1e-6, 1e-8):
            thin = dataclasses.replace(pzt_patch, thickness_hp=hp)
            f = build_model(aluminum_plate, [thin], spec).frequencies[:6]
            gaps.append(np.max(np.abs(f - bare) / bare))
        assert gaps[0] < 1e-2
        assert gaps[1] < gaps[0]
        assert gaps[2] < 1e-6
