import dataclasses
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from platedamp import (AssemblyError, BasisSpec, DomainError, PlateSpec,
                       assemble_system, build_model, ritz)

from oracles import assemble_system_cell_mesh, fd_plate_frequencies_hz


def tiny_moduli(patch):
    """Patch that carries mass but negligible stiffness and coupling."""
    return dataclasses.replace(patch, c11_bar=1e-6, c12_bar=0.0, c66_bar=1e-7,
                               e31_bar=0.0)


class TestGaussRule:
    def test_exact_for_monomials_and_matches_leggauss(self):
        """Orders 2-64 integrate x^d over [-1, 1] for every d <= 2n - 1 and
        agree with numpy's ``leggauss``."""
        for order in range(2, 65):
            nodes, weights = ritz._gauss(order)
            for degree in range(2 * order):
                exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
                assert abs(weights @ nodes**degree - exact) <= 1e-14, (order, degree)
            want_nodes, want_weights = leggauss(order)
            assert np.max(np.abs(nodes - want_nodes)) <= 1e-11
            assert np.max(np.abs(weights - want_weights)) <= 1e-11

    def test_build_does_not_import_numpy_polynomial(self):
        script = ("import sys\n"
                  "from platedamp import build_model, reference_config\n"
                  "config = reference_config()\n"
                  "build_model(config.plate, config.patches, config.basis)\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[:2]"
                  " == ['numpy', 'polynomial']))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]"]


class TestAssembly:
    def test_matrices_symmetric(self, aluminum_plate, pzt_patch):
        M, K = assemble_system(aluminum_plate, [pzt_patch], BasisSpec(6, 6, 10))
        assert np.array_equal(M, M.T)
        assert np.array_equal(K, K.T)

    @pytest.mark.parametrize("side", [18, 30])
    def test_symmetric_across_row_blocks(self, aluminum_plate, pzt_patch, side):
        """Exactly symmetric across the 128-row blocks in which the assembly
        symmetrizes (324 and 900 DOF)."""
        M, K = assemble_system(aluminum_plate, [pzt_patch], BasisSpec(side, side, 10))
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

    @pytest.mark.parametrize("counts", [(0, 4, 10), (4, float("nan"), 10), (4, 4, 1),
                                        (4, 4, float("nan"))])
    def test_basis_spec_rejects_small_or_nan_counts(self, counts):
        with pytest.raises(DomainError, match="basis"):
            BasisSpec(*counts)

    @pytest.mark.parametrize("counts", [(4, 4, float("inf")), (4, 4, 2.5), (4.0, 4, 10),
                                        (4, float("-inf"), 10), (True, 4, 10), (4, 4, True)])
    def test_basis_spec_rejects_non_integer_counts(self, counts):
        """Refused before a build can die in the Gauss rule (inf) or round the
        order down (2.5)."""
        with pytest.raises(DomainError, match="must be an integer"):
            BasisSpec(*counts)

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
        model = ritz._solve([M.copy(), K.copy()], 0.01, plate=aluminum_plate,
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
            ritz._solve([M, K], 0.0, plate=None, patches=[], spec=None)

    def test_nan_in_mass_raises(self):
        M = np.eye(3)
        M[1, 2] = M[2, 1] = np.nan
        with pytest.raises(AssemblyError, match="non-finite"):
            ritz._solve([M, np.eye(3)], 0.0, plate=None, patches=[], spec=None)

    def test_inf_in_stiffness_raises(self):
        K = np.eye(3)
        K[0, 0] = np.inf
        with pytest.raises(AssemblyError, match="non-finite"):
            ritz._solve([np.eye(3), K], 0.0, plate=None, patches=[], spec=None)

    def test_build_model_guards_its_assembly(self, aluminum_plate, monkeypatch):
        """build_model assembles through assemble_system and its solve
        rejects what it returns."""
        def nan_mass(plate, patches, spec):
            M = np.eye(spec.n_dof)
            M[0, 1] = M[1, 0] = np.nan
            return M, np.eye(spec.n_dof)

        monkeypatch.setattr(ritz, "assemble_system", nan_mass)
        with pytest.raises(AssemblyError, match="non-finite"):
            build_model(aluminum_plate, [], BasisSpec(2, 2, 10))

    def test_mode_shapes_reject_a_nan_point(self, ref_model):
        with pytest.raises(ValueError, match="outside"):
            ref_model.mode_shapes_at(np.nan, 0.2)


@pytest.fixture(scope="module", params=[10, 18, 30], ids=["10x10", "18x18", "30x30"])
def ref_system(request, ref_config):
    """Reference plate and patches at an n x n basis: (M, K, model)."""
    spec = BasisSpec(request.param, request.param, ref_config.basis.quadrature_order)
    M, K = assemble_system(ref_config.plate, ref_config.patches, spec)
    model = ritz._solve([M.copy(), K.copy()], 0.0, plate=ref_config.plate,
                        patches=ref_config.patches, spec=spec)
    return M, K, model


class TestEigensolve:
    def test_matches_scipy_generalized_eigh(self, ref_system):
        M, K, model = ref_system
        lam = model.frequencies**2
        expected = scipy.linalg.eigh(K, M, eigvals_only=True)
        assert np.max(np.abs(lam - expected) / expected) <= 1e-11
        V = model.mode_coeffs
        KV = K @ V
        assert np.linalg.norm(KV - M @ V * lam) <= 1e-13 * np.linalg.norm(KV)

    def test_mass_orthonormal_with_pinned_signs(self, ref_system):
        M, _, model = ref_system
        V = model.mode_coeffs
        assert np.max(np.abs(V.T @ M @ V - np.eye(V.shape[1]))) <= 1e-13
        lead = np.argmax(np.abs(V), axis=0)
        assert np.all(V[lead, np.arange(V.shape[1])] > 0.0)


def allocating_add_product(out, A, B, op=np.add):
    """op(out, A @ B) as a new array, in the row blocks of ``ritz._add_product``."""
    step = max(ritz._BASE, out.shape[0] // 2)
    return np.vstack([op(out[i:i + step], A[i:i + step] @ B)
                      for i in range(0, out.shape[0], step)])


def allocating_lower_product(out, A, B, op):
    """``ritz._lower_product`` with a new output at every level: op(out, A @ B.T)
    on and below the diagonal, out above it."""
    n = out.shape[0]
    if n <= ritz._BASE:
        return np.where(np.tri(n, dtype=bool), op(out, A @ B.T), out)
    h = n // 2
    return np.block([[allocating_lower_product(out[:h, :h], A[:h], B[:h], op), out[:h, h:]],
                     [allocating_add_product(out[h:, :h], A[h:], B[:h].T, op),
                      allocating_lower_product(out[h:, h:], A[h:], B[h:], op)]])


def allocating_trmm(T, B, lower):
    """``ritz._trmm`` with a new output at every level: tril(T) @ B or triu(T) @ B."""
    n = T.shape[0]
    if n <= ritz._BASE:
        return (np.tril(T) if lower else np.triu(T)) @ B
    h = n // 2
    top = allocating_trmm(T[:h, :h], B[:h], lower)
    bottom = allocating_trmm(T[h:, h:], B[h:], lower)
    if lower:
        bottom = allocating_add_product(bottom, T[h:, :h], B[:h])
    else:
        top = allocating_add_product(top, T[:h, h:], B[h:])
    return np.vstack([top, bottom])


def allocating_inverse_cholesky(A):
    """``ritz._inverse_cholesky`` with new blocks at every level: L^-1 of
    A = L L^T, from A's lower triangle."""
    n = A.shape[0]
    if n <= ritz._BASE:
        return np.tril(np.linalg.inv(np.linalg.cholesky(A)))
    h = n // 2
    Li11 = allocating_inverse_cholesky(A[:h, :h])
    # row-major, like the block of A that stands for it: numpy's products round by
    # the operands' layout (A @ A.T goes to syrk)
    L21 = np.ascontiguousarray(allocating_trmm(Li11, A[h:, :h].T, True).T)
    Li22 = allocating_inverse_cholesky(allocating_lower_product(A[h:, h:], L21, L21,
                                                                np.subtract))
    Li21 = -allocating_trmm(Li22, np.ascontiguousarray(allocating_trmm(Li11.T, L21.T, False).T),
                            True)
    return np.block([[Li11, np.zeros((h, n - h))], [Li21, Li22]])


def allocating_congruence(X, T):
    """``ritz._congruence`` with new blocks at every level: X @ T.T on and
    below the diagonal, T's strict lower triangle, transposed, above it."""
    n = X.shape[0]
    if n <= ritz._BASE:
        return np.where(np.tri(n, dtype=bool), X @ T.T, T.T)
    h = n // 2
    X22 = allocating_lower_product(allocating_congruence(X[h:, h:], T[h:, h:]),
                                   X[h:, :h], T[h:, :h], np.add)
    X21 = allocating_trmm(T[:h, :h], X[h:, :h].T, True).T
    return np.block([[allocating_congruence(X[:h, :h], T[:h, :h]), T[h:, :h].T], [X21, X22]])


def unpacked_solve(M, K):
    """The eigensolve with new arrays for L^-1, L^-1 K and C, and C made
    symmetric for ``eigh``: the reference for ``ritz._solve``, which works in
    the storage of M and K and parks L^-T in C's upper triangle. Returns
    (frequencies, mode coefficients)."""
    with ritz._one_blas_thread(M.shape[0]):
        Li = allocating_inverse_cholesky(M)
        C = np.tril(allocating_congruence(allocating_trmm(Li, K, True), Li))
        evals, W = np.linalg.eigh(C + np.tril(C, -1).T)
        vecs = allocating_trmm(np.ascontiguousarray(Li.T), W, False)  # C's layout
    cols = np.arange(vecs.shape[1])
    lead = vecs[np.argmax(np.abs(vecs), axis=0), cols]
    return np.sqrt(np.clip(evals, 0.0, None)), vecs * np.where(lead < 0.0, -1.0, 1.0)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def traced_build_peak(ref_config, spec):
    """Peak traced numpy memory of ``build_model`` at ``spec``, in n x n arrays
    of doubles."""
    n = spec.n_dof
    args = (ref_config.plate, ref_config.patches, spec)
    build_model(*args)  # caches filled outside the trace
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        build_model(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak / (n * n * 8)


@pytest.fixture(scope="module")
def system_18(ref_config):
    """Reference plate and patches at 18x18 (324 DOF, below the one-thread
    cutoff, where the factor inverse recurses three levels)."""
    spec = BasisSpec(18, 18, ref_config.basis.quadrature_order)
    return spec, assemble_system(ref_config.plate, ref_config.patches, spec)


class TestLeanBuild:
    """The build frees each n x n array once consumed and copies none it
    does not need, with the arithmetic of the allocating build."""

    def test_traced_peak_of_the_build(self, ref_config, system_18):
        """The solve stays near 2.4 n^2 doubles, under the assembly's peak
        (M, K and the permuted copy of its Kronecker product)."""
        spec = system_18[0]
        assert ritz._BASE < spec.n_dof <= ritz._ONE_THREAD_MAX_DOF
        assert traced_build_peak(ref_config, spec) <= 3.20

    def test_traced_peak_of_the_build_at_30x30(self, ref_config):
        """The same above the one-thread cutoff, on the default threads."""
        spec = BasisSpec(30, 30, ref_config.basis.quadrature_order)
        assert spec.n_dof > ritz._ONE_THREAD_MAX_DOF
        assert traced_build_peak(ref_config, spec) <= 3.10

    def test_only_c_is_alive_when_eigh_starts(self, ref_config, system_18, monkeypatch):
        """L^-1 waits in C's unread upper triangle, so the build holds one
        n x n array, and a few vectors, when eigh is called."""
        spec = system_18[0]
        n = spec.n_dof
        args = (ref_config.plate, ref_config.patches, spec)
        build_model(*args)  # caches filled outside the trace
        eigh, live = np.linalg.eigh, []

        def traced_eigh(C):
            live.append(tracemalloc.get_traced_memory()[0])
            return eigh(C)

        monkeypatch.setattr(np.linalg, "eigh", traced_eigh)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build_model(*args)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(live) == 1
        assert live[0] - base <= 1.05 * n * n * 8

    @pytest.mark.parametrize("side", [5, 10, 18])
    def test_packed_solve_matches_the_unpacked_one(self, ref_config, side):
        spec = BasisSpec(side, side, ref_config.basis.quadrature_order)
        M, K = assemble_system(ref_config.plate, ref_config.patches, spec)
        model = ritz._solve([M.copy(), K.copy()], 0.0, plate=ref_config.plate,
                            patches=ref_config.patches, spec=spec)
        omega, vecs = unpacked_solve(M, K)
        assert same_bits(model.frequencies, omega)
        assert same_bits(model.mode_coeffs, vecs)

    @pytest.mark.parametrize("n", [100, 324])
    @pytest.mark.parametrize("garbage", ["random", "nan"])
    def test_eigh_ignores_the_strict_upper_triangle(self, n, garbage):
        """The one numpy behaviour the packing rests on: eigh (UPLO='L')
        gives the same bits whatever the strict upper triangle holds."""
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        A += A.T
        packed = A.copy()
        upper = np.triu_indices(n, 1)
        packed[upper] = np.nan if garbage == "nan" else 1e3 * rng.standard_normal(upper[0].size)
        for want, got in zip(np.linalg.eigh(A), np.linalg.eigh(packed)):
            assert same_bits(want, got)

    def test_build_equals_assemble_then_solve(self, ref_config, system_18):
        spec, (M, K) = system_18
        args = (ref_config.plate, ref_config.patches, spec)
        built = build_model(*args)
        solved = ritz._solve([M.copy(), K.copy()], ref_config.plate.modal_damping_xi,
                             plate=ref_config.plate, patches=ref_config.patches, spec=spec)
        assert same_bits(built.frequencies, solved.frequencies)
        assert same_bits(built.mode_coeffs, solved.mode_coeffs)
        M2, K2 = assemble_system(*args)
        assert same_bits(M2, M) and same_bits(K2, K)

    @pytest.mark.parametrize("n", [64, 100, 324, 900])
    def test_inverse_cholesky_matches_the_allocating_recursion(self, n):
        """Bit for bit, and without reading above the diagonal."""
        rng = np.random.default_rng(n)
        G = rng.standard_normal((n, n))
        A = G @ G.T / n + np.eye(n)
        Li = A.copy()
        Li[np.triu_indices(n, 1)] = np.nan
        ritz._inverse_cholesky(Li)
        assert same_bits(Li, allocating_inverse_cholesky(A))

    @pytest.mark.parametrize("n", [64, 100, 324, 900])
    @pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
    def test_trmm_matches_the_allocating_recursion(self, n, lower):
        rng = np.random.default_rng(n)
        T, B = rng.standard_normal((n, n)), rng.standard_normal((n, n + 3))
        out = B.copy()
        ritz._trmm(T, out, lower)
        assert same_bits(out, allocating_trmm(T, B, lower))
        assert np.allclose(out, (np.tril(T) if lower else np.triu(T)) @ B, rtol=0.0,
                           atol=1e-12 * n)

    @pytest.mark.parametrize("n", [64, 100, 324, 900])
    @pytest.mark.parametrize("op", [np.add, np.subtract], ids=["add", "subtract"])
    def test_lower_product_matches_the_allocating_recursion(self, n, op):
        rng = np.random.default_rng(n)
        out, A, B = (rng.standard_normal(shape) for shape in ((n, n), (n, 40), (n, 40)))
        got = out.copy()
        ritz._lower_product(got, A, B, op)
        assert same_bits(got, allocating_lower_product(out, A, B, op))
        assert same_bits(np.triu(got, 1), np.triu(out, 1))

    @pytest.mark.parametrize("n", [64, 100, 324, 900])
    def test_congruence_matches_the_allocating_recursion(self, n):
        rng = np.random.default_rng(n)
        X, T = rng.standard_normal((n, n)), np.tril(rng.standard_normal((n, n)))
        got = X.copy()
        ritz._congruence(got, T)
        assert same_bits(got, allocating_congruence(X, T))
        assert same_bits(np.triu(got, 1), np.triu(T.T, 1))
        other = X.copy()  # another strict upper triangle of X
        other[np.triu_indices(n, 1)] = 1e3 * rng.standard_normal(n * (n - 1) // 2)
        ritz._congruence(other, T)
        assert same_bits(other, got)

    def test_signs_pinned_on_ties(self, monkeypatch):
        """The first largest-magnitude coefficient of every column comes out
        positive, also where the largest magnitude appears with both signs."""
        W = np.array([[0.5, -0.5, 0.1, 0.3, -0.25],
                      [-0.5, 0.5, -0.6, -0.2, 0.25],
                      [0.25, 0.25, 0.6, 0.1, 0.25],
                      [0.0, 0.0, 0.0, 0.0, -0.25]])
        ties = np.random.default_rng(2).integers(-3, 4, (4, 200)).astype(float)
        W = np.hstack([W, ties[:, np.abs(ties).max(axis=0) > 0]])
        monkeypatch.setattr(np.linalg, "eigh", lambda C: (np.arange(W.shape[1], dtype=float),
                                                          W.copy()))
        n = W.shape[0]
        model = ritz._solve([np.eye(n), np.eye(n)], 0.0, plate=None, patches=[], spec=None)
        cols = np.arange(W.shape[1])
        lead = W[np.argmax(np.abs(W), axis=0), cols]  # the rule as an |W| scan
        assert same_bits(model.mode_coeffs, W * np.where(lead < 0.0, -1.0, 1.0))
        assert np.array_equal(model.mode_coeffs[:, :5],
                              [[0.5, 0.5, -0.1, 0.3, 0.25], [-0.5, -0.5, 0.6, -0.2, -0.25],
                               [0.25, -0.25, -0.6, 0.1, -0.25], [0.0, 0.0, 0.0, 0.0, 0.25]])


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


@pytest.fixture()
def two_blas_threads():
    """Every OpenBLAS in the process set to two threads for the test, then
    back to its own count; skipped where numpy runs on another BLAS."""
    libs = ritz._openblas()
    if not libs:
        pytest.skip("no OpenBLAS mapped into this process")
    before = [get() for get, _ in libs]
    for _, set_ in libs:
        set_(2)
    yield lambda: [get() for get, _ in libs]
    for (_, set_), count in zip(libs, before):
        set_(count)


def spy_on(monkeypatch, name, threads):
    """Replace np.linalg.<name> by a wrapper that records the OpenBLAS
    thread counts at each call."""
    real = getattr(np.linalg, name)
    seen = []

    def spy(*args, **kwargs):
        seen.append(threads())
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return seen


class TestOneBlasThread:
    """Models of at most ritz._ONE_THREAD_MAX_DOF DOF are built on one
    OpenBLAS thread, and the caller's thread count comes back afterwards."""

    def test_small_eigensolve_runs_on_one_thread_and_restores(self, ref_config,
                                                              two_blas_threads, monkeypatch):
        twos = two_blas_threads()
        M, K = assemble_system(ref_config.plate, ref_config.patches, ref_config.basis)
        seen = spy_on(monkeypatch, "eigh", two_blas_threads)
        ritz._solve([M, K], 0.01, plate=ref_config.plate, patches=ref_config.patches,
                    spec=ref_config.basis)
        assert seen == [[1] * len(twos)]
        assert two_blas_threads() == twos

    def test_count_restored_after_an_assembly_error(self, two_blas_threads, monkeypatch):
        twos = two_blas_threads()
        seen = spy_on(monkeypatch, "cholesky", two_blas_threads)
        with pytest.raises(AssemblyError, match="indefinite"):
            ritz._solve([-np.eye(10), np.eye(10)], 0.0, plate=None, patches=[], spec=None)
        assert seen == [[1] * len(twos)]
        assert two_blas_threads() == twos

    def test_count_restored_when_a_trailing_schur_complement_is_indefinite(
            self, two_blas_threads, monkeypatch):
        """M's leading block is the identity, so the factor's first half
        succeeds; I - B^T B, the Schur complement left for the second, is
        indefinite."""
        n = 200
        assert ritz._BASE < n <= ritz._ONE_THREAD_MAX_DOF
        h = n // 2
        B = np.random.default_rng(5).standard_normal((h, n - h))
        M = np.block([[np.eye(h), B], [B.T, np.eye(n - h)]])
        twos = two_blas_threads()
        seen = spy_on(monkeypatch, "cholesky", two_blas_threads)
        with pytest.raises(AssemblyError, match="indefinite"):
            ritz._solve([M, np.eye(n)], 0.0, plate=None, patches=[], spec=None)
        assert seen == [[1] * len(twos)] * 2
        assert two_blas_threads() == twos

    def test_large_model_keeps_its_threads(self, two_blas_threads, monkeypatch):
        n = 900
        assert n > ritz._ONE_THREAD_MAX_DOF
        twos = two_blas_threads()
        seen = spy_on(monkeypatch, "eigh", two_blas_threads)
        ritz._solve([np.eye(n), np.diag(np.arange(1.0, n + 1.0))], 0.0, plate=None,
                    patches=[], spec=None)
        assert seen == [twos]
        assert two_blas_threads() == twos

    def test_concurrent_builds_restore_the_count(self, two_blas_threads):
        """Threads entering and leaving the guard at once: each sees one
        thread inside, and the count comes back once the last one leaves."""
        twos = two_blas_threads()
        inside = []
        start = threading.Barrier(4)

        def enter_often():
            start.wait(timeout=30)
            for _ in range(1000):
                with ritz._one_blas_thread(100):
                    inside.append(two_blas_threads() == [1] * len(twos))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=enter_often) for _ in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(inside) == 4 * 1000 and all(inside)
        assert two_blas_threads() == twos

    def test_assembly_and_eigensolve_enter_the_guard(self, ref_config, monkeypatch):
        sizes = []
        guard = ritz._one_blas_thread

        def recording(n_dof):
            sizes.append(n_dof)
            return guard(n_dof)

        monkeypatch.setattr(ritz, "_one_blas_thread", recording)
        build_model(ref_config.plate, ref_config.patches, ref_config.basis)
        assert sizes == [ref_config.basis.n_dof] * 2

    def test_without_openblas_the_build_is_unchanged(self, ref_config, monkeypatch):
        args = (ref_config.plate, ref_config.patches, ref_config.basis)
        model = build_model(*args)
        monkeypatch.setattr(ritz, "_openblas", lambda: ())
        plain = build_model(*args)
        assert np.max(np.abs(plain.frequencies - model.frequencies)
                      / model.frequencies) <= 1e-12
        V = model.mode_coeffs
        assert np.linalg.norm(plain.mode_coeffs - V) <= 1e-12 * np.linalg.norm(V)
