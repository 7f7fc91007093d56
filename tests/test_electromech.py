import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import platedamp
from platedamp import (BasisSpec, DomainError, PatchSpec, build_model,
                       coupling_matrix, neutral_axis_offset, patch_capacitance,
                       with_coupling)
from platedamp import basis

from oracles import coupling_matrix_quadrature
from test_tuning import bench_case


def coupling_of(model, patch):
    """Per-mode coupling of one footprint on ``model``'s modes: the one
    column of the model with only that patch."""
    return coupling_matrix(dataclasses.replace(model, patches=(patch,)))[:, 0]


class TestCapacitance:
    def test_reference_patch_value(self, pzt_patch):
        """Frozen regression constant: eps * area / thickness for the
        72.4 mm square, 0.267 mm thick patch at 9.57 nF/m."""
        assert patch_capacitance(pzt_patch) == pytest.approx(
            1.8787881348314613e-07, rel=1e-14)

    def test_doubling_thickness_halves_capacitance(self, pzt_patch):
        thick = dataclasses.replace(pzt_patch,
                                    thickness_hp=2 * pzt_patch.thickness_hp)
        assert patch_capacitance(thick) == pytest.approx(
            patch_capacitance(pzt_patch) / 2, rel=1e-14)

    def test_zero_area_gives_zero(self, pzt_patch):
        degenerate = SimpleNamespace(eps33_s=pzt_patch.eps33_s, area=0.0,
                                     thickness_hp=pzt_patch.thickness_hp)
        assert patch_capacitance(degenerate) == 0.0

    def test_scales_linearly_with_area(self, pzt_patch):
        half = dataclasses.replace(
            pzt_patch, x2=pzt_patch.x1 + (pzt_patch.x2 - pzt_patch.x1) / 2)
        assert patch_capacitance(half) == pytest.approx(
            patch_capacitance(pzt_patch) / 2, rel=1e-14)


class TestCoupling:
    def test_zero_piezoelectric_constant_kills_coupling(self, aluminum_plate, pzt_patch):
        inert = dataclasses.replace(pzt_patch, e31_bar=0.0)
        model = build_model(aluminum_plate, [inert], BasisSpec(6, 6, 10))
        theta = coupling_of(model, inert)
        assert np.all(theta == 0.0)

    def test_linear_in_piezoelectric_constant(self, aluminum_plate, pzt_patch):
        model = build_model(aluminum_plate, [pzt_patch], BasisSpec(6, 6, 10))
        flipped = dataclasses.replace(pzt_patch, e31_bar=-pzt_patch.e31_bar)
        assert np.allclose(coupling_of(model, flipped),
                           -coupling_of(model, pzt_patch), rtol=0, atol=0)

    def test_centered_patch_blind_to_antisymmetric_modes(self, aluminum_plate):
        """Modes with one nodal line through the patch center integrate
        to zero over its footprint."""
        a, b = aluminum_plate.length_a, aluminum_plate.width_b
        s = 0.0724
        centered = PatchSpec(76335877862.59541, 23664122137.40458,
                             26335877862.595417, -19.0, 9.57e-9, 7800.0, 2.67e-4,
                             a / 2 - s / 2, a / 2 + s / 2, b / 2 - s / 2, b / 2 + s / 2)
        model = build_model(aluminum_plate, [centered], BasisSpec(8, 8, 10))
        theta = coupling_of(model, centered)
        # modes 2 and 3 are the one-nodal-line pair; mode 1 sets the scale
        assert abs(theta[1]) < 1e-12 * abs(theta[0])
        assert abs(theta[2]) < 1e-12 * abs(theta[0])

    def test_small_patch_midpoint_approximation(self, aluminum_plate):
        """A patch covering 1 percent of the plate sees an almost uniform
        mode-shape Laplacian, so theta is close to the midpoint value."""
        a, b = aluminum_plate.length_a, aluminum_plate.width_b
        side = np.sqrt(0.01 * a * b)
        xc, yc = a / 2, b / 2
        small = PatchSpec(76335877862.59541, 23664122137.40458,
                          26335877862.595417, -19.0, 9.57e-9, 7800.0, 2.67e-4,
                          xc - side / 2, xc + side / 2, yc - side / 2, yc + side / 2)
        model = build_model(aluminum_plate, [small], BasisSpec(8, 8, 10))
        theta1 = coupling_of(model, small)[0]

        bx0 = basis.eval_matrix(8, a, [xc], 0)[0]
        bx2 = basis.eval_matrix(8, a, [xc], 2)[0]
        by0 = basis.eval_matrix(8, b, [yc], 0)[0]
        by2 = basis.eval_matrix(8, b, [yc], 2)[0]
        lap_center = (np.outer(bx2, by0) + np.outer(bx0, by2)).reshape(-1) @ model.mode_coeffs[:, 0]
        lever = (small.thickness_hp + aluminum_plate.thickness_hs) / 2 - neutral_axis_offset(
            aluminum_plate, small)
        midpoint = -small.e31_bar * lever * lap_center * small.area
        assert theta1 == pytest.approx(midpoint, rel=2e-2)

    def test_closed_form_matches_quadrature(self, ref_model):
        closed = coupling_matrix(ref_model)
        quadrature = coupling_matrix_quadrature(ref_model, order=30)
        scale = np.max(np.abs(closed))
        assert np.max(np.abs(closed - quadrature)) < 1e-10 * scale

    def test_columns_equal_single_patch_couplings(self, monkeypatch):
        """On the benchmark's seed-0 array_descent model (12 patches), each
        column of the one pass equals, bit for bit, the coupling of a model
        with only that patch."""
        model = bench_case("array_descent", 0, monkeypatch)[1]
        theta = coupling_matrix(model)
        assert theta.shape == (model.n_modes, 12)
        for j, patch in enumerate(model.patches):
            assert np.array_equal(theta[:, j], coupling_of(model, patch))

    def test_model_without_patches(self, bare_model_10):
        theta = coupling_matrix(bare_model_10)
        assert theta.shape == (bare_model_10.n_modes, 0)

    def test_patch_renumbering_permutes_columns(self, ref_config):
        spec = BasisSpec(6, 6, 10)
        fwd = with_coupling(build_model(ref_config.plate, ref_config.patches, spec))
        rev = with_coupling(build_model(ref_config.plate, ref_config.patches[::-1], spec))
        assert np.array_equal(fwd.coupling, rev.coupling[:, ::-1])
        assert np.array_equal(fwd.capacitances, rev.capacitances[::-1])

    def test_zero_thickness_patch_rejected(self, ref_config):
        patches = list(ref_config.patches)
        patches[1] = dataclasses.replace(patches[1], thickness_hp=0.0)
        model = build_model(ref_config.plate, patches, BasisSpec(4, 4, 10))
        with pytest.raises(DomainError, match="patch 1"):
            with_coupling(model)

    def test_with_coupling_populates_fields(self, ref_model):
        assert ref_model.coupling is not None
        assert ref_model.coupling.shape == (ref_model.n_modes, 3)
        assert np.all(np.isfinite(ref_model.coupling))
        assert np.all(ref_model.capacitances > 0.0)


def test_every_public_name_resolves():
    for name in platedamp.__all__:
        assert hasattr(platedamp, name), name
