import dataclasses

import numpy as np
import pytest

from platedamp import (BasisSpec, DomainError, PatchSpec, PlateSpec,
                       assemble_system, neutral_axis_offset, rigidities,
                       validate_layout)
from platedamp.plate import bare_rigidity

from oracles import layer_rigidity_by_quadrature, neutral_axis_by_stress_balance


class TestSpecValidation:
    def test_plate_rejects_nonpositive_dimensions(self):
        with pytest.raises(DomainError):
            PlateSpec(0.0, 0.58, 0.0019, 70e9, 0.33, 2700.0)

    def test_plate_rejects_poisson_out_of_range(self):
        with pytest.raises(DomainError):
            PlateSpec(0.54, 0.58, 0.0019, 70e9, 0.5, 2700.0)

    def test_plate_rejects_damping_out_of_range(self):
        with pytest.raises(DomainError):
            PlateSpec(0.54, 0.58, 0.0019, 70e9, 0.33, 2700.0, modal_damping_xi=1.0)

    def test_patch_rejects_inverted_footprint(self, pzt_patch):
        with pytest.raises(DomainError):
            dataclasses.replace(pzt_patch, x1=0.4, x2=0.3)
        with pytest.raises(DomainError, match="y1 < y2"):
            dataclasses.replace(pzt_patch, y1=0.4, y2=0.3)

    @pytest.mark.parametrize("hp", [-1e-4, float("nan")])
    def test_patch_rejects_negative_or_nan_thickness(self, pzt_patch, hp):
        with pytest.raises(DomainError, match="thickness_hp"):
            dataclasses.replace(pzt_patch, thickness_hp=hp)

    @pytest.mark.parametrize("e31", [float("nan"), float("inf"), float("-inf")])
    def test_patch_rejects_nonfinite_e31(self, pzt_patch, e31):
        with pytest.raises(DomainError, match="e31_bar"):
            dataclasses.replace(pzt_patch, e31_bar=e31)

    @pytest.mark.parametrize("field", ["c66_bar", "eps33_s", "density_rhop"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_patch_rejects_non_positive_material_constant(self, pzt_patch, field, value):
        with pytest.raises(DomainError, match=f"patch.{field} must be strictly positive"):
            dataclasses.replace(pzt_patch, **{field: value})

    def test_patch_rejects_c12_exceeding_c11(self, pzt_patch):
        with pytest.raises(DomainError):
            dataclasses.replace(pzt_patch, c12_bar=pzt_patch.c11_bar * 1.01)

    def test_layout_rejects_footprint_outside_plate(self, aluminum_plate, pzt_patch):
        bad = dataclasses.replace(pzt_patch, x2=0.541)
        with pytest.raises(DomainError, match="patch 1"):
            validate_layout(aluminum_plate, [pzt_patch, bad])

    def test_layout_rejects_overlap(self, aluminum_plate, pzt_patch):
        shifted = dataclasses.replace(pzt_patch, x1=pzt_patch.x1 + 0.01,
                                      x2=pzt_patch.x2 + 0.01)
        with pytest.raises(DomainError, match="overlap"):
            validate_layout(aluminum_plate, [pzt_patch, shifted])


class TestCoverage:
    def test_point_outside_plate_is_rejected(self, aluminum_plate):
        a, b = aluminum_plate.length_a, aluminum_plate.width_b
        assert aluminum_plate.contains(0.0, 0.0) and aluminum_plate.contains(a, b)
        assert not aluminum_plate.contains(0.6, 0.1)
        assert not aluminum_plate.contains(0.1, -1e-9)

    def test_coverage_partitions_reference_layout(self, ref_config):
        """With disjoint footprints every sampled point is covered by at
        most one patch."""
        plate, patches = ref_config.plate, ref_config.patches
        xs = [i * plate.length_a / 40 for i in range(41)]
        ys = [j * plate.width_b / 40 for j in range(41)]
        for x in xs:
            for y in ys:
                assert sum(p.x1 <= x < p.x2 and p.y1 <= y < p.y2 for p in patches) in (0, 1)


class TestEffectiveMass:
    """Mass per unit area as the assembly sees it: with the Gram identity
    X = L * I over a full axis, M / (a b) is the density times I."""

    SPEC = BasisSpec(6, 6, 10)

    @staticmethod
    def whole_plate(plate, patch, **overrides):
        return dataclasses.replace(patch, x1=0.0, x2=plate.length_a, y1=0.0,
                                   y2=plate.width_b, **overrides)

    def test_bare_region_value(self, aluminum_plate):
        # 2700 kg/m^3 * 1.9 mm
        M, _ = assemble_system(aluminum_plate, [], self.SPEC)
        area = aluminum_plate.length_a * aluminum_plate.width_b
        assert np.max(np.abs(M / area - 5.13 * np.eye(36))) <= 1e-13 * 5.13

    def test_patch_region_value(self, aluminum_plate, pzt_patch):
        # previous value + 7800 kg/m^3 * 0.267 mm, over the whole plate
        bare, _ = assemble_system(aluminum_plate, [], self.SPEC)
        M, _ = assemble_system(aluminum_plate,
                               [self.whole_plate(aluminum_plate, pzt_patch)], self.SPEC)
        assert np.max(np.abs(M - bare * (7.2126 / 5.13))) <= 1e-14 * np.max(np.abs(M))

    def test_zero_thickness_patch_adds_nothing(self, aluminum_plate, pzt_patch):
        """Neither mass nor stiffness: its host term Dsp - Ds is exactly
        zero, also at hs = 2 mm, where Ys hs^3 / (12 (1 - nu^2)) and
        Ys / (1 - nu^2) * hs^3 / 12 round apart."""
        for hs in (aluminum_plate.thickness_hs, 2e-3):
            plate = dataclasses.replace(aluminum_plate, thickness_hs=hs)
            thin = self.whole_plate(plate, pzt_patch, thickness_hp=0.0)
            assert rigidities(plate, thin).Dsp == bare_rigidity(plate)
            bare = assemble_system(plate, [], self.SPEC)
            patched = assemble_system(plate, [thin], self.SPEC)
            assert np.array_equal(patched[0], bare[0])
            assert np.array_equal(patched[1], bare[1])


class TestNeutralAxis:
    def test_vanishing_patch_gives_zero_offset(self, aluminum_plate, pzt_patch):
        thin = dataclasses.replace(pzt_patch, thickness_hp=0.0)
        assert neutral_axis_offset(aluminum_plate, thin) == 0.0

    def test_rigid_patch_limit(self, aluminum_plate, pzt_patch):
        stiff = dataclasses.replace(pzt_patch, c11_bar=1e18, c12_bar=0.0)
        z0 = neutral_axis_offset(aluminum_plate, stiff)
        half = (aluminum_plate.thickness_hs + stiff.thickness_hp) / 2
        assert z0 == pytest.approx(half, rel=1e-4)
        assert z0 < half

    def test_reference_value_matches_stress_balance_oracle(self, aluminum_plate, pzt_patch):
        z0 = neutral_axis_offset(aluminum_plate, pzt_patch)
        oracle = neutral_axis_by_stress_balance(aluminum_plate, pzt_patch)
        assert z0 == pytest.approx(oracle, rel=1e-10)
        # frozen regression value, from the stress-balance root finder
        assert z0 == pytest.approx(1.301824278489344e-04, rel=1e-12)

    def test_offset_bounded(self, aluminum_plate, pzt_patch):
        z0 = neutral_axis_offset(aluminum_plate, pzt_patch)
        assert 0.0 <= z0 < (aluminum_plate.thickness_hs + pzt_patch.thickness_hp) / 2

    @pytest.mark.parametrize("field,values", [
        ("thickness_hp", [1e-4, 2e-4, 4e-4, 1e-3]),
        ("c11_bar", [1e9, 1e10, 1e11, 1e12]),
    ])
    def test_offset_monotone(self, aluminum_plate, pzt_patch, field, values):
        base = dataclasses.replace(pzt_patch, c12_bar=0.0)
        z = [neutral_axis_offset(aluminum_plate,
                                 dataclasses.replace(base, **{field: v}))
             for v in values]
        assert all(b > a for a, b in zip(z, z[1:]))


class TestRigidities:
    def test_bare_plate_reduction(self, aluminum_plate, pzt_patch):
        thin = dataclasses.replace(pzt_patch, thickness_hp=0.0)
        r = rigidities(aluminum_plate, thin)
        ds = aluminum_plate.youngs_Ys * aluminum_plate.thickness_hs**3 / (
            12 * (1 - aluminum_plate.poisson_nus**2))
        assert r.Ds == pytest.approx(ds, rel=1e-15)
        assert r.Dsp == r.Ds
        assert r.D11p == r.D12p == r.D66p == 0.0

    def test_cross_rigidity_ratio_identity(self, aluminum_plate, pzt_patch):
        r = rigidities(aluminum_plate, pzt_patch)
        assert r.D12p / r.D11p == pytest.approx(
            pzt_patch.c12_bar / pzt_patch.c11_bar, rel=1e-14)

    def test_host_shift_identity(self, aluminum_plate, pzt_patch):
        r = rigidities(aluminum_plate, pzt_patch)
        expected = (aluminum_plate.youngs_Ys / (1 - aluminum_plate.poisson_nus**2)
                    * r.z0**2 * pzt_patch.thickness_hp)
        assert r.Dsp - r.Ds == pytest.approx(expected, rel=1e-12)
        assert r.Dsp >= r.Ds

    def test_patch_rigidities_match_layer_integral_oracle(self, aluminum_plate, pzt_patch):
        r = rigidities(aluminum_plate, pzt_patch)
        hs, hp = aluminum_plate.thickness_hs, pzt_patch.thickness_hp
        z_lo, z_hi = hs / 2 - r.z0, hs / 2 + hp - r.z0
        for modulus, value in [(pzt_patch.c11_bar, r.D11p),
                               (pzt_patch.c12_bar, r.D12p),
                               (pzt_patch.c66_bar, r.D66p)]:
            oracle = layer_rigidity_by_quadrature(modulus, z_lo, z_hi)
            assert value == pytest.approx(oracle, rel=1e-10)

    def test_reference_values_frozen(self, aluminum_plate, pzt_patch):
        # regression constants from the layer-integral oracle
        r = rigidities(aluminum_plate, pzt_patch)
        assert r.Ds == pytest.approx(44.90049751243781, rel=1e-13)
        assert r.D11p == pytest.approx(18.64424605193317, rel=1e-10)
