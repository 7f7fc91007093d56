import dataclasses

import numpy as np
import pytest
from hypothesis import settings

from platedamp import (BasisSpec, HarmonicForce, PatchSpec, PlateSpec,
                       build_model, reference_config, with_coupling)

# The long contract run: pytest --hypothesis-profile=contract-long tests/test_contract.py
settings.register_profile("contract-long", max_examples=2000)


@pytest.fixture(scope="session")
def aluminum_plate():
    return PlateSpec(length_a=0.54, width_b=0.58, thickness_hs=0.0019,
                     youngs_Ys=70e9, poisson_nus=0.33, density_rhos=2700.0,
                     modal_damping_xi=0.01)


@pytest.fixture(scope="session")
def pzt_patch():
    """Reference patch material on a mid-plate footprint."""
    return PatchSpec(c11_bar=76335877862.59541, c12_bar=23664122137.40458,
                     c66_bar=26335877862.595417, e31_bar=-19.0,
                     eps33_s=9.57e-9, density_rhop=7800.0, thickness_hp=2.67e-4,
                     x1=0.30, x2=0.3724, y1=0.26, y2=0.3324)


@pytest.fixture(scope="session")
def ref_config():
    return reference_config()


@pytest.fixture(scope="session")
def ref_model(ref_config):
    return with_coupling(build_model(ref_config.plate, ref_config.patches,
                                     ref_config.basis))


@pytest.fixture(scope="session")
def ref_model_8(ref_config):
    return with_coupling(build_model(ref_config.plate, ref_config.patches,
                                     BasisSpec(8, 8, ref_config.basis.quadrature_order)))


@pytest.fixture(scope="session")
def bare_model_10(aluminum_plate):
    return build_model(aluminum_plate, [], BasisSpec(10, 10, 10))


@pytest.fixture(scope="session")
def k1_model(aluminum_plate, pzt_patch):
    """Single-patch model used by the topology-equivalence checks."""
    return with_coupling(build_model(aluminum_plate, [pzt_patch],
                                     BasisSpec(8, 8, 10)))


@pytest.fixture(scope="session")
def point_force():
    return HarmonicForce(amplitude=1.0, x=0.45, y=0.16)


@pytest.fixture(scope="session")
def target_point():
    return (0.09, 0.50)


@pytest.fixture(scope="session")
def grid_500():
    return np.linspace(1.0, 250.0, 500)


def patch_with(patch, **overrides):
    return dataclasses.replace(patch, **overrides)
