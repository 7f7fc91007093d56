"""The model's known errors as a ratchet: each bound is the error measured
when it was set, against an oracle that shares no code with the package. A
change that fixes an error tightens its bound; one that needs a bound
widened has found a regression."""

import pytest

from platedamp.plate import rigidities

from oracles import layer_rigidity_by_quadrature, neutral_axis_by_stress_balance

# Host rigidity under a patch, relative: Dsp takes the host's parallel-axis
# term as z0^2 * hp where the layer integral gives z0^2 * hs
HOST_RIGIDITY_ERROR = 0.046  # measured 0.04584 on each reference patch at b5444fb


@pytest.mark.parametrize("index", [0, 1, 2])
def test_host_rigidity_under_a_patch(ref_config, index):
    """Dsp against the host layer's second moment about the shifted neutral
    surface, integrated by quadrature from the stress-balance offset."""
    plate, patch = ref_config.plate, ref_config.patches[index]
    hs = plate.thickness_hs
    z0 = neutral_axis_by_stress_balance(plate, patch)
    host = plate.youngs_Ys / (1.0 - plate.poisson_nus**2)
    want = layer_rigidity_by_quadrature(host, -hs / 2.0 - z0, hs / 2.0 - z0)
    got = rigidities(plate, patch).Dsp
    assert abs(got - want) / want <= HOST_RIGIDITY_ERROR
