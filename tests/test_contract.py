"""The output contract of the four CLI commands on drawn scenarios.

Each scenario is the bundled reference with any subset of its three
patches, either wiring, any of the four load kinds on each branch, a
basis from 2x2 to 6x6 and a grid of 20-200 points around the first
modes. Every command either writes finite CSVs and a strict-JSON report,
the same bytes on a rerun, and exits 0, or exits 2 (configuration or
domain error) or 3 (numerical failure). No other exception escapes, with
every floating-point error raised outside the package's own errstate
blocks; ``cli.main`` takes an underflow as no fault, as numpy's default
does.
"""

import json
import os
import tempfile
from importlib import resources

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from platedamp import cli

REFERENCE = json.loads(resources.files("platedamp").joinpath("data/reference.json")
                       .read_text("utf-8"))

load = st.one_of(
    st.fixed_dictionaries({"kind": st.just("resistor"), "ohms": st.floats(0.0, 1e7)}),
    st.fixed_dictionaries({"kind": st.just("series_rl"), "ohms": st.floats(0.0, 1e5),
                           "henries": st.floats(0.0, 1e3)}),
    st.just({"kind": "open"}), st.just({"kind": "short"}))


@st.composite
def scenarios(draw):
    """A command name and a scenario dict drawn around the reference."""
    cfg = json.loads(json.dumps(REFERENCE))
    keep = draw(st.lists(st.sampled_from(range(3)), unique=True, max_size=3))
    cfg["patches"] = [cfg["patches"][i] for i in sorted(keep)]
    if draw(st.sampled_from(["separated", "connected"])) == "separated":
        cfg["topology"] = {"mode": "separated",
                           "loads": [draw(load) for _ in cfg["patches"]]}
    else:
        cfg["topology"] = {"mode": "connected", "load": draw(load)}
    cfg["basis"].update(n_x=draw(st.integers(2, 6)), n_y=draw(st.integers(2, 6)))
    cfg["grid"] = {"start_hz": draw(st.floats(1.0, 50.0)),
                   "stop_hz": draw(st.floats(60.0, 250.0)),
                   "count": draw(st.integers(20, 200))}
    cfg["sweep"]["points"] = draw(st.integers(2, 200))
    return draw(st.sampled_from(sorted(cli.COMMANDS))), cfg


def refuse(token):
    raise ValueError(f"{token} is not JSON")


def run(command, config_path, out):
    """Exit code of ``command`` and the bytes of each file it wrote."""
    with np.errstate(all="raise"):
        code = cli.main([command, "--config", config_path, "--out", out])
    files = {}
    if os.path.isdir(out):
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
    return code, files


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(case=scenarios())
def test_exit_codes_finite_outputs_and_reruns(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "scenario.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        code, files = run(command, config_path, os.path.join(tmp, "first"))
        assert code in (0, 2, 3)
        event(f"{command} exits {code}")
        if code != 0:
            return
        assert files
        for name, data in files.items():
            if name.endswith(".csv"):
                values = np.loadtxt(data.decode("utf-8").splitlines(), delimiter=",",
                                    skiprows=1, ndmin=2)
                assert np.isfinite(values).all(), name
            else:
                assert name == "report.json"
                json.loads(data, parse_constant=refuse)
        assert run(command, config_path, os.path.join(tmp, "second")) == (0, files)
