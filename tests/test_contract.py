"""The output contract of the four CLI commands on drawn scenarios.

Each scenario is the bundled reference with its patches drawn either as a
subset of its three or in disjoint cells of a 3x3 layout, either wiring,
any of the four load kinds on each branch (inductances up to 1e306 H), a
basis from 2x2 to 8x8, a grid of 20-200 points around the first modes
and, at times, an objective band inside the grid. Every command either
exits 0, or exits 2 (configuration or domain error) or 3 (numerical
failure). No other exception escapes, with every floating-point error
raised outside the package's own errstate blocks; ``cli.main`` takes an
underflow as no fault, as numpy's default does.

At exit 0 every CSV holds the bytes ``np.savetxt`` writes for its values,
all finite, under its header; ``report.json`` is strict JSON whose
optimum resistance is the first best row of its sweep CSV, inside the
swept range; and a rerun writes the same bytes. At exit 2 or 3 ``--out``
holds no ``report.json``, and every CSV left there is finite and whole.

``pytest --hypothesis-profile=contract-long tests/test_contract.py`` runs
the same test on 2,000 examples (the profile is in ``conftest.py``).
"""

import io
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
EXAMPLES = 200  # about 4 s; a loaded profile with more examples, such as contract-long, wins
WRITES = {"modes": {"modes.csv"}, "frf": {"frf.csv"}, "sweep": {"sweep.csv", "report.json"},
          "compare": {"sweep_separated.csv", "frf_separated_oc.csv", "frf_separated_opt.csv",
                      "sweep_connected.csv", "frf_connected_oc.csv", "frf_connected_opt.csv",
                      "report.json"}}

load = st.one_of(
    st.fixed_dictionaries({"kind": st.just("resistor"), "ohms": st.floats(0.0, 1e7)}),
    st.fixed_dictionaries({"kind": st.just("series_rl"), "ohms": st.floats(0.0, 1e5),
                           "henries": st.floats(0.0, 1e306)}),
    st.just({"kind": "open"}), st.just({"kind": "short"}))


@st.composite
def layout_patches(draw, cfg):
    """Reference patches in distinct cells of a 3x3 layout of the plate,
    each inside its own cell, so that no two overlap."""
    a, b = cfg["plate"]["length_a_m"], cfg["plate"]["width_b_m"]
    material = {k: v for k, v in cfg["patches"][0].items()
                if k not in ("x1_m", "x2_m", "y1_m", "y2_m")}
    patches = []
    for cell in draw(st.lists(st.sampled_from(range(9)), unique=True, min_size=1)):
        (i, j), side = divmod(cell, 3), (a / 3.0, b / 3.0)
        lo = [(c + draw(st.floats(0.02, 0.5))) * s for c, s in zip((i, j), side)]
        hi = [x + draw(st.floats(0.1, 0.48)) * s for x, s in zip(lo, side)]
        patches.append(dict(material, x1_m=lo[0], x2_m=hi[0], y1_m=lo[1], y2_m=hi[1]))
    return patches


@st.composite
def scenarios(draw):
    """A command name and a scenario dict drawn around the reference."""
    cfg = json.loads(json.dumps(REFERENCE))
    if draw(st.booleans()):
        keep = draw(st.lists(st.sampled_from(range(3)), unique=True, max_size=3))
        cfg["patches"] = [cfg["patches"][i] for i in sorted(keep)]
    else:
        cfg["patches"] = draw(layout_patches(cfg))
    if draw(st.sampled_from(["separated", "connected"])) == "separated":
        cfg["topology"] = {"mode": "separated",
                           "loads": [draw(load) for _ in cfg["patches"]]}
    else:
        cfg["topology"] = {"mode": "connected", "load": draw(load)}
    cfg["basis"].update(n_x=draw(st.integers(2, 8)), n_y=draw(st.integers(2, 8)))
    grid = cfg["grid"] = {"start_hz": draw(st.floats(1.0, 50.0)),
                          "stop_hz": draw(st.floats(60.0, 250.0)),
                          "count": draw(st.integers(20, 200))}
    cfg["sweep"]["points"] = draw(st.integers(2, 200))
    if draw(st.booleans()):
        lo = draw(st.floats(grid["start_hz"], grid["stop_hz"], exclude_max=True))
        cfg["sweep"]["band_hz"] = [lo, draw(st.floats(lo, grid["stop_hz"], exclude_min=True))]
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


def csv_values(name, data):
    """The values of a CSV, checked to be finite and to be, with its header
    line, exactly the bytes ``np.savetxt`` writes for them."""
    header, _, body = data.decode("utf-8").partition("\n")
    values = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    assert np.isfinite(values).all(), name
    text = io.StringIO()
    np.savetxt(text, values, fmt="%.17g", delimiter=",", header=header, comments="")
    assert text.getvalue().encode("utf-8") == data, name
    return values


def check_optimum(side, sweep_csv, sweep):
    """The report's ``r_opt_ohms`` is the resistance of the sweep CSV's first
    smallest peak, and lies inside the swept range."""
    r, peak = sweep_csv[:, 0], sweep_csv[:, 1]
    assert side["r_opt_ohms"] == r[np.argmin(peak)]
    assert sweep["r_min_ohms"] <= side["r_opt_ohms"] <= sweep["r_max_ohms"]


@settings(derandomize=True, deadline=None, database=None,
          max_examples=max(EXAMPLES, settings.default.max_examples))
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
        values = {name: csv_values(name, data) for name, data in files.items()
                  if name.endswith(".csv")}
        if code != 0:
            assert set(values) == set(files) < WRITES[command], "a nonzero exit leaves CSVs only"
            return
        assert set(files) == WRITES[command]
        if command == "sweep":
            report = json.loads(files["report.json"], parse_constant=refuse)
            check_optimum(report, values["sweep.csv"], cfg["sweep"])
        elif command == "compare":
            report = json.loads(files["report.json"], parse_constant=refuse)
            for mode in ("separated", "connected"):
                check_optimum(report[mode], values[f"sweep_{mode}.csv"], cfg["sweep"])
        assert run(command, config_path, os.path.join(tmp, "second")) == (0, files)
