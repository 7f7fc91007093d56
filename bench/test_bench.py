"""The benchmark's own tests; they run the smoke scenario, not the workloads."""

from __future__ import annotations

import copy
import json
import shutil
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, scenario  # noqa: E402


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_job_covers_layers_and_matches_untraced_bytes(name):
    workload = WORKLOADS[name]
    r = run.run_workload(workload, seed=0, seconds=0.0, trace=True, smoke=True, min_jobs=1)
    try:
        assert all(j["ok"] for j in r.jobs), [j["problems"] for j in r.jobs]
        plain, traced = [j for j in r.jobs if j["timed"]]
        assert (plain["trace"], traced["trace"]) == (False, True)
        assert traced["digests"] == plain["digests"]
        assert set(workload.layers) <= set(traced["report"]["layers_seen"])
        assert set(r.per_layer()) == set(layers.UNITS) | {"trace.overhead_s"}
        if workload.threads > 1:
            assert r.jobs[-1]["digests"] == plain["digests"]
    finally:
        shutil.rmtree(r.dir)


def test_every_binding_is_wrapped_and_restored():
    import platedamp
    import platedamp.cli as cli
    import platedamp.response as response

    originals = {n: getattr(cli, n) for n in
                 ("frf_separated", "frf_connected", "sweep_resistance", "percent_reduction")}
    tracer = layers.install()
    try:
        for n, func in originals.items():
            assert getattr(cli, n) is not func
        assert platedamp.frf_separated is response.frf_separated is cli.frf_separated
        assert cli.COMMANDS["modes"] is cli.cmd_modes
    finally:
        tracer.uninstall()
    for n, func in originals.items():
        assert getattr(cli, n) is func


def test_worker_thread_spans_nest_under_the_calling_span():
    tracer = Tracer()
    inner = tracer.make_wrapper("response.inner", lambda: None)

    def outer():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.make_wrapper("response.outer", outer)()
    outer_span, inner_span = sorted(tracer.spans, key=lambda s: s.name, reverse=True)
    assert outer_span.name == "response.outer" and outer_span.parent is None
    assert inner_span.parent == outer_span.id


def test_seeded_scenarios_are_reproducible_and_valid():
    from platedamp.config import parse_config_dict

    for workload in WORKLOADS.values():
        assert scenario(workload, 7) == scenario(workload, 7)
        cfg = parse_config_dict(json.loads(scenario(workload, 7)))  # rejects overlaps
        if workload.name == "array_descent":
            assert len(cfg.patches) == 12
    assert scenario(WORKLOADS["ref_compare"], 1) == scenario(WORKLOADS["ref_compare"], 2)
    assert scenario(WORKLOADS["array_descent"], 1) != scenario(WORKLOADS["array_descent"], 2)


def test_reference_tolerance_accepts_round_off_and_catches_errors():
    reference = json.loads(checks.REFERENCE_VALUES.read_text())["ref_compare"]["values"]
    assert checks.compare_reference(reference, reference) == []

    nudged = copy.deepcopy(reference)
    col = nudged["frf_separated_opt"]["disp_re"]
    col[:] = [v * (1 + 1e-12) for v in col]
    nudged["separated.objective"] *= 1 + 1e-12
    assert checks.compare_reference(nudged, reference) == []

    wrong = copy.deepcopy(reference)
    col = wrong["frf_separated_opt"]["disp_re"]
    col[:] = [v * (1 + 1e-4) for v in col]
    wrong["separated.reduction_pct"][1] += 0.01
    wrong["connected.r_opt_ohms"] *= 1.05
    problems = checks.compare_reference(wrong, reference)
    assert len(problems) == 3, problems


def test_non_finite_output_is_rejected(tmp_path):
    path = tmp_path / "frf.csv"
    path.write_text("freq_hz,disp_re\n1,2\n2,nan\n", encoding="utf-8")
    with pytest.raises(checks.OutputError):
        checks.read_csv(path)
    path.write_text('{"a": [1.0, Infinity]}', encoding="utf-8")
    with pytest.raises(checks.OutputError):
        checks.read_json(path)
