import json
import subprocess
import sys
import threading

import pytest

from platedamp import build_model
from platedamp.cli import main
from platedamp.config import parse_config_dict, to_dict

FRF_HEADER = "freq_hz,disp_re,disp_im,vel_re,vel_im,|vel|,v1_re,v1_im,v2_re,v2_im,v3_re,v3_im"


@pytest.fixture()
def light_dict(ref_config):
    """Reference scenario with light discretization for fast CLI runs."""
    d = to_dict(ref_config)
    d["basis"] = {"n_x": 6, "n_y": 6, "quadrature_order": 10}
    d["grid"] = {"start_hz": 1.0, "stop_hz": 250.0, "count": 400}
    d["sweep"] = {"r_min_ohms": 100.0, "r_max_ohms": 1e6, "points": 20,
                  "report_modes": 3}
    return d


@pytest.fixture()
def light_config_path(light_dict, tmp_path):
    path = tmp_path / "light.json"
    path.write_text(json.dumps(light_dict))
    return path


def read(path):
    return path.read_bytes()


class TestExitCodes:
    def test_success(self, light_config_path, tmp_path):
        assert main(["modes", "--config", str(light_config_path),
                     "--out", str(tmp_path / "o")]) == 0

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["modes", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config(self, light_dict, tmp_path, capsys):
        light_dict["plate"]["poisson_ratio"] = 0.7
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(light_dict))
        rc = main(["frf", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "poisson" in capsys.readouterr().err

    def test_zero_patch_thickness(self, light_dict, tmp_path, capsys):
        light_dict["patches"][0]["thickness_m"] = 0
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(light_dict))
        out = tmp_path / "o"
        rc = main(["modes", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert "patches[0].thickness_m" in capsys.readouterr().err
        assert not (out / "modes.csv").exists()

    def test_numerical_failure(self, light_dict, tmp_path, capsys):
        """A zero-ohm branch parses fine but the solver refuses to divide."""
        light_dict["topology"]["loads"][0] = {"kind": "resistor", "ohms": 0.0}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(light_dict))
        rc = main(["frf", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err


    def test_undamped_resonance_on_grid_fails_closed(self, light_dict, tmp_path):
        """A grid ending exactly on an undamped natural frequency would put
        NaN in frf.csv; the run fails instead and writes no file."""
        light_dict["plate"]["modal_damping_ratio"] = 0.0
        config = parse_config_dict(light_dict)
        model = build_model(config.plate, config.patches, config.basis)
        light_dict["grid"]["stop_hz"] = float(model.frequencies_hz[0])
        path = tmp_path / "undamped.json"
        path.write_text(json.dumps(light_dict))
        out = tmp_path / "o"
        assert main(["frf", "--config", str(path), "--out", str(out)]) == 3
        assert not (out / "frf.csv").exists()


class TestModes:
    def test_bare_plate_modes_csv(self, light_dict, tmp_path):
        light_dict["patches"] = []
        light_dict["topology"] = {"mode": "separated", "loads": []}
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(light_dict))
        out = tmp_path / "out"
        assert main(["modes", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "modes.csv").read_text().splitlines()
        assert lines[0] == "mode,freq_hz"
        freqs = [float(l.split(",")[1]) for l in lines[1:]]
        assert freqs == sorted(freqs)
        assert len(freqs) == 36

    def test_patched_modes_csv_has_coupling_columns(self, light_config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["modes", "--config", str(light_config_path),
                     "--out", str(out)]) == 0
        header = (out / "modes.csv").read_text().splitlines()[0]
        assert header == ("mode,freq_hz,theta_p1,theta_p2,theta_p3,"
                          "cap_p1_farad,cap_p2_farad,cap_p3_farad")


class TestFrf:
    def test_header_contract(self, light_config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["frf", "--config", str(light_config_path),
                     "--out", str(out)]) == 0
        lines = (out / "frf.csv").read_text().splitlines()
        assert lines[0] == FRF_HEADER
        assert len(lines) == 401

    def test_full_precision_numbers(self, light_config_path, tmp_path):
        out = tmp_path / "out"
        main(["frf", "--config", str(light_config_path), "--out", str(out)])
        first = (out / "frf.csv").read_text().splitlines()[1].split(",")
        # values round-trip exactly through the 17-digit format
        for token in first:
            assert float(token) == float(f"{float(token):.17g}")

    def test_rerun_byte_identical(self, light_config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["frf", "--config", str(light_config_path), "--out", str(out1)])
        main(["frf", "--config", str(light_config_path), "--out", str(out2)])
        assert read(out1 / "frf.csv") == read(out2 / "frf.csv")


class TestSweepCommand:
    def test_outputs_and_schema(self, light_config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(light_config_path),
                     "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "resistance_ohm,peak_velocity_ms_per_n,peak_freq_hz"
        assert len(lines) == 21
        report = json.loads((out / "report.json").read_text())
        assert report["command"] == "sweep"
        assert report["topology"] == "separated"
        assert 100.0 <= report["r_opt_ohms"] <= 1e6
        assert len(report["reductions"]) == 3
        assert report["metadata"]["basis"]["n_x"] == 6
        meta = report["metadata"]
        assert list(meta) == ["basis", "mode_count", "retained_modes", "grid", "sweep"]
        assert list(meta["basis"].items()) == [("n_x", 6), ("n_y", 6), ("quadrature_order", 10)]
        assert list(meta["grid"].items()) == [("start_hz", 1.0), ("stop_hz", 250.0),
                                              ("count", 400)]
        assert list(meta["sweep"].items()) == [("r_min_ohms", 100.0), ("r_max_ohms", 1e6),
                                               ("points", 20)]

    def test_connected_topology_swept_when_configured(self, light_dict, tmp_path):
        light_dict["topology"] = {"mode": "connected",
                                  "load": {"kind": "resistor", "ohms": 1e4}}
        path = tmp_path / "conn.json"
        path.write_text(json.dumps(light_dict))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["topology"] == "connected"
        assert len(report["resistances_ohms"]) == 1

    def test_default_sweep_spec_used_when_absent(self, light_dict, tmp_path):
        del light_dict["sweep"]
        light_dict["grid"]["count"] = 300
        path = tmp_path / "nosweep.json"
        path.write_text(json.dumps(light_dict))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 201


class TestCompare:
    def test_report_layout_and_ordering(self, light_config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["compare", "--config", str(light_config_path),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["command"] == "compare"
        assert {"separated", "connected", "modes", "metadata"} <= set(report)
        assert len(report["modes"]) == 3
        for row in report["modes"]:
            assert row["separated"]["reduction_pct"] > row["connected"]["reduction_pct"]
        for name in ("sweep_separated.csv", "sweep_connected.csv",
                     "frf_separated_oc.csv", "frf_separated_opt.csv",
                     "frf_connected_oc.csv", "frf_connected_opt.csv"):
            assert (out / name).exists()

    def test_threads_do_not_change_outputs(self, light_config_path, tmp_path):
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        main(["compare", "--config", str(light_config_path), "--out", str(out1),
              "--threads", "1"])
        main(["compare", "--config", str(light_config_path), "--out", str(out2),
              "--threads", "2"])
        for name in ("report.json", "sweep_separated.csv", "frf_connected_opt.csv"):
            assert read(out1 / name) == read(out2 / name)

    def test_threads_flag_starts_no_thread(self, light_config_path, tmp_path, monkeypatch):
        """--threads is accepted and ignored: compare runs on the calling
        thread and writes what --threads 1 writes."""
        out1, out4 = tmp_path / "t1", tmp_path / "t4"
        assert main(["compare", "--config", str(light_config_path), "--out", str(out1),
                     "--threads", "1"]) == 0

        def refuse(self):
            raise RuntimeError("compare started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert main(["compare", "--config", str(light_config_path), "--out", str(out4),
                     "--threads", "4"]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out4.iterdir())
        for name in names:
            assert read(out1 / name) == read(out4 / name)

    def test_input_file_untouched(self, light_config_path, tmp_path):
        before = read(light_config_path)
        main(["compare", "--config", str(light_config_path),
              "--out", str(tmp_path / "o")])
        assert read(light_config_path) == before


class TestEntryPoint:
    def test_module_invocation(self, light_config_path, tmp_path):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "platedamp.cli", "modes",
             "--config", str(light_config_path), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (out / "modes.csv").exists()

    def test_runtime_does_not_load_scipy(self, light_config_path, tmp_path):
        script = ("import sys, platedamp.cli\n"
                  "loaded = 'scipy' in sys.modules\n"
                  "platedamp.cli.main(['modes', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
                  "print(loaded, 'scipy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script, str(light_config_path),
                               str(tmp_path / "out")], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]

    def test_module_invocation_bad_config(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "platedamp.cli", "modes",
             "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "config error" in proc.stderr
