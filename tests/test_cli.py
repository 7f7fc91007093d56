import io
import json
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platedamp import FrfResult, SolverError, build_model, cli
from platedamp.cli import _CSV_BLOCK_VALUES, _csv_format, _write_csv, _write_json, main
from platedamp.config import parse_config_dict, to_dict
from platedamp.response import ImpedanceLaw, ShuntTopology, _admittance, _Kernel, frf

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

    def test_target_on_a_clamped_edge(self, light_dict, tmp_path, capsys):
        light_dict["target"]["x_m"] = 0
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(light_dict))
        out = tmp_path / "o"
        rc = main(["compare", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert "clamped edge x = 0 m" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_without_patches(self, light_dict, tmp_path, capsys):
        """compare always runs the connected wiring too, so a scenario
        without patches is refused before any file is written."""
        light_dict["patches"] = []
        light_dict["topology"] = {"mode": "separated", "loads": []}
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(light_dict))
        out = tmp_path / "o"
        rc = main(["compare", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert "at least one patch" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "s")]) == 0

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

    def test_out_is_an_existing_file(self, light_config_path, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory")
        rc = main(["modes", "--config", str(light_config_path), "--out", str(out)])
        assert rc == 2
        assert "platedamp: cannot write output:" in capsys.readouterr().err
        assert out.read_text() == "not a directory"

    def test_output_file_cannot_be_opened(self, light_config_path, tmp_path, capsys):
        """A directory where modes.csv should go makes the open fail, as an
        unwritable --out does, also for root."""
        (tmp_path / "o" / "modes.csv").mkdir(parents=True)
        rc = main(["modes", "--config", str(light_config_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "platedamp: cannot write output:" in capsys.readouterr().err

    def test_huge_inductance_is_an_open_branch(self, ref_config, tmp_path):
        """An inductance of 1e306 H parses, and above about 28.6 Hz its
        reactance overflows to j*inf: 1/z is exactly 0 there, an open branch,
        and frf exits 0 with finite outputs under every floating-point error
        raised."""
        d = to_dict(ref_config)
        d["topology"]["loads"] = [{"kind": "series_rl", "ohms": 15000.0,
                                   "henries": 1e306}] * 3
        d["basis"].update(n_x=4, n_y=4)
        d["grid"]["count"] = 50
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(d))
        with np.errstate(all="raise"):
            assert main(["frf", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
            omega = 2.0 * np.pi * parse_config_dict(d).grid.frequencies()
            z = ImpedanceLaw.series_rl(15000.0, 1e306).impedance(omega)
        over = omega > np.finfo(float).max / 1e306
        assert over.any() and not over.all()
        assert np.all(z.real == 15000.0) and np.array_equal(z.imag == np.inf, over)
        assert np.all(_admittance(15000.0, 1e306, omega[over]) == 0.0)
        values = np.loadtxt(tmp_path / "o" / "frf.csv", delimiter=",", skiprows=1)
        assert values.shape == (50, 12) and np.isfinite(values).all()

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
        for row in report["reductions"]:
            assert set(row) >= {"mode", "window_hz", "oc_peak_ms_per_n", "oc_peak_hz",
                                "shunted_peak_ms_per_n", "shunted_peak_hz",
                                "reduction_pct", "flagged"}
            lo, hi = row["window_hz"]
            assert 1.0 <= lo < hi <= 250.0

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

    def test_compare_starts_no_thread(self, light_config_path, tmp_path, monkeypatch):
        """compare runs on the calling thread."""
        def refuse(self):
            raise RuntimeError("compare started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert main(["compare", "--config", str(light_config_path),
                     "--out", str(tmp_path / "out")]) == 0

    def test_threads_flag_is_refused(self, light_config_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--config", str(light_config_path), "--out", str(tmp_path / "out"),
                  "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_input_file_untouched(self, light_config_path, tmp_path):
        before = read(light_config_path)
        main(["compare", "--config", str(light_config_path),
              "--out", str(tmp_path / "o")])
        assert read(light_config_path) == before

    def test_frf_files_are_those_of_frf(self, ref_config, ref_model, tmp_path):
        """On the reference, each wiring's stacked OC and optimum FRFs are
        written byte for byte as ``frf`` gives them one at a time."""
        cli.cmd_compare(ref_config, str(tmp_path), 1)
        report = json.loads((tmp_path / "report.json").read_text())
        k = len(ref_model.patches)
        for mode in ("separated", "connected"):
            for tag, law in (("oc", ImpedanceLaw.open()),
                             ("opt", ImpedanceLaw.resistor(report[mode]["r_opt_ohms"]))):
                result = frf(ref_model, ShuntTopology.uniform(mode, k, law), ref_config.force,
                             ref_config.target, ref_config.grid.frequencies())
                cli.write_frf_csv(str(tmp_path / "single.csv"), result)
                name = f"frf_{mode}_{tag}.csv"
                assert read(tmp_path / name) == read(tmp_path / "single.csv"), name

    def test_one_kernel_and_shared_blocks(self, ref_config, tmp_path, monkeypatch):
        """compare on the reference builds one kernel, computes each FRF grid
        block's structural blocks once for a wiring's two FRFs (2 wirings x
        12 blocks) and sends no one-node system to LAPACK."""
        kernels, blocks, sizes, running = [], [], [], []
        init, run, structure = _Kernel.__init__, _Kernel.run, _Kernel.structure
        solve = np.linalg.solve

        def counting_run(self, *args):
            running.append(1)
            try:
                return run(self, *args)
            finally:
                running.pop()

        monkeypatch.setattr(_Kernel, "__init__",
                            lambda self, *a: kernels.append(1) or init(self, *a))
        monkeypatch.setattr(_Kernel, "run", counting_run)
        monkeypatch.setattr(_Kernel, "structure",
                            lambda self, *a: (running and blocks.append(1)) or structure(self, *a))
        monkeypatch.setattr(np.linalg, "solve",
                            lambda A, B: sizes.append(A.shape[-1]) or solve(A, B))
        cli.cmd_compare(ref_config, str(tmp_path), 1)
        assert ref_config.grid.frequencies().size == 3000
        assert (len(kernels), len(blocks)) == (1, 24)
        assert sizes and 1 not in sizes


def strict_json(path):
    """Parse a file as strict JSON: NaN and Infinity are refused."""
    def refuse(token):
        raise ValueError(f"{path.name} holds {token}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


class TestStrictReport:
    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_window_without_grid_points_writes_null(self, light_dict, tmp_path, command):
        """On a 1-80 Hz grid modes 2 and 3 lie above the grid; their
        windows are not inverted, and their peaks are null, flagged with
        a note, not NaN."""
        light_dict["grid"] = {"start_hz": 1.0, "stop_hz": 80.0, "count": 800}
        path = tmp_path / "low.json"
        path.write_text(json.dumps(light_dict))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        report = strict_json(out / "report.json")
        if command == "sweep":
            rows = report["reductions"]
        else:
            rows = [dict(side, mode=row["mode"]) for row in report["modes"]
                    for side in (row["separated"], row["connected"])]
        empty = [r for r in rows if r["mode"] > 1]
        assert empty and all(r["flagged"] and r["note"] == "mode lies outside the frequency grid"
                             and r["oc_peak_ms_per_n"] is None and r["reduction_pct"] is None
                             for r in empty)
        assert all(r["reduction_pct"] is not None for r in rows if r["mode"] == 1)
        windows = ([r["window_hz"] for r in report["reductions"]] if command == "sweep"
                   else [row["window_hz"] for row in report["modes"]])
        assert len(windows) == 3 and all(lo < hi for lo, hi in windows)
        assert all(lo > 80.0 for lo, _ in windows[1:])

    def test_non_finite_number_raises_and_writes_nothing(self, tmp_path):
        with pytest.raises(SolverError):
            _write_json(str(tmp_path / "report.json"), {"reduction_pct": float("nan")})
        assert not (tmp_path / "report.json").exists()


class TestCsvWriter:
    """``_write_csv`` writes the bytes of ``np.savetxt(fmt="%.17g",
    delimiter=",")`` after the header line."""

    EDGES = [-0.0, 5e-324, 1e308, 1e16, 1e17, 0.1, 3.0, -42.0, 1e16 - 2.0, 1.0 / 3.0,
             -1.7976931348623157e308, 2.2250738585072014e-308, 123456789.0, -1e-300]

    @staticmethod
    def columns(rows, kind):
        """Columns cycling through EDGES and seeded values of every magnitude;
        "table" puts an ``np.arange`` column (modes.csv's ``mode``) first."""
        rng = np.random.default_rng(rows)
        values = rng.standard_normal(rows * 14) * 10.0 ** rng.integers(-30, 30, rows * 14)
        values[::3] = np.resize(TestCsvWriter.EDGES, values[::3].size)
        if kind == "integers":
            return [np.arange(1, rows + 1)]
        if kind == "floats":
            return [values[:rows]]
        return [np.arange(1, rows + 1), values[:rows * 13].reshape(rows, 13)]

    def assert_same_bytes(self, tmp_path, rows, kind):
        columns = self.columns(rows, kind)
        table = np.column_stack(columns)
        header = [f"c{k}" for k in range(table.shape[1])]
        assert table.shape == (rows, 14 if kind == "table" else 1)
        _write_csv(str(tmp_path / "block.csv"), header, columns)
        with open(tmp_path / "savetxt.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            np.savetxt(fh, table, fmt="%.17g", delimiter=",")
        written = read(tmp_path / "block.csv")
        assert written == read(tmp_path / "savetxt.csv")
        assert written.count(b"\n") == rows + 1

    @pytest.mark.parametrize("kind", ["integers", "floats", "table"])
    @pytest.mark.parametrize("rows", [1, 511, 512, 513, 1025])
    def test_same_bytes_as_savetxt(self, tmp_path, rows, kind):
        self.assert_same_bytes(tmp_path, rows, kind)

    @pytest.mark.parametrize("kind", ["integers", "floats", "table"])
    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)],
                             ids=["block-1", "block", "block+1", "2block+1"])
    def test_same_bytes_around_the_block_boundary(self, tmp_path, blocks, extra, kind):
        """A block is as many rows as fit in _CSV_BLOCK_VALUES numbers."""
        ncols = 14 if kind == "table" else 1
        self.assert_same_bytes(tmp_path, blocks * (_CSV_BLOCK_VALUES // ncols) + extra, kind)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_number_raises_and_writes_nothing(self, tmp_path, bad):
        values = np.arange(5.0)
        values[3] = bad
        with pytest.raises(SolverError, match="frf.csv"):
            _write_csv(str(tmp_path / "frf.csv"), ["a", "b"], [np.arange(5), values])
        assert not (tmp_path / "frf.csv").exists()

    def test_nan_in_frf_exits_3_and_writes_no_csv(self, light_config_path, tmp_path,
                                                  monkeypatch, capsys):
        real = cli.frf

        def poisoned(*args):
            result = real(*args)
            velocity = result.velocity.copy()
            velocity[7] = complex(np.nan, 0.0)
            return FrfResult(result.frequencies_hz, result.displacement, velocity,
                             result.voltages)

        monkeypatch.setattr(cli, "frf", poisoned)
        out = tmp_path / "out"
        assert main(["frf", "--config", str(light_config_path), "--out", str(out)]) == 3
        assert "non-finite number in frf.csv" in capsys.readouterr().err
        assert not (out / "frf.csv").exists()


def percent_g(values):
    """The oracle: CPython's ``"%.17g" % x``, one number per line."""
    return "".join("%.17g\n" % x for x in np.asarray(values, float).tolist()).encode()


def formatted(values):
    return _csv_format(np.asarray(values, float).reshape(-1, 1))


class TestCsvFormat:
    """``_csv_format`` against ``"%.17g" % x`` on the numbers where a
    digit-by-arithmetic formatter goes wrong first."""

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_any_finite_float(self, values):
        assert formatted(values) == percent_g(values)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(14).integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        assert formatted(values) == percent_g(values)

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
        values = np.concatenate([powers, np.nextafter(powers, 0.0),
                                 np.nextafter(powers, np.inf)])
        values = np.concatenate([values, -values])
        assert formatted(values) == percent_g(values)

    def test_seventeen_nines_carry_into_the_next_decade(self):
        """Each double lies below its power of ten, within half a unit of the
        17th digit, so its 17 digits round up to 1 and a new exponent."""
        assert formatted([9.99999999999999999e-5]) == b"0.0001\n"
        values = [1e-243, 1e-14, 1e98]
        assert all(Fraction(x) < Fraction(10) ** k for x, k in zip(values, [-243, -14, 98]))
        assert formatted(values) == b"1e-243\n1e-14\n1e+98\n"

    def test_exact_ties_round_half_even(self):
        """Odd m in [2**52, 2**53) over 4 ends in .25 or .75: the 18th digit
        is an exact 5, so only the exact decimal of the double decides."""
        assert formatted([(2 ** 53 - 1) / 4]) == b"2251799813685247.8\n"
        odd = np.random.default_rng(4).integers(2 ** 52, 2 ** 53, 2000) | 1
        values = np.concatenate([odd / 4.0, odd / 8.0, odd * 2.0 ** -40, odd * 2.0 ** 9])
        assert formatted(values) == percent_g(values)

    def test_scales_beyond_the_power_table(self):
        values = [5e-324, 1e-320, 2.2250738585072014e-308, 1e-290, 1.2345e-285,
                  1.5e300, 1e305, 1.7976931348623157e308]
        values += [-v for v in values]
        assert formatted(values) == percent_g(values)

    @pytest.mark.parametrize("shift", [-1.0, 1.0])
    def test_a_decade_guessed_wrong_takes_the_fallback(self, monkeypatch, shift):
        """The digits are checked against the scale actually applied, so a
        log10 one decade off costs speed, never bytes."""
        values = np.random.default_rng(3).standard_normal(500) * 10.0 ** np.arange(-250, 250)
        real = np.log10
        monkeypatch.setattr(np, "log10", lambda a: real(a) + shift)
        assert formatted(values) == percent_g(values)


def field_code(x):
    """(sign, category, digits kept) of ``"%.17g" % x``, read from CPython's
    ``"%.16e"``: category X + 4 for fixed notation (-4 <= X <= 16), 21 for a
    two-digit exponent, 22 for a three-digit one."""
    text = "%.16e" % abs(x)
    X = int(text[19:])
    cat = X + 4 if -4 <= X <= 16 else 21 if abs(X) < 100 else 22
    return int(np.signbit(x)), cat, len(text[:18].replace(".", "").rstrip("0") or "0")


def one_number_per_code():
    """A double for each of the 2 x 23 x 17 codes of ``field_code``: k
    random digits, the last one nonzero, scaled to the category's exponent,
    redrawn until the double's 17 digits keep exactly k of them."""
    rng = random.Random(17)
    numbers = []
    for neg in (0, 1):
        for cat in range(23):
            for k in range(1, 18):
                while True:
                    X = (cat - 4 if cat <= 20 else rng.choice([-1, 1])
                         * rng.randrange(*((17, 100) if cat == 21 else (100, 300))))
                    digits = rng.randrange(10 ** (k - 1), 10 ** k) // 10 * 10
                    digits += rng.randrange(1, 10)
                    x = float(f"{'-' if neg else ''}{digits}e{X - k + 1}")
                    if field_code(x) == (neg, cat, k):
                        numbers.append(x)
                        break
    return numbers


class TestEveryFieldCode:
    """``_csv_format`` builds a field from tables indexed by sign, category
    and digits kept; one number of each code, byte for byte."""

    def test_one_number_per_code(self, tmp_path):
        numbers = one_number_per_code()
        assert len({field_code(x) for x in numbers}) == 2 * 23 * 17
        assert formatted(numbers) == percent_g(numbers)
        table = np.array(numbers).reshape(-1, 2)
        _write_csv(str(tmp_path / "codes.csv"), ["a", "b"], [table])
        buf = io.BytesIO()
        np.savetxt(buf, table, fmt="%.17g", delimiter=",", header="a,b", comments="")
        assert read(tmp_path / "codes.csv") == buf.getvalue()


class TestCsvOracle:
    """Every CSV the CLI writes for the bundled reference is the bytes
    ``np.savetxt`` writes for the values it parses back."""

    @pytest.mark.parametrize("command", ["modes", "compare"])
    def test_reference_outputs_equal_savetxt(self, tmp_path, command):
        config = str(resources.files("platedamp").joinpath("data/reference.json"))
        assert main([command, "--config", config, "--out", str(tmp_path)]) == 0
        paths = sorted(tmp_path.glob("*.csv"))
        assert paths
        for path in paths:
            written = path.read_bytes()
            header = written.split(b"\n", 1)[0].decode()
            values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            buf = io.BytesIO()
            np.savetxt(buf, values, fmt="%.17g", delimiter=",", header=header, comments="")
            assert buf.getvalue() == written, path.name


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


class TestBlasThreads:
    def test_reference_outputs_do_not_depend_on_openblas_threads(self, tmp_path):
        """compare and modes on the bundled reference write the same bytes
        with OPENBLAS_NUM_THREADS=1 as with the default thread count."""
        config = str(resources.files("platedamp").joinpath("data/reference.json"))
        default_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        envs = {"one": {**default_env, "OPENBLAS_NUM_THREADS": "1"}, "default": default_env}
        for command in ("compare", "modes"):
            outs = {}
            for name, env in envs.items():
                outs[name] = tmp_path / f"{command}_{name}"
                proc = subprocess.run(
                    [sys.executable, "-m", "platedamp.cli", command, "--config", config,
                     "--out", str(outs[name])], capture_output=True, text=True, env=env)
                assert proc.returncode == 0, proc.stderr
            names = sorted(p.name for p in outs["one"].iterdir())
            assert names and names == sorted(p.name for p in outs["default"].iterdir())
            for file in names:
                assert read(outs["one"] / file) == read(outs["default"] / file), file
