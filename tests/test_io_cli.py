"""CSV/JSON contracts and the command-line front end."""

import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest

from hypersorb import cli, fdm, poles, spectral, validate
from hypersorb.cli import build_config, load_config_file, main, make_parser
from hypersorb.errors import InvalidInput
from hypersorb.params import Params, step_ic
from hypersorb.series import TimeSeries, thin_indices, thin_series
from hypersorb.seriesio import (
    CSV_BLOCK_ROWS, format_float, read_series_csv, write_json, write_series_csv,
)


def small_series():
    t = np.array([0.0, 0.1, 0.2, 0.30000000000000004])
    return TimeSeries(
        t=t,
        sigma=np.array([0.0, 1 / 3, 0.5070707, 0.9999999999999999]),
        surface=np.array([0.0, 0.1, 0.2, 0.3]),
        probes={0.25: np.array([3.0, 2.5, 2.0, 1.5]),
                -0.25: np.array([3.0, 2.5, 2.0, 1.5]),
                0.0: np.pi * np.ones(4)},
    )


class TestSeriesCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        ser = small_series()
        path = tmp_path / "s.csv"
        write_series_csv(ser, path, config={"engine": "fdm", "n_z": 16})
        back = read_series_csv(path)
        assert np.array_equal(back.t, ser.t)
        assert np.array_equal(back.sigma, ser.sigma)
        assert set(back.probes) == set(ser.probes)
        for z, col in ser.probes.items():
            assert np.array_equal(back.probes[z], col)
        assert back.meta["config"] == {"engine": "fdm", "n_z": 16}

    def test_header_and_column_ordering(self, tmp_path):
        path = tmp_path / "s.csv"
        write_series_csv(small_series(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_star,sigma,N_at_-0.25,N_at_0,N_at_0.25"

    def test_two_column_layout_without_probes(self, tmp_path):
        ser = small_series()
        ser.probes = {}
        path = tmp_path / "s.csv"
        write_series_csv(ser, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_star,sigma"
        assert all(line.count(",") == 1 for line in lines)

    def test_block_writer_matches_line_formatter(self, tmp_path):
        # special values in the first and in the last, partial, block
        n = 2 * CSV_BLOCK_ROWS + 3
        rng = np.random.default_rng(5)
        t = np.arange(n, dtype=float)
        sigma = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310,
                   2.2250738585072014e-308, 1e16, 0.1 + 0.2]
        sigma[:len(special)] = special
        sigma[-len(special):] = special
        probe = -sigma[::-1]
        path = tmp_path / "s.csv"
        write_series_csv(TimeSeries(t=t, sigma=sigma, surface=sigma, probes={0.25: probe}),
                         path, config={"k": 1})
        lines = ['# config: {"k":1}', "t_star,sigma,N_at_0.25"]
        lines += [",".join(f"{float(col[i]):.17g}" for col in (t, sigma, probe)) for i in range(n)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_seventeen_digit_format(self):
        assert format_float(math.pi) == "3.1415926535897931"
        assert float(format_float(0.1 + 0.2)) == 0.1 + 0.2

    def test_strictly_increasing_time_required(self):
        with pytest.raises(ValueError):
            TimeSeries(t=np.array([0.0, 0.0]), sigma=np.zeros(2), surface=np.zeros(2))
        with pytest.raises(ValueError):
            TimeSeries(t=np.array([0.0, math.nan]), sigma=np.zeros(2), surface=np.zeros(2))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidInput):
            read_series_csv(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InvalidInput):
            read_series_csv(tmp_path / "absent.csv")

    def test_header_only_file_has_no_series_data(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text('# config: {"k":1}\nt_star,sigma\n')
        with pytest.raises(InvalidInput, match="contains no series data"):
            read_series_csv(path)

    @pytest.mark.parametrize("body, message", [
        ("0,1\n1\n", "ragged rows"),
        ("0,1,2\n1,2,3\n", "ragged rows"),
        ("0,x\n", "no number"),
    ])
    def test_malformed_rows_refused_on_read_back(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("t_star,sigma\n" + body)
        with pytest.raises(InvalidInput, match=message):
            read_series_csv(path)

    @pytest.mark.parametrize("header, message", [
        ("t_star,sigma,N_at_0.25,N_at_0.25", "repeats the probe at z\\* = 0.25"),
        ("t_star,sigma,N_at_0.25,N_at_.25", "repeats the probe at z\\* = 0.25"),
        ("t_star,sigma,N_at_wall", "names no probe position"),
        ("t_star,sigma,N_at_nan,N_at_nan", "names no probe position"),
        ("t_star,sigma,N_at_0.7", "names no probe position"),
    ])
    def test_probe_columns_refused_on_read_back(self, tmp_path, header, message):
        path = tmp_path / "probes.csv"
        n_cols = header.count(",") + 1
        path.write_text(header + "\n" + ",".join(["0"] * n_cols) + "\n")
        with pytest.raises(InvalidInput, match=message):
            read_series_csv(path)

    def test_repeated_time_refused_on_read_back(self, tmp_path):
        path = tmp_path / "repeat.csv"
        path.write_text("t_star,sigma\n0,0\n0,1\n")
        with pytest.raises(InvalidInput, match="strictly increasing"):
            read_series_csv(path)

    def test_unknown_column_refused_on_read_back(self, tmp_path):
        path = tmp_path / "foo.csv"
        path.write_text("t_star,sigma,foo\n0,0,0\n1,1,1\n")
        with pytest.raises(InvalidInput, match="unexpected column 'foo'"):
            read_series_csv(path)

    def test_writers_refuse_a_directory(self, tmp_path):
        with pytest.raises(InvalidInput, match="cannot write CSV to"):
            write_series_csv(small_series(), tmp_path)
        with pytest.raises(InvalidInput, match="cannot write JSON to"):
            write_json({"a": 1}, tmp_path)

    def test_json_encodes_numpy_and_complex_values(self, tmp_path):
        path = tmp_path / "v.json"
        write_json({
            "f": np.float64(0.1), "i": np.int32(-3), "a": np.array([[1.0, 2.5]]),
            "c": 1 - 2j, "z": np.complex128(0.5 + 0.25j),
        }, path)
        assert json.loads(path.read_text()) == {
            "f": 0.1, "i": -3, "a": [[1.0, 2.5]], "c": [1.0, -2.0], "z": [0.5, 0.25],
        }
        with pytest.raises(TypeError, match="cannot serialize"):
            write_json({"s": {1, 2}}, tmp_path / "set.json")


class TestConfigFile:
    def test_parse_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# base configuration\n"
            "engine = fdm\n"
            "A = 0.01   # desorption/diffusion\n"
            "B = 0.1\n"
            "L = 1\n"
            "N0 = 3\n"
            "probes = 0, 0.25\n"
            "n_z = 32\n"
        )
        parsed = load_config_file(cfg_file)
        assert parsed["A"] == 0.01
        assert parsed["probes"] == [0, 0.25]
        parser = make_parser()
        args = parser.parse_args(["run", "--config", str(cfg_file), "--B", "0.2"])
        cfg = build_config(args)
        assert cfg.B == 0.2  # flag wins over the file
        assert cfg.A == 0.01
        assert cfg.n_z == 32

    def test_missing_config_file_exit_code(self, tmp_path, capsys):
        args = ["run", "--config", str(tmp_path / "absent.cfg"), "--outdir", str(tmp_path)]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("configuration error: cannot read config file")
        assert list(tmp_path.iterdir()) == []

    def test_malformed_line_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("engine fdm\n")
        assert main(["run", "--config", str(cfg_file)]) == 2

    @pytest.mark.parametrize("line, message", [
        ("validate = 1", "unknown key(s) in config file"),  # a method, not a field
        ("lamda = 5", "unknown key(s) in config file"),  # a typo
        ("A = abc", "bad value for A"),
        ("n_z = 16.7", "bad value for n_z"),  # not an integer
        ("r = 0.4", "unknown key(s) in config file"),  # the parabolic grid keeps r = 0.4
        ("diagnostics = true", "unknown key(s) in config file"),  # eigen-dump writes that grid
    ])
    def test_bad_line_exit_code(self, tmp_path, capsys, line, message):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"engine = fdm\nA = 0.01\nB = 0.1\nL = 1\nN0 = 3\nT = 0.05\n{line}\n")
        assert main(["run", "--config", str(cfg_file), "--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and message in err
        assert not (tmp_path / "series.json").exists()

    BASE = "A = 0.01\nB = 0.1\nL = 1\nN0 = 3\nT = 0.02\nn_z = 16\n"

    def test_text_key_stored_as_its_flag_stores_it(self, tmp_path):
        # name = 123 and --name 123 are one configuration: the same bytes
        cfg_file = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        written = []
        for extra_line, flags in (("name = 123\n", []), ("", ["--name", "123"])):
            cfg_file.write_text(self.BASE + extra_line)
            assert main(["run", "--config", str(cfg_file), "--outdir", str(outdir), *flags]) == 0
            written.append([(outdir / f"123.{ext}").read_bytes() for ext in ("csv", "json")])
        assert written[0] == written[1]
        assert json.loads(written[0][1])["config"]["name"] == "123"

    @pytest.mark.parametrize("key, value", [("modes", "10.0"), ("n_z", "1e2"), ("samples", "true")])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_int_keys_take_integer_literals_from_either_source(self, tmp_path, capsys, key, value,
                                                                source):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(self.BASE + (f"{key} = {value}\n" if source == "file" else ""))
        flags = [f"--{key.replace('_', '-')}", value] if source == "flag" else []
        assert main(["run", "--config", str(cfg_file), "--outdir", str(tmp_path), *flags]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: bad value for {key}")
        assert not (tmp_path / "series.json").exists()


class TestCli:
    def run_args(self, tmp_path, extra=()):
        return [
            "run", "--engine", "fdm", "--A", "0.01", "--B", "0.1", "--L", "1",
            "--N0", "3", "--T", "0.2", "--n-z", "32",
            "--outdir", str(tmp_path), "--name", "t",
            *extra,
        ]

    def test_run_writes_artifacts(self, tmp_path, capsys):
        assert main(self.run_args(tmp_path)) == 0
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "t.json"
        assert csv_path.exists() and json_path.exists()
        payload = json.loads(json_path.read_text())
        assert payload["config"]["A"] == 0.01
        assert payload["max_conservation_residual"] < 1e-12
        ser = read_series_csv(csv_path)
        assert ser.meta["config"]["engine"] == "fdm"
        assert ser.t[-1] == pytest.approx(0.2)
        assert str(csv_path) in capsys.readouterr().out

    def test_deterministic_bytes(self, tmp_path):
        main(self.run_args(tmp_path / "a"))
        main(self.run_args(tmp_path / "b"))
        a = (tmp_path / "a" / "t.csv").read_bytes()
        b = (tmp_path / "b" / "t.csv").read_bytes()
        # identical configuration apart from outdir: identical data bytes
        assert a.split(b"\n", 1)[1] == b.split(b"\n", 1)[1]
        ja = json.loads((tmp_path / "a" / "t.json").read_text())
        jb = json.loads((tmp_path / "b" / "t.json").read_text())
        ja["config"].pop("outdir"), jb["config"].pop("outdir")
        assert ja == jb

    def test_missing_parameters_exit_code(self, tmp_path, capsys):
        assert main(["run", "--engine", "fdm", "--outdir", str(tmp_path)]) == 2
        assert "incomplete parameters" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["A", "L"])
    def test_non_finite_parameter_exit_code(self, tmp_path, capsys, field):
        args = self.run_args(tmp_path)
        args[args.index(f"--{field}") + 1] = "inf"
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{field} must be finite" in err
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("engine, flag, value", [
        ("fdm", "--T", "inf"), ("spectral", "--T", "inf"), ("fdm", "--T", "nan"),
        ("fdm", "--T", "0"), ("parabolic", "--T", "-1"), ("fdm", "--lam", "inf"),
        ("fdm", "--lam", "0"),
    ])
    def test_bad_step_or_horizon_exit_code(self, tmp_path, capsys, engine, flag, value):
        args = self.run_args(tmp_path, extra=(flag, value))
        args[args.index("--engine") + 1] = engine
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert f"{flag[2:]} must be finite and strictly positive" in err
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("command, flags, key", [
        ("run", ("--A", "abc"), "A"),
        ("run", ("--T", "x"), "T"),
        ("run", ("--lam", "x"), "lam"),
        ("run", ("--tau-r", "x"), "tau_r"),
        ("run", ("--probes", "0,x"), "probes"),
        ("sweep", ("--axis", "L", "--values", "1,x"), "values"),
    ])
    def test_bad_flag_value_exit_code(self, tmp_path, capsys, command, flags, key):
        # typed by _coerce, as a config file value is: exit 2, not an argparse exit
        args = self.run_args(tmp_path / "out", extra=flags)
        args[0] = command
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: bad value for {key}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [("run",), ("sweep", "--axis", "L", "--values", "1,2")])
    @pytest.mark.parametrize("ic_flags", [("--ic", "sampled"), ("--ic", "sampled", "--ic-file", "absent.csv")])
    def test_bad_initial_condition_refused_before_the_outdir(self, tmp_path, capsys, command,
                                                              ic_flags):
        args = self.run_args(tmp_path / "out", extra=ic_flags)
        args[:1] = command
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not (tmp_path / "out").exists()

    def test_spectral_run_solves_once(self, tmp_path, monkeypatch):
        calls = []
        solve = spectral.solve_spectral

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(spectral, "solve_spectral", counting)
        rc = main([
            "run", "--engine", "spectral", "--A", "1e-3", "--B", "0.1", "--L", "1",
            "--N0", "3", "--T", "0.1", "--modes", "8", "--samples", "11",
            "--outdir", str(tmp_path), "--name", "once",
        ])
        assert rc == 0
        assert len(calls) == 1
        payload = json.loads((tmp_path / "once.json").read_text())
        assert len(payload["eigenvalues"]) == 8

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read ic_file"),
        ("0.0\n0.5\n", "it needs two: z,value"),
    ])
    def test_unreadable_ic_file_exit_code(self, tmp_path, capsys, content, message):
        ic_file = tmp_path / "ic.csv"
        if content is not None:
            ic_file.write_text(content)
        args = self.run_args(tmp_path, extra=("--ic", "sampled", "--ic-file", str(ic_file)))
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and message in err and str(ic_file) in err
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("engine", ["fdm", "parabolic", "spectral"])
    def test_non_finite_ic_file_refused(self, tmp_path, capsys, engine):
        ic_file = tmp_path / "ic.csv"
        ic_file.write_text("0,6\n0.25,nan\n0.5,0\n")
        rc = main([
            "run", "--engine", engine, "--A", "1e-3", "--B", "0.1", "--L", "1", "--N0", "3",
            "--T", "0.1", "--n-z", "32", "--modes", "8", "--samples", "11", "--ic", "sampled",
            "--ic-file", str(ic_file), "--outdir", str(tmp_path), "--name", "nan",
        ])
        assert rc != 0
        assert "finite" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["ic.csv"]

    @pytest.mark.parametrize("command", [
        ("run", "--engine", "spectral"),
        ("compare",),
        ("sweep", "--engine", "spectral", "--axis", "A", "--values", "1e-3,2e-3,3e-3"),
        ("sweep", "--engine", "fdm", "--axis", "B", "--values", "0.1,0.2"),
    ])
    def test_initial_condition_read_once(self, tmp_path, monkeypatch, command):
        # a triangle, whose trapezoid mass is exactly N0 = 3
        ic_file = tmp_path / "ic.csv"
        ic_file.write_text("0,6\n0.25,3\n0.5,0\n")
        reads = []
        loadtxt = np.loadtxt

        def counting(*args, **kwargs):
            reads.append(args)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting)
        assert main([
            *command, "--A", "1e-3", "--B", "0.1", "--L", "1", "--N0", "3", "--T", "0.5",
            "--n-z", "64", "--modes", "20", "--samples", "51", "--ic", "sampled",
            "--ic-file", str(ic_file), "--outdir", str(tmp_path), "--name", "ic",
        ]) == 0
        assert len(reads) == 1

    def test_physical_parameter_route(self, tmp_path):
        rc = main([
            "run", "--engine", "fdm", "--d", "1", "--D", "1", "--tau-r", "0.1",
            "--tau-a", "0.01", "--k-a", "100", "--n0", "3",
            "--T", "0.1", "--n-z", "32", "--outdir", str(tmp_path), "--name", "phys",
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "phys.json").read_text())
        assert payload["params"] == {"A": 0.01, "B": 0.1, "L": 1.0, "N0": 3.0}

    def test_spectral_run_with_diagnostics(self, tmp_path):
        rc = main([
            "run", "--engine", "spectral", "--A", "0.5", "--B", "1e-3", "--L", "0.1",
            "--N0", "3", "--T", "0.5", "--modes", "12", "--samples", "51",
            "--outdir", str(tmp_path), "--name", "spec",
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "spec.json").read_text())
        assert len(payload["eigenvalues"]) == 12
        for alpha, m in zip(payload["eigenvalues"], payload["anchors"]):
            assert abs(alpha - 2 * m * math.pi) < 0.5
        # the modal diagnostics are written once, in the series metadata
        assert "spectral_diagnostics" not in payload
        assert payload["meta"]["diagnostics"]["conservation_residual_t0"] < 1e-12
        assert sorted(path.name for path in tmp_path.iterdir()) == ["spec.csv", "spec.json"]

    def test_eigen_dump(self, tmp_path):
        rc = main([
            "eigen-dump", "--A", "0.5", "--B", "1e-3", "--L", "0.1", "--N0", "3",
            "--alpha-min", "0.1", "--alpha-max", "40", "--points", "200",
            "--outdir", str(tmp_path), "--name", "diag",
        ])
        assert rc == 0
        body = (tmp_path / "diag_eigen_grid.csv").read_text().splitlines()
        header = body[1] if body[0].startswith("#") else body[0]
        assert header == "alpha,f1,f2,re_E,im_E"
        data = [line for line in body if not line.startswith(("#", "alpha"))]
        assert len(data) == 200

    @pytest.mark.parametrize("flags", [
        ("--points", "-5"), ("--points", "1"), ("--alpha-min", "5", "--alpha-max", "1"),
        ("--alpha-min", "0"), ("--alpha-min", "-1"), ("--alpha-max", "inf"),
        ("--alpha-min", "nan"), ("--points", "1000001"),
    ])
    def test_eigen_dump_rejects_bad_range(self, tmp_path, capsys, flags):
        rc = main([
            "eigen-dump", "--A", "0.5", "--B", "1e-3", "--L", "0.1", "--N0", "3",
            *flags, "--outdir", str(tmp_path), "--name", "diag",
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("configuration error: eigen-dump needs")
        assert not (tmp_path / "diag_eigen_grid.csv").exists()

    @staticmethod
    def recording_pool(monkeypatch):
        """Bind a stand-in executor that records its size and maps in process."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        return sizes

    def b_sweep_args(self, tmp_path, workers):
        return [
            "sweep", "--engine", "fdm", "--axis", "B", "--values", "1e-3,1e-2",
            "--A", "0.01", "--L", "1", "--N0", "3", "--T", "0.05", "--n-z", "16",
            "--workers", str(workers), "--outdir", str(tmp_path), "--name", "w",
        ]

    def test_pool_no_larger_than_the_sweep(self, tmp_path, monkeypatch):
        sizes = self.recording_pool(monkeypatch)
        assert main(self.b_sweep_args(tmp_path, cli.MAX_WORKERS)) == 0
        assert sizes == [2]
        assert sorted(self.sweep_data(tmp_path)) == ["w_B0.001.csv", "w_B0.01.csv"]

    @pytest.mark.parametrize("workers", [0, -1, cli.MAX_WORKERS + 1, 5000])
    def test_worker_count_bounded(self, tmp_path, capsys, monkeypatch, workers):
        # refused at the boundary, before any pool is asked for
        sizes = self.recording_pool(monkeypatch)
        assert main(self.b_sweep_args(tmp_path, workers)) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"configuration error: workers must be between 1 and {cli.MAX_WORKERS}, got {workers}"
        )
        assert sizes == []
        assert not (tmp_path / "w_index.json").exists()

    def test_sweep_rejects_colliding_file_names(self, tmp_path, capsys):
        # both values print as 0.1 with 6 significant digits
        rc = main([
            "sweep", "--engine", "fdm", "--axis", "L", "--values", "0.1,2,0.1000001",
            "--A", "0.01", "--B", "0.1", "--N0", "3", "--T", "0.1", "--n-z", "16",
            "--outdir", str(tmp_path), "--name", "c",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "0.1 and 0.1000001" in err and "c_L0.1.csv" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("probes, message", [
        # both print as 0.25 with 6 significant digits
        ("0.25,0.2500001", "probes 0.25 and 0.2500001 both name column N_at_0.25"),
        # one key of a series' probes
        ("0,-0", "probes 0.0 and -0.0 both name column N_at_0"),
    ])
    @pytest.mark.parametrize("engine", ["fdm", "spectral", "compare"])
    def test_run_rejects_colliding_probe_columns(self, tmp_path, capsys, engine, probes, message):
        rc = main([
            "run", "--engine", engine, "--probes", probes,
            "--A", "0.01", "--B", "0.1", "--L", "1", "--N0", "3", "--T", "0.1", "--n-z", "16",
            "--outdir", str(tmp_path), "--name", "c",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert message in err
        assert not list(tmp_path.iterdir())

    def test_sweep_writes_family_and_index(self, tmp_path):
        rc = main([
            "sweep", "--engine", "fdm", "--axis", "B", "--values", "1e-3,1e-2",
            "--A", "0.01", "--L", "1", "--N0", "3", "--T", "0.3", "--n-z", "16",
            "--outdir", str(tmp_path), "--name", "fam",
        ])
        assert rc == 0
        index = json.loads((tmp_path / "fam_index.json").read_text())
        assert index["axis"] == "B"
        assert index["files"] == ["fam_B0.001.csv", "fam_B0.01.csv"]
        for f in index["files"]:
            assert (tmp_path / f).exists()

    def test_sweep_parallel_workers_match_serial(self, tmp_path):
        args = [
            "sweep", "--engine", "fdm", "--axis", "L", "--values", "0.5,2",
            "--A", "0.01", "--B", "0.1", "--N0", "3", "--T", "0.2", "--n-z", "16",
            "--name", "w",
        ]
        main(args + ["--outdir", str(tmp_path / "serial"), "--workers", "1"])
        main(args + ["--outdir", str(tmp_path / "par"), "--workers", "2"])
        for f in ("w_L0.5.csv", "w_L2.csv"):
            a = (tmp_path / "serial" / f).read_text().splitlines()[1:]
            b = (tmp_path / "par" / f).read_text().splitlines()[1:]
            assert a == b

    @staticmethod
    def sweep_data(outdir, name="w"):
        """Bytes of each sweep CSV after its config line."""
        index = json.loads((outdir / f"{name}_index.json").read_text())
        return {f: (outdir / f).read_bytes().split(b"\n", 1)[1] for f in index["files"]}

    def test_same_grid_sweep_needs_no_pool(self, tmp_path, monkeypatch):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a same-grid sweep must not start a process pool")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", NoPool)
        rc = main([
            "sweep", "--engine", "fdm", "--axis", "L", "--values", "0.5,2", "--workers", "2",
            "--A", "0.01", "--B", "0.1", "--N0", "3", "--T", "0.2", "--n-z", "16",
            "--outdir", str(tmp_path), "--name", "w",
        ])
        assert rc == 0
        assert sorted(self.sweep_data(tmp_path)) == ["w_L0.5.csv", "w_L2.csv"]

    @pytest.mark.parametrize("engine, axis, values", [
        ("fdm", "A", "0.005,0.05"), ("fdm", "N0", "1,3"), ("parabolic", "L", "0,2"),
    ])
    def test_sweep_bytes_independent_of_workers(self, tmp_path, engine, axis, values):
        args = [
            "sweep", "--engine", engine, "--axis", axis, "--values", values,
            "--A", "0.01", "--B", "0.1", "--L", "1", "--N0", "3", "--T", "0.1", "--n-z", "16",
            "--name", "w",
        ]
        assert main(args + ["--outdir", str(tmp_path / "serial"), "--workers", "1"]) == 0
        assert main(args + ["--outdir", str(tmp_path / "par"), "--workers", "2"]) == 0
        serial = self.sweep_data(tmp_path / "serial")
        assert len(serial) == 2
        assert serial == self.sweep_data(tmp_path / "par")

    def test_B_sweep_points_match_single_runs(self, tmp_path):
        common = ["--A", "0.01", "--L", "1", "--N0", "3", "--T", "0.2", "--n-z", "16"]
        assert main(["sweep", "--engine", "fdm", "--axis", "B", "--values", "1e-3,0.1",
                     "--workers", "2", *common, "--outdir", str(tmp_path), "--name", "w"]) == 0
        swept = self.sweep_data(tmp_path)
        for B in ("1e-3", "0.1"):
            assert main(["run", "--engine", "fdm", "--B", B, *common,
                         "--outdir", str(tmp_path), "--name", "one"]) == 0
            single = (tmp_path / "one.csv").read_bytes().split(b"\n", 1)[1]
            assert swept[f"w_B{float(B):g}.csv"] == single

    @pytest.mark.parametrize("values, T, horizons", [
        ("0.1,0.2,0.3", ("--T", "0.05"), (0.05, 0.05, 0.05)),
        ("0.5,1", (), (2.0, 10.0)),  # B = 1 extends the horizon to T = 10
    ])
    def test_parabolic_B_sweep_sums_each_point(self, tmp_path, monkeypatch, values, T, horizons):
        # one pole sum a point on its own horizon, and no march
        calls, to_series = [], poles.to_series

        def counting(p, ic, tgrid, probes=()):
            calls.append(tgrid[-1])
            return to_series(p, ic, tgrid, probes)

        def no_march(*args, **kwargs):
            raise AssertionError("a march started")

        monkeypatch.setattr(poles, "to_series", counting)
        monkeypatch.setattr(fdm, "march", no_march)
        monkeypatch.setattr(validate, "march", no_march)
        common = ["--A", "0.01", "--L", "1", "--N0", "3", "--n-z", "8", *T]
        assert main(["sweep", "--engine", "parabolic", "--axis", "B", "--values", values,
                     *common, "--outdir", str(tmp_path), "--name", "w"]) == 0
        assert calls == list(horizons)
        swept = self.sweep_data(tmp_path)
        # the engine treats B as zero: points on one horizon write the same rows
        assert len(set(swept.values())) == len(set(horizons))
        for B in values.split(","):
            assert main(["run", "--engine", "parabolic", "--B", B, *common,
                         "--outdir", str(tmp_path), "--name", "one"]) == 0
            single = (tmp_path / "one.csv").read_bytes().split(b"\n", 1)[1]
            assert swept[f"w_B{float(B):g}.csv"] == single

    def test_fdm_B_sweep_on_one_grid_marches_once_without_a_pool(self, tmp_path, monkeypatch):
        # every B >= 0.0025 takes the default lambda's cap: one grid, one batch
        calls, march = [], fdm.march

        def counting_march(*args, **kwargs):
            calls.append(len(args[1]))
            return march(*args, **kwargs)

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a one-grid sweep must not start a process pool")

        monkeypatch.setattr(fdm, "march", counting_march)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", NoPool)
        values = ("0.01", "0.05", "0.1", "0.5")
        common = ["--A", "0.01", "--L", "1", "--N0", "3", "--T", "0.05", "--n-z", "16"]
        assert main(["sweep", "--engine", "fdm", "--axis", "B", "--values", ",".join(values),
                     "--workers", "2", *common, "--outdir", str(tmp_path), "--name", "w"]) == 0
        assert calls == [4]
        swept = self.sweep_data(tmp_path)
        for B in values:
            assert main(["run", "--engine", "fdm", "--B", B, *common,
                         "--outdir", str(tmp_path), "--name", "one"]) == 0
            assert swept[f"w_B{B}.csv"] == (tmp_path / "one.csv").read_bytes().split(b"\n", 1)[1]
        assert len(set(swept.values())) == len(values)

    def test_spectral_sweep_points_each_a_pool_task(self, tmp_path, monkeypatch):
        args = ["sweep", "--engine", "spectral", "--axis", "L", "--values", "0.5,1,2",
                "--A", "0.01", "--B", "0.1", "--N0", "3", "--T", "0.2", "--modes", "20",
                "--samples", "51", "--name", "w"]
        assert main(args + ["--outdir", str(tmp_path / "serial")]) == 0
        sizes = self.recording_pool(monkeypatch)
        assert main(args + ["--outdir", str(tmp_path / "par"), "--workers", "2"]) == 0
        assert sizes == [2]
        assert self.sweep_data(tmp_path / "serial") == self.sweep_data(tmp_path / "par")

    def test_sweep_axis_applies_to_physical_inputs(self, tmp_path):
        # d = D = 1, tau_r = 0.1, tau_a = 0.01, k_a = 100, n0 = 3 is
        # A = 0.01, B = 0.1, L = 1, N0 = 3; the swept L replaces L = 1
        common = ["--T", "0.1", "--n-z", "16", "--outdir", str(tmp_path)]
        assert main(["sweep", "--engine", "fdm", "--axis", "L", "--values", "0.5,2",
                     "--d", "1", "--D", "1", "--tau-r", "0.1", "--tau-a", "0.01",
                     "--k-a", "100", "--n0", "3", *common, "--name", "w"]) == 0
        swept = self.sweep_data(tmp_path)
        for L in ("0.5", "2"):
            assert main(["run", "--engine", "fdm", "--A", "0.01", "--B", "0.1", "--L", L,
                         "--N0", "3", *common, "--name", "one"]) == 0
            assert swept[f"w_L{L}.csv"] == (tmp_path / "one.csv").read_bytes().split(b"\n", 1)[1]
        assert swept["w_L0.5.csv"] != swept["w_L2.csv"]

    def test_sweep_extends_horizon_for_slow_waves(self, tmp_path):
        rc = main([
            "sweep", "--engine", "fdm", "--axis", "B", "--values", "1",
            "--A", "0.01", "--L", "1", "--N0", "3", "--n-z", "16",
            "--outdir", str(tmp_path), "--name", "slow",
        ])
        assert rc == 0
        ser = read_series_csv(tmp_path / "slow_B1.csv")
        assert ser.t[-1] == pytest.approx(10.0)

    def test_compare_subcommand(self, tmp_path):
        rc = main([
            "compare", "--pair", "fdm,parabolic", "--A", "0.01", "--B", "1e-4",
            "--L", "1", "--N0", "3", "--T", "0.5", "--n-z", "48",
            "--outdir", str(tmp_path), "--name", "x",
        ])
        assert rc == 0
        report = json.loads((tmp_path / "x_report.json").read_text())
        assert report["passed"] is True
        assert (tmp_path / "x_fdm.csv").exists()
        assert (tmp_path / "x_parabolic.csv").exists()
        assert "RESULT: PASS" in (tmp_path / "x_report.txt").read_text()

    def test_outdir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERSORB_OUTDIR", str(tmp_path / "envout"))
        rc = main([
            "run", "--engine", "fdm", "--A", "0.01", "--B", "0.1", "--L", "1",
            "--N0", "3", "--T", "0.1", "--n-z", "16", "--name", "envrun",
        ])
        assert rc == 0
        assert (tmp_path / "envout" / "envrun.csv").exists()

    def test_invalid_probe_rejected(self, tmp_path, capsys):
        rc = main(self.run_args(tmp_path, extra=("--probes", "0,0.8")))
        assert rc == 2
        assert "probe" in capsys.readouterr().err

    @pytest.mark.parametrize("probes", ["nan", "inf", "0,-inf"])
    def test_non_finite_probe_rejected(self, tmp_path, capsys, probes):
        assert main(self.run_args(tmp_path, extra=("--probes", probes))) == 2
        assert capsys.readouterr().err.startswith("configuration error: probe z* = ")
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("n_z", ["0", "1", "7"])
    def test_grid_floor_exit_code(self, tmp_path, capsys, n_z):
        assert main(self.run_args(tmp_path, extra=("--n-z", n_z))) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: n_z must be at least 8, got {n_z}")
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("command, message", [
        # the grid of a pair's second engine: 1.15e7 fdm levels, refused before the pole sum
        (("compare", "--pair", "parabolic,fdm", "--lam", "0.025", "--T", "9000"),
         "11520001 levels x 1 point(s) exceed"),
        (("compare", "--pair", "parabolic,fdm", "--lam", "0.5"), "exceeds the stability bound"),
        (("sweep", "--engine", "fdm", "--axis", "B", "--values", "0.1,1e-3", "--lam", "0.1"),
         "exceeds the stability bound sqrt(B) = 0.03162"),
        (("run", "--engine", "fdm", "--T", "1e6"), "exceed the march record bound"),
        # 4.05e6 levels a point, past the bound only as a batch of three
        (("sweep", "--engine", "fdm", "--axis", "L", "--values", "1,2,3", "--T", "2000"),
         "x 3 point(s) exceed the march record bound"),
    ])
    def test_bad_grid_refused_before_any_march(self, tmp_path, capsys, monkeypatch, command,
                                               message):
        def no_march(*args, **kwargs):
            raise AssertionError("a march started")

        monkeypatch.setattr(cli.fdm, "march", no_march)
        monkeypatch.setattr(cli.validate, "march", no_march)
        monkeypatch.setattr(cli.poles, "to_series", no_march)
        args = [*command, "--A", "0.01", "--B", "1e-3", "--N0", "3", "--n-z", "16",
                "--outdir", str(tmp_path)]
        args += [] if "--T" in command else ["--T", "0.05"]
        args += [] if "L" in command else ["--L", "1"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, message", [
        # T / (lam h) is past any float: no level count at all
        (("--T", "1e300", "--lam", "1e-10"), "T = 1e+300 in steps of"),
        # 8,001 levels, but 465 rows of 10^6 + 1 nodes
        (("--T", "1e-4", "--n-z", "1000000"), "465 rows of 1000001 nodes x 1 point(s)"),
    ])
    def test_oversized_grid_refused_before_any_march(self, tmp_path, capsys, monkeypatch, flags,
                                                     message):
        def no_march(*args, **kwargs):
            raise AssertionError("a march started")

        monkeypatch.setattr(cli.fdm, "march", no_march)
        args = ["run", "--engine", "fdm", "--A", "0.01", "--B", "0.1", "--L", "1", "--N0", "3",
                *flags, "--outdir", str(tmp_path)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and message in err
        assert "march record bound" in err
        assert list(tmp_path.iterdir()) == []

    def test_mode_count_bounded(self, tmp_path, capsys):
        # refused at the boundary, before any root scan starts
        args = self.run_args(tmp_path, extra=("--modes", str(cli.MAX_MODES + 1)))
        args[args.index("--engine") + 1] = "spectral"
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: modes must be between 1 and {cli.MAX_MODES}")
        assert "Gram matrix" in err
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("command", [
        ("compare", "--pair", "fdm,fdm"),
        ("compare", "--pair", "spectral,spectral"),
        ("run", "--engine", "compare", "--pair", "parabolic,parabolic"),
    ])
    def test_pair_of_one_engine_refused(self, tmp_path, capsys, command):
        args = [*command, "--A", "0.01", "--B", "0.1", "--L", "1", "--N0", "3", "--T", "0.02",
                "--n-z", "16", "--modes", "4", "--samples", "11", "--outdir", str(tmp_path)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: pair must name two different engines")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ("compare", "--pair", " parabolic, fdm "),
        ("run", "--engine", "compare", "--pair", "parabolic ,fdm"),
    ])
    def test_pair_names_stripped_as_in_the_config_file(self, tmp_path, command):
        cfg_file = tmp_path / "pair.cfg"
        cfg_file.write_text("pair = parabolic, fdm\n")
        parser = make_parser()
        from_flag = build_config(parser.parse_args(list(command)))
        from_file = build_config(parser.parse_args([command[0], "--config", str(cfg_file)]))
        assert from_flag.pair == from_file.pair == ["parabolic", "fdm"]
        assert main([*command, "--A", "0.01", "--B", "1e-4", "--L", "1", "--N0", "3",
                     "--T", "0.5", "--n-z", "48", "--outdir", str(tmp_path), "--name", "x"]) == 0
        assert (tmp_path / "x_parabolic.csv").exists() and (tmp_path / "x_fdm.csv").exists()

    @pytest.mark.parametrize("command", [
        ("run", "--engine", "spectral"),
        ("sweep", "--engine", "spectral", "--axis", "L", "--values", "1,2"),
        ("compare", "--pair", "spectral,fdm"),
        ("run", "--engine", "compare", "--pair", "parabolic,spectral"),
    ])
    def test_modal_table_bounded(self, tmp_path, capsys, monkeypatch, command):
        # refused before any modal work starts, so a missing check fails
        # here instead of building a table of gigabytes
        def no_modal_work(*args, **kwargs):
            raise AssertionError("modal work started")

        monkeypatch.setattr(cli.spectral, "solve_spectral", no_modal_work)
        monkeypatch.setattr(cli.spectral, "to_series", no_modal_work)
        modes = 50
        samples = cli.MAX_MODAL_TERMS // modes + 1
        args = [*command, "--A", "0.01", "--B", "0.1", "--N0", "3", "--T", "0.02", "--n-z", "16",
                "--modes", str(modes), "--samples", str(samples), "--outdir", str(tmp_path)]
        if command[0] != "sweep":
            args += ["--L", "1"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: samples x modes must be at most {cli.MAX_MODAL_TERMS}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ("run", "--engine", "parabolic"),
        ("compare", "--pair", "fdm,parabolic"),
        ("sweep", "--engine", "parabolic", "--axis", "L", "--values", "0.5,1"),
    ])
    @pytest.mark.parametrize("flags, terms", [
        # 801 samples of t_1 = 1.25e-12: every beta up to 5.66e6, in 900,317 intervals
        (("--T", "1e-9"), "801 x 900317"),
        # 10^6 samples at T = 2: every beta up to 4472, in 712 intervals
        (("--samples", "1000000"), "1000000 x 712"),
    ])
    def test_parabolic_sum_bounded(self, tmp_path, capsys, monkeypatch, command, flags, terms):
        # refused before the roots are sought or the outdir made
        def no_work(*args, **kwargs):
            raise AssertionError("an engine started")

        for module, name in ((cli.poles, "roots"), (cli.poles, "to_series"), (cli.fdm, "march")):
            monkeypatch.setattr(module, name, no_work)
        args = [*command, "--A", "0.01", "--B", "0.1", "--N0", "3", "--n-z", "16", *flags,
                "--outdir", str(tmp_path / "out")]
        args += [] if "--T" in flags else ["--T", "2"]
        args += [] if "sweep" in command else ["--L", "1"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: samples x roots must be at most {cli.MAX_MODAL_TERMS},"
                              f" got {terms}")
        assert not (tmp_path / "out").exists()

    def test_parabolic_sum_bound_is_inclusive(self):
        # 10^4 samples: T = 0.01014 takes 1000 intervals, T = 0.01013 takes 1001
        parser = make_parser()
        p = Params(A=0.01, B=0.0, L=1.0, N0=3.0)
        for T, roots in (("0.01014", 1000), ("0.01013", 1001)):
            cfg = build_config(parser.parse_args(["run", "--engine", "parabolic", "--T", T,
                                                  "--samples", "10000"]))
            assert poles.interval_count(cfg.T / (cfg.samples - 1)) == roots
        assert cli._grid(replace(cfg, T=0.01014), "parabolic", p).size == 10000
        with pytest.raises(cli.ConfigError, match="got 10000 x 1001"):
            cli._grid(cfg, "parabolic", p)

    def test_modal_table_bound_is_inclusive_and_modal_only(self):
        modes = 50
        at_bound = ["--modes", str(modes), "--samples", str(cli.MAX_MODAL_TERMS // modes)]
        past = ["--modes", str(modes), "--samples", str(cli.MAX_MODAL_TERMS // modes + 1)]
        parser = make_parser()
        cfg = build_config(parser.parse_args(["run", "--engine", "spectral", *at_bound]))
        assert cfg.samples * cfg.modes == cli.MAX_MODAL_TERMS
        for args in (["run", "--engine", "fdm", *past], ["compare", "--pair", "parabolic,fdm", *past]):
            assert build_config(parser.parse_args(args)).samples == cli.MAX_MODAL_TERMS // modes + 1
        with pytest.raises(cli.ConfigError, match="samples x modes"):
            build_config(parser.parse_args(["compare", "--pair", "fdm,spectral", *past]))

    def test_import_starts_no_process_pool_machinery(self):
        # only a sweep of two or more grid groups, on several workers, starts a pool
        code = "import sys, hypersorb.cli; print('concurrent.futures.process' in sys.modules)"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        assert out.stdout.strip() == "False"

    def test_documented_zero_slope_recipe(self, tmp_path):
        # README recipe: zoomed series of the oscillatory landmark shows a
        # continuous (zero) initial slope in the emitted sigma column
        rc = main([
            "run", "--engine", "spectral", "--A", "1e-3", "--B", "0.1", "--L", "1",
            "--N0", "3", "--T", "0.02", "--samples", "201", "--modes", "50",
            "--outdir", str(tmp_path), "--name", "zoom",
        ])
        assert rc == 0
        ser = read_series_csv(tmp_path / "zoom.csv")
        slopes = np.diff(ser.sigma) / np.diff(ser.t)
        c_star = 1.0 / math.sqrt(0.1)
        assert abs(slopes[0]) < 0.05 * 3.0 * c_star
        assert abs(slopes[0]) < 0.1 * np.max(np.abs(slopes))


def readme_commands() -> list[list[str]]:
    """argv of each `hypersorb ...` command in README's bash blocks, continuations joined."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        blocks = fh.read().split("```bash\n")[1:]
    text = "\n".join(block.split("```", 1)[0] for block in blocks).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("hypersorb ")]


def test_readme_commands_run(tmp_path, capsys):
    commands = readme_commands()
    assert len(commands) >= 8
    for i, argv in enumerate(commands):
        assert main([*argv, "--outdir", str(tmp_path / str(i))]) == 0, argv


def data_bytes(path) -> bytes:
    """A CLI CSV after its config line."""
    return path.read_bytes().split(b"\n", 1)[1]


class TestWrittenSamples:
    """Every engine's CSV holds --samples evenly spread levels, both ends included."""

    P = Params(A=0.01, B=0.1, L=1.0, N0=3.0)
    COMMON = ["--A", "0.01", "--B", "0.1", "--L", "1", "--N0", "3", "--n-z", "32", "--T", "0.5"]
    PROBES = [0.0, 0.25, 0.45]  # the CLI default

    def full_series(self, engine):
        grid = fdm.Grid.from_lambda(32, 0.5, fdm.default_lambda(self.P.B))
        if engine == "fdm":
            return fdm.run_fdm(self.P, step_ic(), grid, probes=self.PROBES)
        # the pole sum has no levels: its series at as many times as fdm has levels
        return poles.to_series(self.P, step_ic(), np.linspace(0.0, 0.5, grid.n_t + 1),
                               probes=self.PROBES)

    def test_thin_series_thins_the_levels_and_keeps_the_rest(self):
        full = self.full_series("fdm")
        n = full.t.size
        thin = thin_series(full, 11)
        idx = thin_indices(n, 11)
        assert thin.t.size == 11 and thin.t[0] == 0.0 and thin.t[-1] == full.t[-1]
        for a, b in [(thin.t, full.t), (thin.sigma, full.sigma), (thin.surface, full.surface)]:
            assert np.array_equal(a, b[idx])
        assert sorted(thin.probes) == self.PROBES
        for z in self.PROBES:
            assert np.array_equal(thin.probes[z], full.probes[z][idx])
        assert thin.conservation is full.conservation
        assert thin.rows is full.rows and thin.row_times is full.row_times
        assert thin.row_z is full.row_z and thin.params is full.params and thin.meta is full.meta
        assert thin_series(full, n) is full and thin_series(full, 10**7) is full

    # on COMMON's grid fdm marches 1281 levels, more than 801; parabolic evaluates 801 times
    @pytest.mark.parametrize("command, files, codes", [
        (("run", "--engine", "fdm"), ["x.csv"], (0,)),
        (("run", "--engine", "parabolic"), ["x.csv"], (0,)),
        # compare exits 1 when the engines disagree past 5 % of sigma_eq; it writes both series
        (("compare", "--pair", "parabolic,fdm"), ["x_parabolic.csv", "x_fdm.csv"], (0, 1)),
        (("sweep", "--engine", "fdm", "--axis", "L", "--values", "0.5,2"),
         ["x_L0.5.csv", "x_L2.csv"], (0,)),
    ])
    def test_default_samples_rows_with_both_ends(self, tmp_path, command, files, codes):
        assert main([*command, *self.COMMON, "--outdir", str(tmp_path), "--name", "x"]) in codes
        for f in files:
            ser = read_series_csv(tmp_path / f)
            assert ser.t.size == cli.RunConfig().samples == 801
            assert ser.t[0] == 0.0 and ser.t[-1] == pytest.approx(0.5)

    # fdm writes every level at any count from its level count up; the pole sum evaluates
    # exactly the count asked, and refuses 10^7 samples by the samples x roots bound
    @pytest.mark.parametrize("engine", ["fdm", "parabolic"])
    def test_samples_at_the_level_count_write_every_level(self, tmp_path, engine):
        full = self.full_series(engine)
        write_series_csv(full, tmp_path / "full.csv")
        for samples, code in ((full.t.size, 0), (10**7, 2 if engine == "parabolic" else 0)):
            assert main(["run", "--engine", engine, *self.COMMON, "--samples", str(samples),
                         "--outdir", str(tmp_path), "--name", "x"]) == code
            # a refused run writes nothing: the CSV is still the last one written
            assert data_bytes(tmp_path / "x.csv") == (tmp_path / "full.csv").read_bytes()
        # one level fewer thins
        assert main(["run", "--engine", engine, *self.COMMON, "--samples", str(full.t.size - 1),
                     "--outdir", str(tmp_path), "--name", "x"]) == 0
        assert read_series_csv(tmp_path / "x.csv").t.size == full.t.size - 1

    # fdm's JSON comes from its full march whatever --samples is; the pole sum has no march,
    # so its full series is the --samples times it evaluates, and 10^7 of them are refused
    @pytest.mark.parametrize("command, json_name", [
        (("run", "--engine", "fdm"), "x.json"),
        (("run", "--engine", "parabolic"), "x.json"),
        (("compare", "--pair", "parabolic,fdm"), "x_report.json"),
    ])
    def test_json_from_the_full_series(self, tmp_path, command, json_name):
        payloads = []
        for samples in ("801", "10000000"):
            out = tmp_path / samples
            code = main([*command, *self.COMMON, "--samples", samples, "--outdir", str(out), "--name", "x"])
            if code == 2:
                assert "parabolic" in command[-1] and samples == "10000000" and not out.exists()
                continue
            payload = json.loads((out / json_name).read_text())
            payload.pop("config")
            payloads.append(payload)
        if "parabolic" not in command[-1]:
            assert payloads[0] == payloads[1]
            return
        ser = poles.to_series(self.P, step_ic(), np.linspace(0.0, 0.5, 801), probes=self.PROBES)
        if command[0] == "run":
            expected = {"engine": "parabolic", "max_conservation_residual": ser.conservation.max(),
                        "sigma_final": ser.sigma[-1], "meta": ser.meta, "params": asdict(self.P)}
            assert ser.meta["roots"] > 0
        else:
            grid = fdm.Grid.from_lambda(32, 0.5, fdm.default_lambda(self.P.B))
            march = fdm.run_fdm(self.P, step_ic(), grid, probes=self.PROBES)
            expected = validate.compare_engines(ser, march, np.linspace(0.025, 0.5, 401)).to_dict()
        assert payloads == [json.loads(json.dumps(expected))]

    def test_spectral_series_written_as_sampled(self, tmp_path):
        # the modal engine evaluates exactly --samples levels: nothing is thinned
        args = ["--modes", "8", "--samples", "101"]
        assert main(["run", "--engine", "spectral", *self.COMMON, *args,
                     "--outdir", str(tmp_path), "--name", "x"]) == 0
        sol = spectral.solve_spectral(self.P, step_ic(), 8)
        ser = spectral.to_series(sol, np.linspace(0.0, 0.5, 101), probes=self.PROBES)
        write_series_csv(ser, tmp_path / "direct.csv")
        assert data_bytes(tmp_path / "x.csv") == (tmp_path / "direct.csv").read_bytes()

    def test_parabolic_series_written_as_sampled(self, tmp_path):
        # the pole sum evaluates exactly --samples times, for a run and for a comparison's
        # parabolic side: nothing is thinned
        args = [*self.COMMON, "--samples", "101", "--name", "x"]
        assert main(["run", "--engine", "parabolic", *args, "--outdir", str(tmp_path)]) == 0
        ser = poles.to_series(self.P, step_ic(), np.linspace(0.0, 0.5, 101), probes=self.PROBES)
        write_series_csv(ser, tmp_path / "direct.csv")
        assert data_bytes(tmp_path / "x.csv") == (tmp_path / "direct.csv").read_bytes()
        out = tmp_path / "compare"
        assert main(["compare", "--pair", "parabolic,fdm", *args, "--outdir", str(out)]) in (0, 1)
        assert data_bytes(out / "x_parabolic.csv") == data_bytes(tmp_path / "x.csv")
