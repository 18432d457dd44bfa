"""CSV/JSON contracts and the command-line front end."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from hypersorb import cli, spectral
from hypersorb.cli import build_config, load_config_file, main, make_parser
from hypersorb.errors import InvalidInput
from hypersorb.series import TimeSeries
from hypersorb.seriesio import CSV_BLOCK_ROWS, format_float, read_series_csv, write_series_csv


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

    def test_malformed_line_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("engine fdm\n")
        assert main(["run", "--config", str(cfg_file)]) == 2

    @pytest.mark.parametrize("line, message", [
        ("validate = 1", "unknown key(s) in config file"),  # a method, not a field
        ("lamda = 5", "unknown key(s) in config file"),  # a typo
        ("A = abc", "bad value for A"),
        ("n_z = 16.7", "bad value for n_z"),  # not an integer
    ])
    def test_bad_line_exit_code(self, tmp_path, capsys, line, message):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"engine = fdm\nA = 0.01\nB = 0.1\nL = 1\nN0 = 3\nT = 0.05\n{line}\n")
        assert main(["run", "--config", str(cfg_file), "--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and message in err
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
        ("fdm", "--lam", "0"), ("parabolic", "--r", "inf"), ("parabolic", "--r", "-0.4"),
    ])
    def test_bad_step_or_horizon_exit_code(self, tmp_path, capsys, engine, flag, value):
        args = self.run_args(tmp_path, extra=(flag, value))
        args[args.index("--engine") + 1] = engine
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert f"{flag[2:]} must be finite and strictly positive" in err
        assert not (tmp_path / "t.json").exists()

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
            "--diagnostics", "--outdir", str(tmp_path), "--name", "spec",
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "spec.json").read_text())
        assert len(payload["eigenvalues"]) == 12
        for alpha, m in zip(payload["eigenvalues"], payload["anchors"]):
            assert abs(alpha - 2 * m * math.pi) < 0.5
        grid_csv = (tmp_path / "spec_eigen_grid.csv").read_text().splitlines()
        header = grid_csv[1] if grid_csv[0].startswith("#") else grid_csv[0]
        assert header == "alpha,f1,f2,re_E,im_E"

    def test_eigen_dump(self, tmp_path):
        rc = main([
            "eigen-dump", "--A", "0.5", "--B", "1e-3", "--L", "0.1", "--N0", "3",
            "--alpha-min", "0.1", "--alpha-max", "40", "--points", "200",
            "--outdir", str(tmp_path), "--name", "diag",
        ])
        assert rc == 0
        body = (tmp_path / "diag_eigen_grid.csv").read_text().splitlines()
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

    def test_mode_count_bounded(self, tmp_path, capsys):
        # refused at the boundary, before any root scan starts
        args = self.run_args(tmp_path, extra=("--modes", str(cli.MAX_MODES + 1)))
        args[args.index("--engine") + 1] = "spectral"
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: modes must be between 1 and {cli.MAX_MODES}")
        assert "Gram matrix" in err
        assert not (tmp_path / "t.json").exists()

    def test_import_starts_no_process_pool_machinery(self):
        # only B and spectral sweeps on several workers need the pool
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
