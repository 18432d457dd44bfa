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
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hypersorb import cli, fdm, poles, spectral, validate
from hypersorb.cli import build_config, load_config_file, main, make_parser
from hypersorb.errors import InvalidInput
from hypersorb.params import Params, parabolic_ic, step_ic
from hypersorb.series import TimeSeries, thin_indices, thin_series
from hypersorb.seriesio import (
    CSV_BLOCK_ROWS, FLOAT_FORMAT, read_series_csv, write_csv, write_json, write_series_csv,
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
        assert FLOAT_FORMAT % math.pi == "3.1415926535897931"
        assert float(FLOAT_FORMAT % (0.1 + 0.2)) == 0.1 + 0.2

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

    def test_json_holds_plain_values_only(self, tmp_path):
        plain = {"f": 0.1, "i": -3, "a": [[1.0, 2.5]], "s": "x", "b": True, "n": None}
        path = tmp_path / "v.json"
        write_json(plain, path)
        assert json.loads(path.read_text()) == plain
        # np.float64 is a float, and prints as one
        write_json({"f": np.float64(0.1)}, path)
        assert path.read_text() == '{\n  "f": 0.1\n}\n'
        for value in (np.int64(3), 1 - 2j, np.array([1.0]), {1, 2}):
            with pytest.raises(TypeError, match="is not JSON serializable"):
                write_json({"v": value}, tmp_path / "bad.json")
            assert not (tmp_path / "bad.json").exists()
        # also inside a number list or a list of number rows, which the C encoder prints
        for value in ([1.0, np.int64(3)], [[1.0, 2.0], [1.0, 1 - 2j]]):
            with pytest.raises(TypeError, match="is not JSON serializable"):
                write_json({"v": value}, tmp_path / "bad.json")
            assert not (tmp_path / "bad.json").exists()

    def test_circular_json_payload_raises_before_the_file_exists(self, tmp_path):
        looped_list, looped_dict = [1.0], {"x": 0.5}
        looped_list.append(looped_list)
        looped_dict["self"] = looped_dict
        for payload in ({"v": looped_list}, looped_dict, {"v": [[1.0], looped_list]}):
            with pytest.raises(ValueError, match="Circular reference detected"):
                write_json(payload, tmp_path / "loop.json")
            assert not (tmp_path / "loop.json").exists()

    def test_config_echo_checked_before_the_csv_exists(self, tmp_path):
        path = tmp_path / "c.csv"
        with pytest.raises(TypeError, match="is not JSON serializable"):
            write_csv(path, ["a"], [[1.0]], config={"x": np.int64(1)})
        assert not path.exists()

    @pytest.mark.parametrize("names, columns, message", [
        (["a", "b", "c"], [[1.0], [2.0]], "header of 3 names for 2 columns"),
        (["a", "b"], [[1.0, 2.0], [3.0]], r"shapes \[\(1,\), \(2,\)\]"),
        (["a"], [np.ones((2, 2))], r"shapes \[\(2, 2\)\]: each must be 1-D"),
        (["a,b", "c"], [[1.0], [2.0]], "holds a comma or a line break"),
        (["a", "b\nc"], [[1.0], [2.0]], "holds a comma or a line break"),
        (["a\r", "b"], [[1.0], [2.0]], "holds a comma or a line break"),
        ([], [], "needs at least one column"),
    ], ids=["names-over-columns", "unequal-columns", "2d-column", "comma-name", "newline-name", "cr-name",
            "no-columns"])
    def test_csv_that_would_not_read_back_refused_before_the_file_exists(self, tmp_path, names,
                                                                          columns, message):
        path = tmp_path / "c.csv"
        with pytest.raises(InvalidInput, match=message):
            write_csv(path, names, columns)
        assert not path.exists()


# floats at the edges of the repr and of JSON's spelling, and a float subclass
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]
json_floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS), st.floats().map(np.float64))
json_ints = st.one_of(st.integers(), st.integers(-2**200, 2**200))
json_text = st.one_of(
    st.text(),
    st.text(st.characters(codec=None, categories=None), max_size=8),
    st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "\u00e9\u2028", "\U0001f600", "a,b", "],[", ": "]),
)
json_leaves = st.one_of(json_floats, json_ints, st.booleans(), st.none(), json_text)


def rows_of(elements, equal_length):
    """Lists of rows, each a list or a tuple, of one length or of any lengths."""
    def rows(k):
        row = st.lists(elements, min_size=k, max_size=k) if equal_length else st.lists(elements, max_size=4)
        return st.lists(st.one_of(row, row.map(tuple)), max_size=5)
    return st.integers(0, 3).flatmap(rows)


def nested(depth):
    """Plain payloads nested to depth: dicts (str keys, and now and then others), lists, tuples."""
    if depth == 0:
        return st.one_of(json_leaves, st.just([]), st.just({}), st.just(()))
    children = nested(depth - 1)
    keys = st.one_of(json_text, st.sampled_from([1, 2.5, True, None, math.nan]))
    return st.one_of(
        json_leaves,
        st.lists(json_floats, max_size=6),
        rows_of(json_floats, True),
        rows_of(json_floats, False),
        rows_of(st.one_of(json_floats, json_ints), True),
        rows_of(st.one_of(json_floats, json_leaves, children), True),
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_text, children, max_size=4),
        st.dictionaries(keys, children, max_size=3),
    )


def dumps_or_error(encode):
    """encode()'s text, or the type and message of what it raised."""
    try:
        return encode()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestJsonLayout:
    """write_json's bytes are json.dumps(payload, sort_keys=True, indent=2) + "\\n"."""

    # one file, removed before each example
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(payload=nested(4))
    @example(payload={"rows": [[1.0, 2.0], [3.0, math.nan]], "f": [0.5, -math.inf],
                      "mixed": [[1.0, 2], [1.0, "a,b"]], "nested": [1.0, [2.0, 3.0]]})
    @example(payload={"a": {"b": [(1.0, -0.0), (5e-324, math.inf)], "c": [[1.0], [2.0, 3.0]]}})
    @example(payload={"ints": [1, 2], "scalars": [math.nan, math.inf, -math.inf, True, None, "x"]})
    def test_bytes_equal_the_stdlib_indented_form(self, tmp_path, payload):
        path = tmp_path / "p.json"
        path.unlink(missing_ok=True)
        expected = dumps_or_error(lambda: json.dumps(payload, sort_keys=True, indent=2) + "\n")

        def written():
            write_json(payload, path)
            return path.read_text()
        got = dumps_or_error(written)
        assert got == expected
        assert path.exists() == isinstance(expected, str)



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

    def test_key_given_twice_refused_before_outdir(self, tmp_path, capsys):
        # the last value does not silently win: both lines are named
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("A = 0.01\nB = 0.1\nL = 1\nN0 = 3\nT = 0.05\n# again\nA = 5\n")
        outdir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_file), "--outdir", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {cfg_file}:7: key 'A' given twice,"
                              " on lines 1 and 7")
        assert not outdir.exists()

    BASE ="A = 0.01\nB = 0.1\nL = 1\nN0 = 3\nT = 0.02\nn_z = 16\n"

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

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        # fdm, parabolic and their comparison write the same bytes at one and two
        # BLAS threads: each command in a fresh interpreter, whose thread settings
        # replace any the environment has, into the same relative outdir; at
        # B = 1e-3 the engines agree, so the comparison passes
        common = ["--A", "0.01", "--B", "1e-3", "--L", "1", "--N0", "3", "--T", "0.2",
                  "--n-z", "16", "--outdir", "out"]
        commands = [["run", "--engine", "fdm", "--name", "f"],
                    ["run", "--engine", "parabolic", "--name", "p"],
                    ["compare", "--pair", "parabolic,fdm", "--name", "c"]]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        written = {}
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                       **dict.fromkeys(["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"],
                                       threads))
            cwd = tmp_path / threads
            cwd.mkdir()
            for command in commands:
                subprocess.run([sys.executable, "-m", "hypersorb.cli", *command, *common], cwd=cwd,
                               env=env, capture_output=True, timeout=120, check=True)
            written[threads] = {path.name: path.read_bytes() for path in (cwd / "out").iterdir()}
        assert len(written["1"]) == 8
        assert written["1"] == written["2"]

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

    @pytest.mark.parametrize("command", [
        pytest.param(("run", "--engine", "fdm"), id="command0"),
        pytest.param(("sweep", "--axis", "L", "--values", "1,2"), id="command1"),
        pytest.param(("run", "--engine", "spectral"), id="run-spectral"),
        pytest.param(("run", "--engine", "parabolic"), id="run-parabolic"),
        pytest.param(("compare",), id="compare"),
    ])
    @pytest.mark.parametrize("ic, message", [
        pytest.param(None, "ic = sampled requires ic_file", id="ic_flags0"),
        pytest.param("absent.csv", "cannot read ic_file", id="ic_flags1"),
        pytest.param("0,1\n0.25,1\n0.5,0\n", "carries mass 0.75, expected N0 = 3", id="mass"),
        pytest.param("-0.5,0\n-0.25,2\n0,6\n0.25,4\n0.5,0\n", "must be even in z*", id="odd"),
        pytest.param("0,6\n0.25,3\n0.5,1\n", "must vanish at z* = +-1/2", id="wall"),
        pytest.param("0,6\n0.25,nan\n0.5,0\n", "values must be finite", id="non-finite"),
        pytest.param("0.5,0\n0.25,3\n0,6\n", "must be strictly increasing", id="decreasing"),
        pytest.param("0,6\n", "needs matching 1-d z and value arrays", id="one-row"),
        pytest.param("0,6\n0.25,3\n0.4,0\n", "must cover [0, 1/2] or [-1/2, 1/2]", id="short"),
        pytest.param("0,6,1\n0.25,3,1\n0.5,0,1\n", "has 3 column(s); it needs two: z,value",
                     id="three-columns"),
    ])
    def test_bad_initial_condition_refused_before_the_outdir(self, tmp_path, capsys, command, ic,
                                                              message):
        # every engine of a run or comparison, and every sweep point, is checked before any runs
        self.refuse_sampled(tmp_path, capsys, command, ic, message)

    def test_sampled_data_checked_at_every_sweep_point(self, tmp_path, capsys):
        # a triangle of mass 3: the second point is refused before the first is solved
        self.refuse_sampled(
            tmp_path, capsys,
            ("sweep", "--engine", "spectral", "--axis", "N0", "--values", "3,4"),
            "0,6\n0.25,3\n0.5,0\n", "carries mass 3, expected N0 = 4",
        )

    def refuse_sampled(self, tmp_path, capsys, command, ic, message):
        """Exit 2 with message for sampled data ic (file text, a path, or None), and no outdir."""
        ic_flags = ["--ic", "sampled"]
        if ic is not None and "\n" in ic:
            (tmp_path / "ic.csv").write_text(ic)
            ic = str(tmp_path / "ic.csv")
        if ic is not None:
            ic_flags += ["--ic-file", ic]
        out = tmp_path / "out"
        assert main([*command, "--A", "0.01", "--B", "0.1", "--L", "1", "--N0", "3", "--T", "0.2",
                     "--n-z", "32", "--modes", "8", "--samples", "11", "--outdir", str(out),
                     *ic_flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and message in err
        assert not out.exists()

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

    @pytest.mark.parametrize("header, rc", [("z,value", 2), ("# z,value", 0)])
    def test_ic_file_header_line_must_be_a_comment(self, tmp_path, capsys, header, rc):
        # the reader reads numeric rows only: a bare header line is refused before the
        # outdir is made, with the rule in the message; a # header line is a comment
        ic_file = tmp_path / "ic.csv"
        ic_file.write_text(f"{header}\n0,6\n0.25,3\n0.5,0\n")
        outdir = tmp_path / "out"
        assert main(self.run_args(outdir, extra=("--ic", "sampled", "--ic-file", str(ic_file)))) == rc
        err = capsys.readouterr().err
        if rc:
            assert err.startswith("configuration error: cannot read ic_file")
            assert "a header line must start with #" in err and str(ic_file) in err
            assert not outdir.exists()
        else:
            assert err == "" and (outdir / "t.csv").exists()

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

    def test_physical_d_whose_square_overflows_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--engine", "fdm", "--d", "1e200", "--D", "1", "--tau-r", "1",
                     "--tau-a", "1", "--k-a", "1", "--n0", "1", "--outdir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: d^2 is no finite positive float")
        assert not out.exists()

    PHYSICAL = ("--d", "1", "--D", "1", "--tau-r", "0.1", "--tau-a", "0.01", "--k-a", "100",
                "--n0", "3")

    @pytest.mark.parametrize("command, flags, lines", [
        pytest.param(("run", "--engine", "fdm"), ("--A", "0.5", *PHYSICAL), "",
                     id="A-with-physical"),
        pytest.param(("run", "--engine", "fdm"), ("--n0", "3"),
                     "A = 0.01\nB = 0.1\nL = 1\nN0 = 3\n", id="file-groups-with-n0"),
        pytest.param(("run", "--engine", "spectral"), PHYSICAL, "N0 = 3\n", id="file-N0"),
        # the swept group may replace the resolved one, but not be given beside it
        pytest.param(("sweep", "--engine", "fdm", "--axis", "L", "--values", "0.5,2"),
                     ("--L", "1", *PHYSICAL), "", id="sweep-L"),
        pytest.param(("eigen-dump",), ("--B", "1e-3", *PHYSICAL), "", id="eigen-dump"),
    ])
    def test_mixed_parameter_routes_refused_before_the_outdir(self, tmp_path, capsys, command,
                                                               flags, lines):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(lines)
        out = tmp_path / "out"
        assert main([*command, "--config", str(cfg_file), *flags, "--T", "0.1", "--n-z", "16",
                     "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: give the dimensionless set A,B,L,N0 or the"
                              " physical set")
        assert not out.exists()

    @pytest.mark.parametrize("command, line, message", [
        pytest.param(("run", "--samples", "1"), "", "samples must be at least 2", id="samples"),
        pytest.param(("sweep", "--values", "1,2"), "", "sweep requires --axis and --values",
                     id="sweep-no-axis"),
        pytest.param(("sweep", "--axis", "L"), "", "sweep requires --axis and --values",
                     id="sweep-no-values"),
        pytest.param(("run",), "engine = heat", "engine must be one of", id="file-engine"),
        pytest.param(("run",), "axis = C", "sweep axis must be one of", id="file-axis"),
        pytest.param(("run",), "ic = gaussian", "ic must be step, parabolic or sampled",
                     id="file-ic"),
        pytest.param(("sweep", "--axis", "L", "--values", "1,2"), "engine = compare",
                     "sweep does not support the compare engine", id="sweep-compare"),
    ])
    def test_value_outside_its_set_refused_before_the_outdir(self, tmp_path, capsys, command,
                                                              line, message):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(line + "\n")
        out = tmp_path / "out"
        assert main([*command, "--config", str(cfg_file), "--A", "0.01", "--B", "0.1", "--L", "1",
                     "--N0", "3", "--T", "0.1", "--n-z", "16", "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and message in err
        assert not out.exists()

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

    def test_spectral_run_with_a_root_next_to_a_tan_pole(self, tmp_path):
        # anchor interval 103 has its root 3.1e-6 right of the tan pole 205 pi
        rc = main([
            "run", "--engine", "spectral", "--A", "1e-4", "--B", "1", "--L", "1000",
            "--N0", "3", "--modes", "200", "--outdir", str(tmp_path), "--name", "spec",
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "spec.json").read_text())
        assert payload["anchors"] == list(range(1, 201))
        assert 0.0 < payload["eigenvalues"][102] - 205 * math.pi < 1e-6 * math.pi

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

    def test_every_json_artifact_has_the_indented_layout(self, tmp_path):
        # the run JSON of each engine, the comparison report and the sweep index
        common = ["--A", "0.01", "--B", "1e-3", "--L", "1", "--N0", "3", "--T", "0.2",
                  "--outdir", str(tmp_path)]
        for argv in (["run", "--engine", "fdm", "--n-z", "16", "--name", "f"],
                     ["run", "--engine", "spectral", "--modes", "20", "--name", "s"],
                     ["run", "--engine", "parabolic", "--n-z", "16", "--name", "p"],
                     ["compare", "--pair", "parabolic,fdm", "--n-z", "16", "--name", "c"],
                     ["sweep", "--engine", "fdm", "--axis", "L", "--values", "1,10",
                      "--n-z", "16", "--name", "w"]):
            assert main([*argv, *common]) == 0, argv
        written = sorted(path.name for path in tmp_path.glob("*.json"))
        assert written == ["c_report.json", "f.json", "p.json", "s.json", "w_index.json"]
        for name in written:
            text = (tmp_path / name).read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", name

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

    def test_unwritable_report_exit_code(self, tmp_path, capsys):
        (tmp_path / "x_report.txt").mkdir()
        rc = main([
            "compare", "--pair", "fdm,parabolic", "--A", "0.01", "--B", "1e-4",
            "--L", "1", "--N0", "3", "--T", "0.5", "--n-z", "48",
            "--outdir", str(tmp_path), "--name", "x",
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: cannot write report to")

    @pytest.mark.parametrize("pair, flags", [
        ("parabolic,fdm", ("--B", "1e-3", "--T", "2", "--n-z", "100")),
        ("fdm,spectral", ("--B", "0.1", "--T", "0.5", "--n-z", "32", "--modes", "20")),
    ])
    def test_report_is_the_same_at_any_samples(self, tmp_path, pair, flags):
        # a sum engine is evaluated at the report's own times, not read between its samples
        reports = []
        for samples in ("11", "801"):
            out = tmp_path / samples
            assert main(["compare", "--pair", pair, "--A", "0.01", "--L", "1", "--N0", "3", *flags,
                         "--samples", samples, "--outdir", str(out), "--name", "x"]) == 0
            report = json.loads((out / "x_report.json").read_text())
            assert report.pop("config")["samples"] == int(samples)
            reports.append((report, (out / "x_report.txt").read_bytes()))
        assert reports[0] == reports[1]

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

    @pytest.mark.parametrize("command, what", [
        pytest.param(("run", "--engine", "spectral", "--B", "0"), "the spectral engine",
                     id="run-spectral"),
        pytest.param(("run", "--engine", "fdm", "--B", "0"), "the fdm engine", id="run-fdm"),
        pytest.param(("compare", "--pair", "parabolic,spectral", "--B", "0"),
                     "the spectral engine", id="compare"),
        pytest.param(("sweep", "--engine", "spectral", "--axis", "B", "--values", "0.1,0"),
                     "the spectral engine", id="sweep"),
        pytest.param(("eigen-dump", "--B", "0"), "eigen-dump", id="eigen-dump"),
    ])
    def test_zero_relaxation_time_refused_before_the_outdir(self, tmp_path, capsys, monkeypatch,
                                                            command, what):
        # B = 0 is the parabolic engine's: refused before any engine runs
        def no_engine(*args, **kwargs):
            raise AssertionError("an engine ran")

        for module, name in ((cli.spectral, "solve_spectral"), (cli.fdm, "march"),
                             (cli.poles, "to_series"), (cli.eigen, "eigen_grid")):
            monkeypatch.setattr(module, name, no_engine)
        out = tmp_path / "out"
        args = [*command, "--A", "0.01", "--L", "1", "--N0", "3", "--T", "0.05",
                "--outdir", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {what} requires B > 0")
        assert "parabolic engine" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, what", [
        pytest.param(("run", "--engine", "spectral", "--A", "1e300"), "the spectral engine",
                     id="run-spectral"),
        pytest.param(("compare", "--pair", "parabolic,spectral", "--A", "1e300"),
                     "the spectral engine", id="compare"),
        pytest.param(("sweep", "--engine", "spectral", "--axis", "A", "--values", "0.01,1e300"),
                     "the spectral engine", id="sweep"),
        pytest.param(("eigen-dump", "--A", "1e300"), "eigen-dump", id="eigen-dump"),
    ])
    def test_overflowing_A_squared_refused_before_the_outdir(self, tmp_path, capsys, monkeypatch,
                                                             command, what):
        # the secular equations' denominator is inf - inf once A^2 overflows
        def no_engine(*args, **kwargs):
            raise AssertionError("an engine ran")

        for module, name in ((cli.spectral, "solve_spectral"), (cli.fdm, "march"),
                             (cli.poles, "to_series"), (cli.eigen, "eigen_grid")):
            monkeypatch.setattr(module, name, no_engine)
        out = tmp_path / "out"
        args = [*command, "--B", "0.1", "--L", "1", "--N0", "3", "--T", "0.05",
                "--outdir", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {what} requires a finite A^2, got A = 1e+300")
        assert not out.exists()

    @pytest.mark.parametrize("engine", ["fdm", "spectral", "parabolic"])
    @pytest.mark.parametrize("L, N0", [("1e308", "3"), ("1e308", "1"), ("5e307", "4")])
    def test_overflowing_equilibrium_refused_before_the_outdir(self, tmp_path, capsys, monkeypatch,
                                                              engine, L, N0):
        # N0 L / (1 + 2 L) would be NaN (N0 = 3) or 0 in place of 1/2 (N0 = 1)
        def no_engine(*args, **kwargs):
            raise AssertionError("an engine ran")

        for module, name in ((cli.spectral, "solve_spectral"), (cli.fdm, "march"),
                             (cli.poles, "to_series")):
            monkeypatch.setattr(module, name, no_engine)
        out = tmp_path / "out"
        args = ["run", "--engine", engine, "--A", "0.01", "--B", "0.1", "--L", L, "--N0", N0,
                "--T", "0.05", "--outdir", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 2 L and N0 L must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("name", ["", f"a{os.sep}b", "a\0b"], ids=["empty", "separator", "nul"])
    @pytest.mark.parametrize("command", [
        pytest.param(("run", "--engine", "fdm"), id="run"),
        pytest.param(("sweep", "--engine", "fdm", "--axis", "B", "--values", "0.1,1"), id="sweep"),
        pytest.param(("compare", "--pair", "spectral,fdm"), id="compare"),
        pytest.param(("eigen-dump",), id="eigen-dump"),
    ])
    def test_bad_name_refused_before_the_outdir(self, tmp_path, capsys, monkeypatch, command,
                                                name, source):
        # every artifact is <outdir>/<name>...; "" would write hidden files and a/b
        # would fail only after the whole run
        def no_engine(*args, **kwargs):
            raise AssertionError("an engine ran")

        for module, attr in ((cli.spectral, "solve_spectral"), (cli.fdm, "march"),
                             (cli.poles, "to_series"), (cli.eigen, "eigen_grid")):
            monkeypatch.setattr(module, attr, no_engine)
        out = tmp_path / "out"
        args = [*command, "--A", "0.01", "--B", "0.1", "--L", "1", "--N0", "3", "--T", "0.05",
                "--outdir", str(out)]
        if source == "flag":
            args += ["--name", name]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"name = {name}\n")
            args += ["--config", str(config)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: name must be a nonempty file name without a"
                              f" path separator, got {name!r}")
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True])
    @pytest.mark.parametrize("from_env", [False, True])
    def test_outdir_that_cannot_be_made_exit_code(self, tmp_path, capsys, monkeypatch, under,
                                                  from_env):
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = str(blocker / "sub" if under else blocker)
        args = self.run_args(path)
        if from_env:
            del args[args.index("--outdir"):args.index("--outdir") + 2]
            monkeypatch.setenv(cli.OUTDIR_ENV, path)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot make outdir {path!r}")
        assert blocker.read_text() == ""

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
        samples = spectral.MAX_MODAL_TERMS // modes + 1
        args = [*command, "--A", "0.01", "--B", "0.1", "--N0", "3", "--T", "0.02", "--n-z", "16",
                "--modes", str(modes), "--samples", str(samples), "--outdir", str(tmp_path)]
        if command[0] != "sweep":
            args += ["--L", "1"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: samples x modes must be at most {spectral.MAX_MODAL_TERMS}")
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
        assert err.startswith(f"configuration error: samples x roots must be at most {spectral.MAX_MODAL_TERMS},"
                              f" got {terms}")
        assert not (tmp_path / "out").exists()

    def test_parabolic_report_times_bounded(self, tmp_path, capsys, monkeypatch):
        # 2 samples at T = 1e-12 keep 2 x 1,006,585 terms, within the bound, but a
        # comparison also sums the pole series at its report's 401 times from t = 5e-14
        def no_work(*args, **kwargs):
            raise AssertionError("an engine started")

        for module, name in ((cli.poles, "roots"), (cli.poles, "to_series"), (cli.fdm, "march")):
            monkeypatch.setattr(module, name, no_work)
        assert main(["compare", "--pair", "fdm,parabolic", "--A", "0.01", "--B", "0.1", "--L", "1",
                     "--N0", "3", "--n-z", "16", "--T", "1e-12", "--samples", "2",
                     "--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: report times x roots must be at most"
                              f" {spectral.MAX_MODAL_TERMS}, got 401 x 4501582")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [("run", "--engine", "parabolic"),
                                         ("compare", "--pair", "fdm,parabolic")])
    def test_parabolic_sample_step_that_underflows_refused(self, tmp_path, capsys, command):
        # T = 1e-322 over 800 steps: the first positive sample rounds to 0
        assert main([*command, "--A", "0.01", "--B", "0.1", "--L", "1", "--N0", "3",
                     "--n-z", "16", "--T", "1e-322", "--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: a first positive sample at t = 0 keeps"
                              " infinitely many roots")
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
        at_bound = ["--modes", str(modes), "--samples", str(spectral.MAX_MODAL_TERMS // modes)]
        past = ["--modes", str(modes), "--samples", str(spectral.MAX_MODAL_TERMS // modes + 1)]
        parser = make_parser()
        cfg = build_config(parser.parse_args(["run", "--engine", "spectral", *at_bound]))
        assert cfg.samples * cfg.modes == spectral.MAX_MODAL_TERMS
        for args in (["run", "--engine", "fdm", *past], ["compare", "--pair", "parabolic,fdm", *past]):
            assert build_config(parser.parse_args(args)).samples == spectral.MAX_MODAL_TERMS // modes + 1
        with pytest.raises(cli.ConfigError, match="samples x modes"):
            build_config(parser.parse_args(["compare", "--pair", "fdm,spectral", *past]))

    def test_subcommand_options_pinned(self):
        # each command's flags, in order: help, the shared ones, then its own
        common = ["--config", "--A", "--B", "--L", "--N0", "--d", "--D", "--tau-r", "--tau-a",
                  "--k-a", "--n0", "--ic", "--ic-file", "--T", "--n-z", "--lam", "--modes",
                  "--samples", "--probes", "--outdir", "--name"]
        own = {
            "run": ["--engine", "--pair"],
            "sweep": ["--engine", "--axis", "--values", "--workers"],
            "compare": ["--pair"],
            "eigen-dump": ["--alpha-min", "--alpha-max", "--points"],
        }
        commands = make_parser()._subparsers._group_actions[0].choices
        assert list(commands) == list(own)
        for name, sub in commands.items():
            flags = [action.option_strings for action in sub._actions]
            assert flags == [["-h", "--help"], *([f] for f in common + own[name])], name

    def test_import_starts_no_process_pool_machinery(self):
        # only a sweep of two or more grid groups, on several workers, starts a pool
        code = "import sys, hypersorb.cli; print('concurrent.futures.process' in sys.modules)"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        assert out.stdout.strip() == "False"

    def test_amplitude_pairs_are_the_complex_encoding(self, tmp_path):
        # the run's JSON holds each complex amplitude as its [re, im] pair, bit for bit
        assert main(["run", "--engine", "spectral", "--modes", "200", "--A", "1e-3", "--B", "0.1",
                     "--L", "1", "--N0", "3", "--outdir", str(tmp_path), "--name", "m"]) == 0
        payload = json.loads((tmp_path / "m.json").read_bytes())
        sol = spectral.solve_spectral(Params(A=1e-3, B=0.1, L=1.0, N0=3.0), step_ic(), 200)
        for key, amplitudes in (("amplitudes_S1", sol.S1), ("amplitudes_S2", sol.S2)):
            pairs = [[v.real, v.imag] for v in amplitudes.tolist()]
            assert np.array(payload[key]).view(np.int64).tolist() == \
                np.array(pairs).view(np.int64).tolist()

    def test_spectral_run_imports_no_masked_arrays(self, tmp_path):
        # numpy.ma costs a fresh interpreter ~10 ms to import; np.unique pulls it
        # in, so a run that thins its rows must not reach for it
        argv = ["run", "--engine", "spectral", "--modes", "8", "--A", "1e-3", "--B", "0.1",
                "--L", "1", "--N0", "3", "--outdir", str(tmp_path)]
        code = f"import sys, hypersorb.cli as cli; print(cli.main({argv!r}), 'numpy.ma' in sys.modules)"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        assert cli.RunConfig().samples == 801
        assert out.stdout.splitlines()[-1] == "0 False"

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


class TestParserReuse:
    """main parses every call with one parser, built once per process."""

    def test_reused_parser_leaks_no_state(self, tmp_path, capsys):
        # each call between the two equal runs sets flags the run leaves at their
        # defaults; the run's artifacts echo every field, so a value carried over
        # from any of them would change its bytes
        out = str(tmp_path)
        params = ["--A", "0.01", "--B", "0.1", "--L", "1", "--N0", "3", "--T", "0.05"]
        first = ["run", "--engine", "fdm", *params, "--n-z", "16", "--outdir", out, "--name", "r"]
        assert main(first) == 0
        before = {name: (tmp_path / name).read_bytes() for name in ("r.csv", "r.json")}
        assert main(["sweep", "--engine", "fdm", "--axis", "L", "--values", "0.1,10",
                     "--workers", "2", "--samples", "21", *params, "--outdir", out,
                     "--name", "s"]) == 0
        # B = 0.1 is far from the diffusive limit: the report is written and fails, exit 1
        assert main(["compare", "--pair", "parabolic,fdm", "--probes", "0,0.5", "--lam", "0.1",
                     *params, "--outdir", out, "--name", "c"]) == 1
        assert main(["eigen-dump", "--alpha-max", "20", "--points", "50", *params,
                     "--outdir", out, "--name", "e"]) == 0
        assert main(["run", "--engine", "spectral", "--modes", "0", *params,
                     "--outdir", out, "--name", "refused"]) == 2
        for argv, code in ((["run", "--engine", "exact"], 2), (["run", "--help"], 0)):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
        capsys.readouterr()
        assert main(first) == 0
        assert capsys.readouterr().out == f"{os.path.join(out, 'r.csv')}\n"
        assert {name: (tmp_path / name).read_bytes() for name in before} == before
        assert not (tmp_path / "refused.json").exists()

    def test_main_builds_at_most_one_parser(self, tmp_path, monkeypatch):
        built = []
        make = cli.make_parser

        def counting():
            built.append(make())
            return built[-1]

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "make_parser", counting)
        for i in range(5):
            assert main(["run", "--engine", "fdm", "--A", "0.01", "--B", "0.1", "--L", "1",
                         "--N0", "3", "--T", "0.05", "--n-z", "16", "--outdir", str(tmp_path),
                         "--name", f"n{i}"]) == 0
        assert len(built) == 1
        # make_parser stays a builder of fresh trees, none of them main's
        held = cli._parser()
        assert held is built[0]
        fresh = [make_parser(), make_parser()]
        assert fresh[0] is not fresh[1] and all(parser is not held for parser in fresh)


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

    def test_thin_indices_strictly_increase_between_the_ends(self):
        for n in (1, 2, 3, 10, 201, 801, 2999, 32001, 10**7):
            for max_rows in (2, 3, 11, 200, 201, 202, 599, 801, 2998, 5000):
                idx = thin_indices(n, max_rows)
                assert idx.size == min(n, max_rows)
                assert idx[0] == 0 and idx[-1] == n - 1
                assert np.all(np.diff(idx) > 0)

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
    # so a run's full series is the --samples times it evaluates, and 10^7 of them are
    # refused; a comparison's report sums it at the report's own times
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
            tgrid = np.linspace(0.025, 0.5, 401)
            at_report = poles.to_series(self.P, step_ic(), tgrid, probes=self.PROBES)
            expected = validate.compare_engines(at_report, march, tgrid).to_dict()
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

    @pytest.mark.parametrize("engine", ["fdm", "spectral", "parabolic"])
    def test_parabolic_initial_condition_written_bit_for_bit(self, tmp_path, engine):
        # --ic parabolic writes the series of the library's parabolic_ic()
        args = [] if engine == "fdm" else ["--modes", "8", "--samples", "101"]
        assert main(["run", "--engine", engine, "--ic", "parabolic", *self.COMMON, *args,
                     "--outdir", str(tmp_path), "--name", "x"]) == 0
        tgrid = np.linspace(0.0, 0.5, 101)
        if engine == "fdm":
            grid = fdm.Grid.from_lambda(32, 0.5, fdm.default_lambda(self.P.B))
            ser = thin_series(fdm.run_fdm(self.P, parabolic_ic(), grid, probes=self.PROBES), 801)
        elif engine == "spectral":
            sol = spectral.solve_spectral(self.P, parabolic_ic(), 8)
            ser = spectral.to_series(sol, tgrid, probes=self.PROBES)
        else:
            ser = poles.to_series(self.P, parabolic_ic(), tgrid, probes=self.PROBES)
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
