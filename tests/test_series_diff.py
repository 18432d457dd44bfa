"""scripts/series_diff.py: how far the series of two artifact trees lie apart."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hypersorb.params import Params
from hypersorb.series import TimeSeries
from hypersorb.seriesio import write_series_csv

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "series_diff.py"


@pytest.fixture
def series_diff(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("series_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(tree, name, t, sigma, probes):
    path = tree / name
    path.parent.mkdir(parents=True, exist_ok=True)
    p = Params(A=0.01, B=0.1, L=1.0, N0=3.0)
    series = TimeSeries(t=t, sigma=sigma, surface=sigma, probes=probes, params=p)
    write_series_csv(series, path, {"name": "x"})


T = np.linspace(0.0, 1.0, 5)
SIGMA = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
PROBE = np.full(5, 3.0)


def test_relative_change_per_column(series_diff, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    write(a, "w/x.csv", T, SIGMA, {0.0: PROBE, 0.25: PROBE})
    write(b, "w/x.csv", T, SIGMA + [0, 0, 0, 4e-12, 0], {0.0: PROBE, 0.25: PROBE - 3e-15})
    (a / "w" / "x.json").write_text("{}\n")  # not a series: skipped
    assert series_diff.main([str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["w/x.csv sigma=1e-12 N_at_0=0 N_at_0.25=1.04e-15",
                     "largest relative change: 1e-12"]


@pytest.mark.parametrize("t, sigma, probes, message", [
    (T, SIGMA, {0.0: PROBE, 0.5: PROBE}, "header differs"),
    (T[:4], SIGMA[:4], {0.0: PROBE[:4], 0.25: PROBE[:4]}, "row count differs: 5 against 4"),
    (T * 1.5, SIGMA, {0.0: PROBE, 0.25: PROBE}, "t column differs"),
])
def test_structural_difference_fails(series_diff, tmp_path, capsys, t, sigma, probes, message):
    a, b = tmp_path / "a", tmp_path / "b"
    write(a, "w/x.csv", T, SIGMA, {0.0: PROBE, 0.25: PROBE})
    write(b, "w/x.csv", t, sigma, probes)
    assert series_diff.main([str(a), str(b)]) == 1
    assert f"w/x.csv: {message}" in capsys.readouterr().out


def test_series_in_one_tree_only_fails(series_diff, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    write(a, "w/x.csv", T, SIGMA, {0.0: PROBE})
    write(b, "w/x.csv", T, SIGMA, {0.0: PROBE})
    write(b, "w/y.csv", T, SIGMA, {0.0: PROBE})
    assert series_diff.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert f"w/y.csv: only in {b}" in out and "w/x.csv sigma=0 N_at_0=0" in out


def write_json(tree, name, document):
    path = tree / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document))


def report(outdir, sigma0, errors, passed=True):
    return {"config": {"outdir": outdir, "modes": 200, "pair": ["spectral", "fdm"], "D": None},
            "meta": {"diagnostics": {"sigma_at_zero": sigma0, "errors": errors}},
            "passed": passed}


def test_json_numeric_leaves(series_diff, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    write_json(a, "w/x.json", report("a/w", 0.25, [1.0, 2.0, 4.0]))
    # the outdir echo is a string leaf: skipped; the array reads as one path
    write_json(b, "w/x.json", report("b/w", 0.25 - 7.5e-13, [1.0, 2.0 + 2e-15, 4.0 - 4e-12]))
    write_json(b, "w/y.json", report("b/w", 0.0, []))  # in one tree only: skipped
    assert series_diff.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "w/x.json largest=3e-12 meta.diagnostics.sigma_at_zero=3e-12"
        " meta.diagnostics.errors[]=1e-12",
        "largest relative change: 0"]


def test_json_equal_numbers(series_diff, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    write_json(a, "w/x.json", report("a/w", 0.25, [1.0]))
    write_json(b, "w/x.json", report("b/w", 0.25, [1.0]))
    assert series_diff.main([str(a), str(b)]) == 0
    assert "w/x.json largest=0\n" in capsys.readouterr().out


@pytest.mark.parametrize("document, message", [
    (report("b/w", 0.25, [1.0, 2.0]), "structure differs: 8 against 9 leaves"),
    ({**report("b/w", 0.25, [1.0]), "meta": {"diagnostics": {"sigma_at_0": 0.25, "errors": [1.0]}}},
     "structure differs: meta.diagnostics.sigma_at_zero against meta.diagnostics.sigma_at_0"),
    (report("b/w", 0.25, [1.0], passed=False), "passed differs: True against False"),
])
def test_json_structural_difference_fails(series_diff, tmp_path, capsys, document, message):
    a, b = tmp_path / "a", tmp_path / "b"
    write_json(a, "w/x.json", report("a/w", 0.25, [1.0]))
    write_json(b, "w/x.json", document)
    assert series_diff.main([str(a), str(b)]) == 1
    assert f"w/x.json: {message}" in capsys.readouterr().out
