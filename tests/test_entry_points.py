"""The package's public names and the scripts' imports must resolve.

The scripts import package names by hand, private ones among them, and
artifact_hashes.py imports perfbench's workload definitions; a name deleted
from either breaks them before any work starts.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypersorb

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def test_every_public_name_resolves():
    assert [name for name in hypersorb.__all__ if not hasattr(hypersorb, name)] == []


@pytest.mark.parametrize("script", ["landmarks.py", "convergence.py", "artifact_hashes.py",
                                    "series_diff.py"])
def test_script_imports(script, monkeypatch):
    # imported under its own name, not __main__, so none of its work runs;
    # artifact_hashes.py also binds perfbench's harness names by import
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(Path(script).stem, SCRIPTS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)


@pytest.mark.parametrize("script", ["landmarks.py", "artifact_hashes.py", "convergence.py",
                                    "series_diff.py"])
def test_script_help_writes_nothing(script, tmp_path):
    # --help is not an outdir (nor, for series_diff.py, a tree): usage on stdout,
    # exit 0, no file made in the cwd
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, str(SCRIPTS / script), "--help"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage")
    assert list(tmp_path.iterdir()) == []
