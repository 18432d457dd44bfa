"""The package's public names and the scripts' imports must resolve.

The scripts import package names by hand, private ones among them, and
artifact_hashes.py imports perfbench's workload definitions; a name deleted
from either breaks them before any work starts.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import hypersorb

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_every_public_name_resolves():
    assert [name for name in hypersorb.__all__ if not hasattr(hypersorb, name)] == []


@pytest.mark.parametrize("script", ["landmarks.py", "convergence.py", "artifact_hashes.py"])
def test_script_imports(script, monkeypatch):
    # imported under its own name, not __main__, so none of its work runs;
    # artifact_hashes.py also binds perfbench's harness names by import
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(Path(script).stem, SCRIPTS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
