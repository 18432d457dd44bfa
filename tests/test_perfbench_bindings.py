"""The program names perfbench's tracer binds must exist.

perfbench/spans.py wraps module attributes of hypersorb by name; a name
deleted from the package makes every traced benchmark run fail.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def spans():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import spans

    return spans


def test_every_traced_binding_resolves(spans):
    missing = [
        f"{module.__name__}.{attr}"
        for _, bindings, _ in spans.TARGETS
        for module, attr in bindings
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_process_pool_binding_resolves():
    from hypersorb import cli

    assert callable(cli.ProcessPoolExecutor)
