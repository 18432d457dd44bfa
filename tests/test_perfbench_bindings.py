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


@pytest.mark.parametrize("A, B, L, counted", [
    (0.5, 1e-3, 0.1, (6, 6)),
    # the kinetic pole's interval holds two roots: anchors 1, 2, 2, 3, 4, 5
    (0.01, 1e-3, 1.0, (6, 5)),
])
def test_root_counts_read_from_the_record(spans, A, B, L, counted):
    # the tracer reads the roots and the anchor of the last one from the
    # returned record: len(roots) and roots[-1].index
    from hypersorb.eigen import find_eigenvalues
    from hypersorb.params import Params

    roots = find_eigenvalues(Params(A=A, B=B, L=L, N0=3.0), 6)
    assert spans._roots((), {}, roots) == counted
