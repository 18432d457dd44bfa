"""The march's levels are the single-step levels, bit for bit.

fdm.march and step_interior build their interior updates from one stencil
builder; with every level stored, each level of a march must equal
step_interior applied to the stored levels before it, and its first level
the start-up level of a one-level march.
"""

import numpy as np
import pytest

from hypersorb import fdm
from hypersorb.fdm import (
    HEAT, LOCAL, NONLOCAL, RING, WAVE, Grid, default_lambda, march, step_interior,
)
from hypersorb.params import Params

POINTS = [
    Params(A=0.01, B=0.1, L=1.0, N0=3.0),
    Params(A=1e-3, B=0.1, L=0.0, N0=1.0),
    Params(A=0.5, B=0.1, L=10.0, N0=7.0),
]


def interior_bits(rows):
    return np.ascontiguousarray(rows[..., 1:-1]).tobytes()


def first_level(rows0, ps, grid):
    """Level 1 of a one-level march from rows0, one row or a batch (nodes on the last axis)."""
    one = Grid(n_z=grid.n_z, n_t=1, h=grid.h, k=grid.k, lam=grid.lam, T=grid.k)
    batch = np.reshape(rows0, (len(ps), -1))
    series = march(batch, ps, one, WAVE, NONLOCAL, {}, max_rows=one.n_t + 1)
    return np.stack([ser.rows[1] for ser in series]).reshape(np.shape(rows0))


@pytest.mark.parametrize("n_batch", [1, 3])
def test_march_levels_are_step_first_and_step_interior(n_batch):
    ps = POINTS[:n_batch]
    B, n_z = ps[0].B, 16
    h = 0.5 / n_z
    k = default_lambda(B) * h
    # a second ring pass, so the level programs of every slot take part
    n_t = RING + 5
    grid = Grid(n_z=n_z, n_t=n_t, h=h, k=k, lam=k / h, T=n_t * k)
    rows0 = np.random.default_rng(3).uniform(0.5, 1.5, (n_batch, n_z + 1)) * [[p.N0] for p in ps]
    series = march(rows0, ps, grid, WAVE, NONLOCAL, {}, max_rows=n_t + 1)
    # levels, batch, nodes
    levels = np.stack([ser.rows for ser in series], axis=1)
    assert levels.shape == (n_t + 1, n_batch, n_z + 1)
    assert interior_bits(first_level(levels[0], ps, grid)) == interior_bits(levels[1])
    for j in range(2, n_t + 1):
        out = step_interior(levels[j - 1], levels[j - 2], grid, B)
        assert interior_bits(out) == interior_bits(levels[j]), f"level {j}"
    for b in range(n_batch):
        rows = levels[:, b]
        assert interior_bits(first_level(rows[0], ps[b:b + 1], grid)) == interior_bits(rows[1])
        assert interior_bits(step_interior(rows[1], rows[0], grid, B)) == interior_bits(rows[2])


def test_step_functions_copy_the_boundary_nodes():
    grid = Grid.from_lambda(16, 0.1, 0.02)
    rows = np.random.default_rng(4).uniform(0.0, 1.0, (2, 3, 17))
    out = step_interior(rows[0], rows[1], grid, 0.1)
    assert np.array_equal(out[..., [0, -1]], rows[0][..., [0, -1]])


@pytest.mark.parametrize("stencil", [WAVE, HEAT])
@pytest.mark.parametrize("n_t", [1, 10])
def test_short_march_builds_programs_for_its_levels_only(monkeypatch, stencil, n_t):
    built = []

    def counted(*args):
        built.append(args)
        return stencil_builder(*args)

    stencil_builder = fdm._stencil
    monkeypatch.setattr(fdm, "_stencil", counted)
    p = POINTS[0]
    n_z = 16
    h = 0.5 / n_z
    k = default_lambda(p.B) * h if stencil == WAVE else 0.4 * h * h
    grid = Grid(n_z=n_z, n_t=n_t, h=h, k=k, lam=k / h, T=n_t * k)
    closure = NONLOCAL if stencil == WAVE else LOCAL
    march([np.full(n_z + 1, p.N0)], [p], grid, stencil, closure, {})
    # one program per ring slot, and the wave march's start-up program
    assert len(built) <= n_t + 2
