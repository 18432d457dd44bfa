"""The march's levels are the single-step levels, bit for bit.

fdm.march and step_interior build their interior updates from one stencil
builder; with every level stored, each level of a march must equal
step_interior applied to the stored levels before it, and its first level
the start-up level of a one-level march.
"""

import numpy as np
import pytest

from hypersorb import fdm
from hypersorb.fdm import RING, Grid, default_lambda, march, step_interior
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
    one = Grid(n_z=grid.n_z, n_t=1, T=grid.k)
    batch = np.reshape(rows0, (len(ps), -1))
    series = march(batch, ps, one, max_rows=one.n_t + 1)
    return np.stack([ser.rows[1] for ser in series]).reshape(np.shape(rows0))


@pytest.mark.parametrize("n_batch", [1, 3])
def test_march_levels_are_step_first_and_step_interior(n_batch):
    ps = POINTS[:n_batch]
    B, n_z = ps[0].B, 16
    h = 0.5 / n_z
    k = default_lambda(B) * h
    # a second ring pass, so the level programs of every slot take part
    n_t = RING + 5
    grid = Grid(n_z=n_z, n_t=n_t, T=n_t * k)
    rows0 = np.random.default_rng(3).uniform(0.5, 1.5, (n_batch, n_z + 1)) * [[p.N0] for p in ps]
    series = march(rows0, ps, grid, max_rows=n_t + 1)
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


@pytest.mark.parametrize("shape", [(17,), (3, 17)], ids=["row", "batch"])
def test_step_interior_is_the_folded_level_bit_for_bit(shape):
    # a = 2 lam^2/(2B + k) scales the Laplacian and r = (2B - k)/(2B + k) the
    # rate; march shares step_interior's weights, so their order is pinned here
    grid, B = Grid.from_lambda(16, 0.1, 0.02), 0.1
    prev, prev2 = np.random.default_rng(5).uniform(0.5, 1.5, (2, *shape))
    grad = prev[..., 1:] - prev[..., :-1]
    lap = grad[..., 1:] - grad[..., :-1]
    rate = prev[..., 1:-1] - prev2[..., 1:-1]
    den = 2.0 * B + grid.k
    level = prev[..., 1:-1] + (lap * (2.0 * grid.lam**2 / den) + rate * ((2.0 * B - grid.k) / den))
    assert interior_bits(step_interior(prev, prev2, grid, B)) == level.tobytes()


def test_step_functions_copy_the_boundary_nodes():
    grid = Grid.from_lambda(16, 0.1, 0.02)
    rows = np.random.default_rng(4).uniform(0.0, 1.0, (2, 3, 17))
    out = step_interior(rows[0], rows[1], grid, 0.1)
    assert np.array_equal(out[..., [0, -1]], rows[0][..., [0, -1]])


@pytest.fixture
def built(monkeypatch):
    """The programs fdm._stencil builds, as (wave level?, its ufunc calls), one per call."""
    out = []

    def counted(new, old, older, *rest):
        ops = stencil_builder(new, old, older, *rest)
        out.append((older is not None, len(ops)))
        return ops

    stencil_builder = fdm._stencil
    monkeypatch.setattr(fdm, "_stencil", counted)
    return out


def short_grid(p, n_t, n_z=16):
    k = default_lambda(p.B) * (0.5 / n_z)
    return Grid(n_z=n_z, n_t=n_t, T=n_t * k)


@pytest.mark.parametrize("n_t", [1, 10], ids=lambda n_t: f"{n_t}-wave")
def test_short_march_builds_programs_for_its_levels_only(built, n_t):
    p = POINTS[0]
    grid = short_grid(p, n_t)
    march([np.full(grid.n_z + 1, p.N0)], [p], grid)
    # one program per ring slot, and the start-up program
    assert len(built) <= n_t + 2


def test_every_level_is_six_stencil_calls(built):
    # a level's cost is its call count, so a call more must be a choice, made here;
    # the start-up level is a wave level with a zero rate weight
    grid = short_grid(POINTS[0], 10)
    march(np.ones((3, grid.n_z + 1)), POINTS, grid)
    assert set(built) == {(True, 6)}
    built.clear()
    rows = np.ones((2, grid.n_z + 1))
    step_interior(rows[0], rows[1], grid, POINTS[0].B)
    assert built == [(True, 6)]
