"""The march's levels are the single-step functions' levels, bit for bit.

fdm.march, step_first and step_interior build their interior updates from
one stencil builder; with every level stored, each level of a march must
equal the step function applied to the stored levels before it.
"""

import numpy as np
import pytest

from hypersorb.fdm import NONLOCAL, RING, WAVE, Grid, default_lambda, march, step_first, step_interior
from hypersorb.params import Params

POINTS = [
    Params(A=0.01, B=0.1, L=1.0, N0=3.0),
    Params(A=1e-3, B=0.1, L=0.0, N0=1.0),
    Params(A=0.5, B=0.1, L=10.0, N0=7.0),
]


def interior_bits(rows):
    return np.ascontiguousarray(rows[..., 1:-1]).tobytes()


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
    assert interior_bits(step_first(levels[0], grid, B)) == interior_bits(levels[1])
    for j in range(2, n_t + 1):
        out = step_interior(levels[j - 1], levels[j - 2], grid, B)
        assert interior_bits(out) == interior_bits(levels[j]), f"level {j}"
    for b in range(n_batch):
        rows = levels[:, b]
        assert interior_bits(step_first(rows[0], grid, B)) == interior_bits(rows[1])
        assert interior_bits(step_interior(rows[1], rows[0], grid, B)) == interior_bits(rows[2])


def test_step_functions_copy_the_boundary_nodes():
    grid = Grid.from_lambda(16, 0.1, 0.02)
    rows = np.random.default_rng(4).uniform(0.0, 1.0, (2, 3, 17))
    for out in (step_first(rows[0], grid, 0.1), step_interior(rows[0], rows[1], grid, 0.1)):
        assert np.array_equal(out[..., [0, -1]], rows[0][..., [0, -1]])
