"""Batched marching kernel: every row of a batch is its point's own march."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersorb.errors import InvalidInput, StabilityError
from hypersorb.fdm import RING, Grid, _probe_weights, default_lambda, march, run_fdm, run_fdm_batch
from hypersorb.params import Params, equilibrium, parabolic_ic, sample_initial, step_ic
from hypersorb.series import thin_indices

PROBES = (0.0, 0.17, -0.25, 0.5)
# rows a runner stores, and a thinned set whose stride crosses the ring passes
RUNNER_ROWS, MAX_ROWS = 401, 7


def _inner(row, h):
    return h * (0.5 * row[0] + float(np.sum(row[1:-1])))


def folded_level(prev, prev2, grid, B):
    """The interior of a level as fdm._stencil computes it, bit for bit.

    The Laplacian is the difference of one gradient; the wave weights are
    folded, a = 2 lam^2/(2B + k) and r = (2B - k)/(2B + k); without prev2,
    the start-up level of a bulk at rest.
    """
    grad = prev[1:] - prev[:-1]
    lap = grad[1:] - grad[:-1]
    if prev2 is None:
        return prev[1:-1] + lap * (grid.lam * grid.lam / (2.0 * B))
    den = 2.0 * B + grid.k
    lap = lap * (2.0 * grid.lam**2 / den)
    rate = (prev[1:-1] - prev2[1:-1]) * ((2.0 * B - grid.k) / den)
    return prev[1:-1] + (lap + rate)


def divided_level(prev, prev2, grid, B):
    """The same level with its weights unfolded: one divide by 2B + k a level.

    lap = right - 2 mid + left, then (2 lam^2 lap + (2B - k)(old - older)) /
    (2B + k); the same algebra as folded_level in another rounding, which the
    march must stay within rounding of.
    """
    lap = prev[2:] - 2.0 * prev[1:-1] + prev[:-2]
    if prev2 is None:
        return prev[1:-1] + grid.lam * grid.lam / (2.0 * B) * lap
    return prev[1:-1] + (
        2.0 * grid.lam**2 * lap + (2.0 * B - grid.k) * (prev[1:-1] - prev2[1:-1])
    ) / (2.0 * B + grid.k)


def reference_march(p, ic, grid, probes=PROBES, max_rows=RUNNER_ROWS, level=folded_level):
    """The scalar march written out level by level: one fresh row per level.

    The wave stencil (level), with its start-up level from rest, and the
    wall closed by conservation plus backward-Euler kinetics.
    """
    h, k = grid.h, grid.k
    row = sample_initial(ic, p, grid.zgrid())
    s = 0.5 * p.N0 - (_inner(row, h) + 0.5 * h * row[-1])
    sigma, wall, cons, rows = [], [], [], []

    def record(row, s):
        sigma.append(s)
        wall.append(row[-1])
        mass = _inner(row, h) + 0.5 * h * row[-1]
        cons.append(abs(2.0 * mass + 2.0 * s - p.N0))
        rows.append(row)

    record(row, s)
    prev2, prev = None, row
    for _ in range(grid.n_t):
        new = prev.copy()
        new[1:-1] = level(prev, prev2, grid, p.B)
        new[0] = new[1]
        rhs_mass = 0.5 * p.N0 - _inner(new, h)
        w = ((p.A + k) * rhs_mass - p.A * s) / (k * p.L + (p.A + k) * 0.5 * h)
        s = rhs_mass - 0.5 * h * w
        new[-1] = w
        record(new, s)
        prev2, prev = prev, new
    rows = np.array(rows)
    probe_data = {
        z: (1.0 - frac) * rows[:, i] + frac * rows[:, i + 1]
        for z, i, frac in _probe_weights(probes, grid.zgrid())
    }
    stored = thin_indices(grid.n_t + 1, max_rows)
    return {
        "sigma": np.array(sigma), "surface": np.array(wall), "conservation": np.array(cons),
        "rows": rows[stored], "probes": probe_data,
    }


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_series(ser, ref):
    for key in ("sigma", "surface", "conservation", "rows"):
        expected = ref[key] if isinstance(ref, dict) else getattr(ref, key)
        assert_same_bits(getattr(ser, key), expected)
    probes = ref["probes"] if isinstance(ref, dict) else ref.probes
    assert set(ser.probes) == set(probes)
    for z in probes:
        assert_same_bits(ser.probes[z], probes[z])


def march_family(ps, ic, grid):
    batch = run_fdm_batch(ps, ic, grid, probes=PROBES)
    single = [run_fdm(p, ic, grid, probes=PROBES) for p in ps]
    return batch, single


def step_march(ps, grid, max_rows=RUNNER_ROWS):
    """fdm.march from the step profile, without the runners' step-ratio check."""
    zgrid = grid.zgrid()
    rows0 = [sample_initial(step_ic(), p, zgrid) for p in ps]
    return march(rows0, ps, grid, PROBES, max_rows)


point = st.tuples(
    st.floats(1e-4, 10.0),
    st.floats(1e-2, 1.0),
    st.one_of(st.just(0.0), st.floats(1e-2, 100.0)),
    st.floats(0.1, 100.0),
)


@settings(max_examples=40, deadline=None)
@given(
    points=st.lists(point, min_size=1, max_size=5),
    n_z=st.integers(8, 20),
    smooth=st.booleans(),
)
def test_batch_rows_equal_single_runs_bit_for_bit(points, n_z, smooth):
    # a B per point: a batch marches on the grid of its smallest B
    ps = [Params(A=A, B=B, L=L, N0=N0) for A, B, L, N0 in points]
    ic = parabolic_ic() if smooth else step_ic()
    grid = Grid.from_lambda(n_z, 0.05, default_lambda(min(p.B for p in ps)))
    batch, single = march_family(ps, ic, grid)
    assert len(batch) == len(ps)
    for p, ser, one in zip(ps, batch, single):
        assert ser.params == p
        assert_same_bits(ser.t, one.t)
        assert_same_bits(ser.row_times, one.row_times)
        assert ser.meta == one.meta
        assert_same_series(ser, one)
        assert_same_series(one, reference_march(p, ic, grid))


def grid_with_levels(n_t, n_z=10, B=0.1):
    """A grid of exactly n_t steps at the default step ratio."""
    h = 0.5 / n_z
    k = default_lambda(B) * h
    return Grid(n_z=n_z, n_t=n_t, T=n_t * k)


RING_POINTS = [
    Params(A=0.01, B=0.1, L=1.0, N0=3.0),
    Params(A=1e-3, B=0.1, L=0.0, N0=1.0),
    Params(A=0.5, B=0.1, L=10.0, N0=7.0),
]


# "fdm" in the case ids names the scheme: the wave stencil under the conservation closure
@pytest.mark.parametrize("n_t", [1, RING - 2, RING - 1, RING, RING + 1, 3 * RING + 5],
                         ids=lambda n_t: f"fdm-{n_t}")
@pytest.mark.parametrize("n_batch", [1, 3])
def test_ring_pass_boundaries_match_reference(n_t, n_batch):
    # every level stored, and a thinned set whose stride crosses the passes
    grid = grid_with_levels(n_t)
    ps = RING_POINTS[:n_batch]
    for max_rows in (n_t + 1, MAX_ROWS):
        for p, ser in zip(ps, step_march(ps, grid, max_rows)):
            assert_same_series(ser, reference_march(p, step_ic(), grid, max_rows=max_rows))


# sweep-sized batch: every row's closure reads and writes its own nodes
WIDE_BATCH = [
    Params(A=A, B=0.1, L=L, N0=N0)
    for A, L, N0 in zip(
        [1e-3, 0.01, 0.5, 2.0] * 4,
        [0.0, 0.1, 1.0, 10.0, 100.0, 0.0, 3.0, 0.5] * 2,
        [3.0, 1.0, 7.0, 0.25, 50.0, 2.0, 1e-3, 10.0, 4.0, 0.5, 1.5, 20.0, 3.0, 9.0, 0.1, 6.0],
    )
]


@pytest.mark.parametrize("n_z", [16], ids=["fdm"])
def test_wide_batch_rows_match_single_runs_and_reference(n_z):
    grid = grid_with_levels(RING + 5, n_z=n_z)
    batch, single = march_family(WIDE_BATCH, step_ic(), grid)
    assert len(batch) == 16
    for p, ser, one in zip(WIDE_BATCH, batch, single):
        assert ser.params == p
        assert_same_series(ser, one)
        assert_same_series(ser, reference_march(p, step_ic(), grid))


@pytest.mark.parametrize("ic", [step_ic(), parabolic_ic()], ids=["step", "parabolic"])
def test_rows_past_the_pairwise_block_match_single_runs_and_reference(ic):
    # 199 interior nodes: numpy's pairwise sum splits each row's interior (its
    # block is 128), so a one-row march's 1-D reduce meets the batch's axis-1 one
    grid = grid_with_levels(RING + 5, n_z=200)
    batch, single = march_family(RING_POINTS, ic, grid)
    for p, ser, one in zip(RING_POINTS, batch, single):
        assert_same_series(ser, one)
        assert_same_series(ser, reference_march(p, ic, grid))


@pytest.mark.parametrize("n_z, T, lam, p, message", [
    (40, 0.5, 0.04, Params(A=0.1, B=1e-3, L=5.0, N0=2.0),
     "density diverging at level j=198, node i=12 (lambda=0.04, B=0.001); reduce lambda"),
    (100, 0.5, 0.4, Params(A=0.01, B=0.1, L=1.0, N0=3.0),
     "density diverging at level j=169, node i=74 (lambda=0.4, B=0.1); reduce lambda"),
])
def test_divergence_in_a_later_ring_pass(n_z, T, lam, p, message):
    # both levels lie past the first pass and off its boundaries
    grid = Grid.from_lambda(n_z, T, lam)
    with pytest.raises(StabilityError) as err:
        step_march([p], grid)
    assert str(err.value) == message


MIXED_B = [Params(A=0.01, B=B, L=1.0, N0=3.0) for B in (0.0025, 0.01, 0.1, 0.5)]


def test_batch_of_mixed_B_equals_single_runs():
    # points on one grid batch whatever their B: each row meets its own B
    grid = Grid.from_lambda(16, 0.05, default_lambda(MIXED_B[0].B))
    for ic in (step_ic(), parabolic_ic()):
        batch, single = march_family(MIXED_B, ic, grid)
        for p, ser, one in zip(MIXED_B, batch, single):
            assert ser.params == p
            assert_same_series(ser, one)
            assert_same_series(ser, reference_march(p, ic, grid))
        assert len({ser.sigma.tobytes() for ser in batch}) == len(MIXED_B)
    with pytest.raises(InvalidInput):
        run_fdm_batch([], step_ic(), grid)


def test_diverging_point_named_with_its_level():
    # lambda above sqrt(B): the N0 = 3 point crosses its ceiling at level 127;
    # the tiny-N0 point stays below its own ceiling over the whole window
    grid = Grid.from_lambda(64, 0.055, 0.05)
    quiet = Params(A=0.01, B=1e-3, L=1.0, N0=1e-30)
    loud = Params(A=0.01, B=1e-3, L=1.0, N0=3.0)
    (ser,) = step_march([quiet], grid)
    assert np.all(np.isfinite(ser.sigma))
    with pytest.raises(StabilityError) as alone:
        step_march([loud], grid)
    assert "level j=127, node i=41 (" in str(alone.value)
    with pytest.raises(StabilityError) as batch:
        step_march([quiet, loud], grid)
    message = str(batch.value)
    assert "level j=127, node i=41 of batch point 1 " in message
    assert "N0=3" in message and "lambda" in message


def test_diverging_point_named_with_its_own_B():
    # one grid, two B: only the B = 1e-3 point is past its bound sqrt(B)
    grid = Grid.from_lambda(64, 0.055, 0.05)
    stable = Params(A=0.01, B=0.1, L=1.0, N0=3.0)
    loud = Params(A=0.01, B=1e-3, L=1.0, N0=3.0)
    with pytest.raises(StabilityError) as err:
        step_march([stable, loud], grid)
    assert str(err.value) == ("density diverging at level j=127, node i=41 of batch point 1"
                              " (A=0.01, L=1, N0=3) (lambda=0.04993, B=0.001); reduce lambda")


def test_folded_weights_move_the_march_at_rounding_level():
    # 10^4 levels of the wave-timing set: the folded march against the same
    # march with one divide a level stays within 1e-12 sigma_eq
    p = Params(A=0.01, B=0.1, L=1.0, N0=3.0)
    grid = Grid.from_lambda(200, 0.625, default_lambda(p.B))
    assert grid.n_t == 10_000
    (ser,) = step_march([p], grid)
    divided = reference_march(p, step_ic(), grid, level=divided_level)
    sigma_eq = equilibrium(p)[1]
    assert np.max(np.abs(ser.sigma - divided["sigma"])) <= 1e-12 * sigma_eq
    assert np.max(np.abs(ser.surface - divided["surface"])) <= 1e-12 * sigma_eq
    assert np.max(np.abs(ser.rows - divided["rows"])) <= 1e-12 * p.N0
    # and the two are different marches, not one
    assert ser.sigma.tobytes() != divided["sigma"].tobytes()
