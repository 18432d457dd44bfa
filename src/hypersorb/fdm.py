"""Explicit finite-difference engine on the symmetric half slab.

The half domain 0 <= z* <= 1/2 carries n_z segments of width h; node 0
sits on the symmetry plane and node n_z on the adsorbing wall.  Interior
nodes advance with an explicit three-level stencil for the damped wave
equation; the symmetry node mirrors its neighbour; the wall node is closed
each step by combining global particle conservation (trapezoidal rule)
with a backward-Euler discretization of the wall kinetics, which leaves a
single linear equation for the wall value.

Conservation holds to machine precision at every level by construction:
sigma_j is defined as N0/2 minus the trapezoidal mass of row j.

One function, march, does every march: it takes one start row per
parameter set, and sets on one grid, whatever their B, advance as one
(n_batch, n_z+1) array.  Each row's closure is its own linear equation, so
a batch row is bit-identical to a march of its set alone.  The runners
(run_fdm and run_fdm_batch) sample the initial condition, store 401 rows
and refuse, through check_grid, a grid they cannot march; other marches,
such as one with every level stored, call march directly.  B = 0, which
hypersorb.poles sums exactly, is refused by params.require_relaxation.

At the sizes in use numpy's per-call cost outweighs the arithmetic, so
each ring slot gets a pre-bound level program once per march: partials of
the stencil's six ufunc calls on the slot's views (the Laplacian is the
difference of one gradient, the weights are folded once per march, and
the Laplacian and rate fill the two halves of one work buffer that a
single multiply scales by the paired weights [a ... a | r ... r]; the
start-up level is the same program with weights [lam^2/2B ... | 0 ...]),
and the wall closure bound to the slot's memoryviews, which mirrors the
symmetry node, writes the slot's sigma and leaves each row's interior sum
in the slot's row of a sums buffer; one row is closed without a row loop,
and a march shorter than RING builds programs for its own levels only.
A level is its program and nothing else, and a pass around the ring ends
in copies, bound with it, of its raw record (sigma, wall values, node 0,
interior sums, probe nodes) into a level-major chunk of CHUNK_PASSES
passes, from which the inner mass, the probes and the conservation
residual are derived a chunk at a time into the row-major record, one
full-length array per quantity with a row per point.  With one row of
101 nodes a level costs ~3.3 us of CPU time, of which the six stencil
calls take ~1.8 us and the closure most of the rest (best of five
10^5-level marches on one core of a shared 2-vCPU Xeon host with numpy
2.4 and Python 3.11, whose timings swing with its load).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InvalidInput, StabilityError
from .params import InitialCondition, Params, check_positions, require_relaxation, sample_initial
from .series import TimeSeries, thin_indices

# most level rows held by the marching kernel: level j is written into slot
# j % RING, and what a level leaves in its rows (wall values, inner mass,
# probe nodes, stored rows) is recorded once per pass around the ring
RING = 64

# ring passes whose record is held level-major before it is written into
# the row-major series, the probes and conservation residual derived on the
# way: a few long ufunc calls a chunk in place of a few short ones a pass
CHUNK_PASSES = 16

# most levels x points a runner marches, about sixty times the largest in use
# (the 160,001 levels of one point at n_z = 200 of the README's B sweep at
# B = 1, T = 10, which scripts/landmarks.py marches too).  A march with three
# probes peaks at ~66 bytes a level and point, of which its series keep 56
# (tracemalloc, 10^6 levels of one point), and the CSV takes ~100 bytes a
# level: ~0.7 GB in memory at the bound.  It also bounds the nodes of a
# march's RING + STORED_ROWS row buffers a point: n_z <= 21,504 for one point.
MAX_RECORD = 10**7
STORED_ROWS = 401  # full rows a runner stores, evenly spread over its levels

# fewest segments a grid of the half slab may have
MIN_N_Z = 8

# cap on the step ratio lambda = k/h, an accuracy limit and not a
# stability one.  The one-step companion matrix of the whole scheme
# (interior stencil, symmetry node, nonlocal closure and sigma) keeps its
# spectral radius below 1 up to lambda = sqrt(B), and above it past that
# (1.15-1.32 at 1.01 sqrt(B) on 11 sets of A, B, L and n_z), so the closure
# does not tighten the wave bound.  What grows with lambda is the start-up
# slope of sigma, (sigma_1 - sigma_0)/k: at B = 0.1, n_z = 200 it is 0.25 at
# the cap but 2.28 at sqrt(B)/2, where acceptance criterion 4 allows 0.49
# (5 % of the physical slope).
LAMBDA_CAP = 2.5e-2


@dataclass(frozen=True)
class Grid:
    """Space-time discretization of the half slab: n_z segments, n_t steps over [0, T].

    h = 0.5/n_z, k = T/n_t and lam = k/h are derived, never given.  lam
    controls stability of the explicit scheme; it must stay under sqrt(B),
    the bound of the interior stencil, which the symmetry node and the
    nonlocal wall closure keep.  default_lambda's smaller value is set on
    accuracy (see LAMBDA_CAP).
    """

    n_z: int
    n_t: int
    T: float
    h: float = field(init=False)
    k: float = field(init=False)
    lam: float = field(init=False)

    def __post_init__(self):
        if self.n_z < MIN_N_Z:
            raise InvalidInput(f"n_z must be at least {MIN_N_Z}, got {self.n_z}")
        if self.n_t < 1:
            raise InvalidInput("n_t must be at least 1")
        h, k = 0.5 / self.n_z, self.T / self.n_t
        if not 0 < k < math.inf:
            raise InvalidInput(f"T / n_t must be finite and positive, got {self.T!r} / {self.n_t}")
        for name, value in (("h", h), ("k", k), ("lam", k / h)):
            object.__setattr__(self, name, value)

    @staticmethod
    def from_lambda(n_z: int, T: float, lam: float) -> "Grid":
        """Grid of n_z segments over [0, T] with the fewest steps that keep k/h <= lam."""
        if not (0 < T < math.inf and lam > 0):
            raise InvalidInput("T must be finite and positive, and lambda positive")
        if n_z < MIN_N_Z:
            raise InvalidInput(f"n_z must be at least {MIN_N_Z}, got {n_z}")
        step = lam * (0.5 / n_z)
        if not step > 0 or T / step == math.inf:
            raise ConfigError(f"T = {T:.4g} in steps of {step:.4g} exceeds the march record bound"
                              f" {MAX_RECORD}: shorten T or lengthen the step")
        return Grid(n_z, max(1, math.ceil(T / step)), T)

    def zgrid(self) -> np.ndarray:
        return np.linspace(0.0, 0.5, self.n_z + 1)

    def tgrid(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_t + 1)


def default_lambda(B: float) -> float:
    """Step ratio used when the caller does not pin one: min(sqrt(B)/2, cap)."""
    require_relaxation(B, "the fdm engine")
    return min(0.5 * math.sqrt(B), LAMBDA_CAP)


def check_grid(grid: Grid, B: float, n_points: int = 1) -> None:
    """Refuse with ConfigError B = 0, a grid unstable at B (a batch's least) or past MAX_RECORD."""
    require_relaxation(B, "the fdm engine")
    if grid.lam > math.sqrt(B):
        raise ConfigError(f"lambda = {grid.lam:.4g} exceeds the stability bound sqrt(B) = "
                          f"{math.sqrt(B):.4g}; reduce lambda")
    if (grid.n_t + 1) * n_points > MAX_RECORD:
        raise ConfigError(f"{grid.n_t + 1} levels x {n_points} point(s) exceed the march"
                          f" record bound {MAX_RECORD}: shorten T or coarsen n_z")
    if (RING + STORED_ROWS) * (grid.n_z + 1) * n_points > MAX_RECORD:
        raise ConfigError(f"{RING + STORED_ROWS} rows of {grid.n_z + 1} nodes x {n_points}"
                          f" point(s) exceed the march record bound {MAX_RECORD}: coarsen n_z")


class _Row(NamedTuple):
    """A row buffer (one row or a batch of rows) and the views a level binds.

    lower, upper and mid span the flattened buffer, so a stencil advances a
    whole batch in one contiguous pass; across a batch it also writes the
    wall node of each row and the symmetry node of the next, which the
    closure overwrites.  The closure reads and writes single nodes as Python
    floats through the memoryviews, one entry per row.
    """

    lower: np.ndarray  # the row buffer flattened, [:-1]
    upper: np.ndarray  # the row buffer flattened, [1:]
    mid: np.ndarray  # the row buffer flattened, [1:-1]
    interior: np.ndarray  # interior nodes 1 .. n_z-1 of each row
    heads: memoryview  # symmetry node 0, mirrored from necks by the closure
    necks: memoryview  # node 1
    wall: memoryview  # wall node n_z, written by the closure


def _views(row: np.ndarray) -> _Row:
    flat = row.reshape(-1)
    return _Row(
        flat[:-1], flat[1:], flat[1:-1], row[..., 1:-1],
        *(memoryview(row[..., i]) for i in (0, 1, -1)),
    )


def _stencil(new: _Row, old: _Row, older: _Row, weights, grad, work) -> list:
    """One level's interior update as six zero-argument ufunc calls, in this order.

    lap = (right - mid) - (mid - left) of old, the difference of one
    gradient buffer grad = upper - lower (two calls; both differences are
    exact zeros on a constant row).  lap and the rate old - older fill the
    two halves of the work buffer, of twice mid's nodes.  The three-level
    wave update in increment form, new = old + a lap + r (old - older): one
    multiply scales both halves by the paired weights [a ... a | r ... r] of
    _wave_weights, folded once per march, then lap += rate and
    new = old + lap.  The start-up level of a bulk at rest is the same
    program with older = old and weights [lam^2/2B ... | 0 ...]: its rate is
    an exact +0, scaled by 0.  A weight array's entries follow mid's nodes,
    one B a row, twice.
    """
    lap, rate = work[:new.mid.size], work[new.mid.size:]
    return [
        partial(np.subtract, old.upper, old.lower, grad),
        partial(np.subtract, grad[1:], grad[:-1], lap),
        partial(np.subtract, old.mid, older.mid, rate),
        partial(np.multiply, work, weights, work),
        partial(np.add, lap, rate, lap),
        partial(np.add, old.mid, lap, new.mid),
    ]


def _wave_weights(grid: Grid, B, n_mid: int) -> np.ndarray:
    """The wave level's folded weights paired for one multiply: [a ... a | r ... r].

    (a, r) = (2 lam^2, 2B - k) / (2B + k), each over n_mid nodes; B is a
    float or an array of n_mid entries.
    """
    den = 2.0 * B + grid.k
    return np.concatenate([np.broadcast_to(w, n_mid)
                           for w in (2.0 * grid.lam**2 / den, (2.0 * B - grid.k) / den)])


def step_interior(prev: np.ndarray, prev2: np.ndarray, grid: Grid, B: float) -> np.ndarray:
    """Advance the interior one level using the two previous complete rows.

    The march's own six ufunc calls (_stencil): the increment form of the
    three-level stencil, with the folded weights paired over a work buffer
    (same algebra as the direct three-point weights, exact on constant
    rows); boundary nodes copied.
    """
    row = prev.copy()
    new = _views(row)
    grad = np.empty_like(new.upper)
    weights = _wave_weights(grid, B, new.mid.size)
    for op in _stencil(new, _views(prev), _views(prev2), weights, grad, np.empty_like(weights)):
        op()
    row[..., 0], row[..., -1] = prev[..., 0], prev[..., -1]
    return row


def _wall_constants(p: Params, grid: Grid) -> tuple:
    """The wall closure's constants for one parameter set (see _bind_wall)."""
    h, k = grid.h, grid.k
    den = k * p.L + (p.A + k) * 0.5 * h
    if abs(den / k) < 1e-14:
        raise ConfigError("degenerate wall closure: (A/k + 1) h/2 + L is numerically zero")
    return 0.5 * p.N0, p.A + k, p.A, den, h


def _bind_wall(row: _Row, sigma_old: memoryview, sigma: memoryview, constants: list,
               totals: np.ndarray):
    """row's wall closure as a zero-argument call: mirror, close, write sigma.

    The closure joins global conservation to backward-Euler kinetics: with I
    the trapezoidal mass of a row and sigma = N0/2 - I (half-domain
    conservation), A (sigma_j - sigma_{j-1})/k = L N_wall - sigma_j is linear
    in the single unknown N_wall, and its closed-form solve keeps the
    conservation identity exact.  Each row's symmetry node takes node 1's
    value, its wall value is solved from sigma_old, and its sigma written to
    sigma, one entry per row.  The inner mass h (node 0 / 2 + the interior
    sum) is taken in Python floats: the pairwise reduce writes each row's
    interior sum into totals, where it stays for the march's record.  One
    row is closed without the loop, its constants locals and its reduce 1-D
    into a 0-d view of totals: the loop's float operations, in its order.
    """
    wall, heads, necks, sums = row.wall, row.heads, row.necks, memoryview(totals)
    if len(constants) == 1:
        inner_one = partial(np.add.reduce, row.interior[0], 0, None, totals.reshape(()))
        (half_n0, a_k, a, den, h), = constants

        def close_one() -> None:
            inner_one()
            heads[0] = head = necks[0]
            rhs_mass = half_n0 - h * (0.5 * head + sums[0])
            w = (a_k * rhs_mass - a * sigma_old[0]) / den
            wall[0] = w
            sigma[0] = rhs_mass - 0.5 * h * w

        return close_one
    inner_sum = partial(np.add.reduce, row.interior, 1, None, totals)
    indexed = [(b, *c) for b, c in enumerate(constants)]

    def close() -> None:
        inner_sum()
        for b, half_n0, a_k, a, den, h in indexed:
            heads[b] = head = necks[b]
            rhs_mass = half_n0 - h * (0.5 * head + sums[b])
            w = (a_k * rhs_mass - a * sigma_old[b]) / den
            wall[b] = w
            sigma[b] = rhs_mass - 0.5 * h * w

    return close


def apply_surface(row: np.ndarray, sigma_prev: float, grid: Grid, p: Params) -> tuple[float, float]:
    """Close the wall node of one row and update sigma for the current level.

    The march's closure: sigma = N0/2 - trapezoid(row) combined with
    backward-Euler kinetics A (sigma_j - sigma_{j-1})/k = L N_wall - sigma_j.
    The wall value is written into row in place, through a memoryview of
    its wall node, so row must be a writable float64 array; no other node
    changes.
    """
    views = _views(row[np.newaxis])
    sigma = memoryview(np.array([sigma_prev]))
    # node 0 mirrors itself, so the closure reads the row's own symmetry node
    close = _bind_wall(views._replace(necks=views.heads), sigma, sigma, [_wall_constants(p, grid)],
                       np.empty(1))
    close()
    return float(row[-1]), sigma[0]


def _probe_weights(probes, zgrid: np.ndarray) -> list[tuple[float, int, float]]:
    """Linear interpolation stencils (probe, left index, right weight) at |z*|, z* in the slab."""
    out = []
    h = zgrid[1] - zgrid[0]
    for z in check_positions(probes):
        az = abs(float(z))
        i = min(int(az / h), zgrid.size - 2)
        w = (az - zgrid[i]) / h
        out.append((float(z), i, float(w)))
    return out


def march(rows0, ps, grid: Grid, probes=(), max_rows: int = STORED_ROWS) -> list[TimeSeries]:
    """March start row rows0[b] with parameter set ps[b], all as one batch on grid.

    The engine's only time loop; one series per point.  The march itself
    does not check the grid (see check_grid).  A batch may mix B: the
    weights are folded once per march, the wave level's
    a = 2 lam^2/(2B + k) and r = (2B - k)/(2B + k) paired over twice the
    mid span (_wave_weights), and the start-up's lam^2/2B and 0 likewise,
    each row's entries its own B.  sigma at level 0 is N0/2 less the start
    row's trapezoidal mass.  Level j lives in slot j % RING of a ring of
    min(RING, n_t + 1) level rows and sigmas, and each slot gets its level
    program once per march: zero-argument calls that advance every row's
    interior from the two slots before it (_stencil's six ufunc calls;
    the first level, the start-up of a bulk at rest, advances slot 0 with
    a zero rate weight), then close the walls.  The closure, bound to the
    slot's memoryviews and the rows' constants (a Python loop over a
    batch's rows, none for one row), mirrors the symmetry node, solves the
    wall value and writes the row's sigma from the slot before it.  A pass
    around the ring runs its levels' programs back to back, then copies the
    whole ring's raw record into its place in a level-major chunk of
    CHUNK_PASSES rings (sigma, the wall values, node 0, the interior sums
    and the probe nodes), bound once per place; a short last pass leaves
    stale slots there, which are never read.  Then one max and one min of
    the whole ring, bound once, check it for divergence.  The full rows, at
    max_rows evenly spread levels, go straight from the passes that hold one
    to the series.
    Every CHUNK_PASSES passes, and after the last, the chunk is written into
    the row-major (n_batch, n_levels) record of sigma, surface, conservation
    and each probe, the inner mass, probes and residual derived on the way;
    series b holds row b of each.  Row b only ever sees parameter set b, so
    each row of a batch matches a march of its point alone bit for bit.
    Each series gets its own time grid and meta {"engine": "fdm", "grid":
    grid.__dict__}.
    """
    ps = list(ps)
    rows0 = np.asarray(rows0, dtype=float)
    n_batch, n_nodes, n_t = len(ps), grid.n_z + 1, grid.n_t
    if not ps or rows0.shape != (n_batch, n_nodes):
        raise InvalidInput("a batch needs one start row of n_z+1 nodes per parameter set")
    require_relaxation(min(p.B for p in ps), "the fdm engine")
    constants = [_wall_constants(p, grid) for p in ps]
    zgrid, h = grid.zgrid(), grid.h
    n_levels = n_t + 1
    n_slots = min(RING, n_levels)
    stored = thin_indices(n_levels, max_rows)
    stencils = _probe_weights(probes, zgrid)
    nodes = sorted({n for _, i, _ in stencils for n in (i, i + 1)})

    # level j in slot j % RING: its rows in ring, its sigma in sig_ring and the
    # sums of its rows' interior nodes, left by its closure, in sums
    ring = np.empty((n_slots, n_batch, n_nodes))
    sig_ring, sums = np.empty((n_slots, n_batch)), np.empty((n_slots, n_batch))
    slots, sigmas = [_views(row) for row in ring], [memoryview(s) for s in sig_ring]
    # each row's B on its n_z + 1 nodes, trimmed as mid is
    B = np.repeat([p.B for p in ps], n_nodes)[1:-1]
    weights = _wave_weights(grid, B, B.size)
    grad, work = np.empty_like(slots[0].upper), np.empty_like(weights)
    np.copyto(ring[0], rows0)
    # sigma at level 0 by the conservation identity, the inner mass being
    # h (node 0 / 2 + the interior sum) as in _bind_wall
    n0 = np.array([p.N0 for p in ps])
    np.add.reduce(slots[0].interior, 1, None, sums[0])
    sig_ring[0] = 0.5 * n0 - (h * (0.5 * ring[0][:, 0] + sums[0]) + 0.5 * h * ring[0][:, -1])

    def program(i: int, older: _Row, weights) -> tuple:
        # slot i's level: stencil from slots i-1 and older, then the closure,
        # which mirrors node 0 and writes sigma from slot i-1's into slot i's
        return (*_stencil(slots[i], slots[i - 1], older, weights, grad, work),
                _bind_wall(slots[i], sigmas[i - 1], sigmas[i], constants, sums[i]))

    programs = [program(i, slots[i - 2], weights) for i in range(n_slots)]
    start = program(1, slots[0], np.concatenate([grid.lam * grid.lam / (2.0 * B), np.zeros_like(B)]))
    # the ops of one pass around the ring, slot after slot.  The first pass
    # fills the ring (n_slots <= n_levels); every program is equally long,
    # so a shorter last pass runs a prefix of full_pass
    per_level = len(programs[0])
    full_pass = [op for prog in programs for op in prog]
    first_pass = [*start, *full_pass[2 * per_level:]]
    # the record, row-major: one entry per level in each row's series
    sigma, wall, cons = (np.empty((n_batch, n_levels)) for _ in range(3))
    probe_rec = [np.empty((n_batch, n_levels)) for _ in stencils]
    rows = np.empty((n_batch, stored.size, n_nodes))
    # the raw record of CHUNK_PASSES passes, level-major: sigma, the wall value,
    # node 0, the interior sum and the probe nodes, one entry per row
    n_chunk = CHUNK_PASSES * n_slots
    sig_c, wall_c, head_c, sum_c = (np.empty((n_chunk, n_batch)) for _ in range(4))
    node_c = np.empty((n_chunk, n_batch, len(nodes)))
    node_index = np.array(nodes, dtype=np.intp)

    def record(c: int) -> list:
        # copies of the whole ring's raw record into places c .. c + n_slots - 1 of the chunk
        done = slice(c, c + n_slots)
        return [*(partial(np.copyto, dst[done], src) for dst, src in (
            (sig_c, sig_ring), (wall_c, ring[..., -1]), (head_c, ring[..., 0]), (sum_c, sums))),
            partial(np.take, ring, node_index, 2, node_c[done], "clip")]

    # bound once for each place in the chunk that a pass of this march takes
    records = [record(c) for c in range(0, min(n_chunk, n_levels), n_slots)]

    def flush(lo: int, m: int) -> None:
        # the chunk's first m levels into the record as levels lo .. lo + m - 1
        span = slice(lo, lo + m)
        sigma[:, span], wall[:, span] = sig_c[:m].T, wall_c[:m].T
        for (_, i, frac), rec in zip(stencils, probe_rec):
            left, right = node_c[:m, :, nodes.index(i)], node_c[:m, :, nodes.index(i + 1)]
            rec[:, span] = ((1.0 - frac) * left + frac * right).T
        # |integral(N) + 2 sigma - N0|, the trapezoidal mass of the half row being
        # the inner mass h (node 0 / 2 + the interior sum) plus (h/2) N_wall
        inner = h * (0.5 * head_c[:m] + sum_c[:m])
        cons[:, span] = abs(2.0 * (inner + 0.5 * h * wall_c[:m]) + 2.0 * sig_c[:m] - n0).T

    # the march checks the whole ring once a pass: a node at or past the
    # smallest ceiling (or NaN) fails its max or min test, and only then are
    # the pass's new levels checked in order, each row against its own
    # ceiling, so the first level and node past it are named (the start row
    # and stale slots are not new).  Levels after that one may overflow
    # before the pass ends; numpy stays quiet about it.
    ceilings = [1e100 * max(1.0, p.N0) for p in ps]
    ceiling = min(ceilings)
    top, bottom = partial(np.maximum.reduce, ring, None), partial(np.minimum.reduce, ring, None)
    # pass by pass around the ring: levels first .. first + n - 1 in slots 0 .. n - 1;
    # the first pass starts from the start row in slot 0, with the start-up level
    starts = range(0, n_levels, n_slots)
    edges = np.searchsorted(stored, [*starts, n_levels]).tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        for first, lo, hi in zip(starts, edges, edges[1:]):
            n, c = min(n_slots, n_levels - first), first % n_chunk  # c: its place in the chunk
            levels = full_pass if n == n_slots else full_pass[: n * per_level]
            for op in levels if first else first_pass:
                op()
            for op in records[c // n_slots]:
                op()
            if not (top() < ceiling and bottom() > -ceiling):
                for i in range(0 if first else 1, n):
                    _check_divergence(first + i, ring[i], ceilings, ps, grid)
            if c + n == n_chunk or first + n == n_levels:
                flush(first - c, c + n)
            if lo < hi:
                rows[:, lo:hi] = ring[stored[lo:hi] - first].swapaxes(0, 1)

    out = []
    for b, p in enumerate(ps):
        t = grid.tgrid()
        out.append(TimeSeries(
            t=t,
            sigma=sigma[b],
            surface=wall[b],
            probes={z: rec[b] for (z, _, _), rec in zip(stencils, probe_rec)},
            rows=rows[b],
            row_times=t[stored],
            row_z=zgrid,
            conservation=cons[b],
            params=p,
            meta={"engine": "fdm", "grid": grid.__dict__.copy()},
        ))
    return out


def _check_divergence(j: int, rows: np.ndarray, ceilings: list, ps: list, grid: Grid) -> None:
    """Raise StabilityError for the first row with a node past its ceiling."""
    for b, (row, ceiling, p) in enumerate(zip(rows, ceilings, ps)):
        hint = f" (lambda={grid.lam:.4g}, B={p.B:.4g}); reduce lambda"
        point = ""
        if len(ps) > 1:
            point = f" of batch point {b} (A={p.A:.4g}, L={p.L:.4g}, N0={p.N0:.4g})"
        size = np.abs(row[:-1])
        if not float(np.max(size)) < ceiling:
            bad = int(np.argmax(~(size < ceiling)))
            raise StabilityError(f"density diverging at level j={j}, node i={bad}{point}{hint}")
        if not abs(float(row[-1])) < ceiling:
            raise StabilityError(f"wall density diverging at level j={j}{point}{hint}")


def run_fdm_batch(ps, ic: InitialCondition, grid: Grid, probes=()) -> list[TimeSeries]:
    """run_fdm for parameter sets on one grid, whatever their B, marched as one array.

    The grid must be stable for the smallest B.  Series b is bit-identical
    to run_fdm(ps[b], ic, grid, ...).
    """
    # an empty batch is left to march, which refuses it
    check_grid(grid, min((p.B for p in ps), default=math.inf), len(ps))
    zgrid = grid.zgrid()
    return march([sample_initial(ic, p, zgrid) for p in ps], ps, grid, probes)


def run_fdm(p: Params, ic: InitialCondition, grid: Grid, probes=()) -> TimeSeries:
    """March the hyperbolic system over [0, T] and collect the time series.

    The bulk starts at rest: the initial rate is zero everywhere, the
    compatible choice when the walls start empty.
    """
    return run_fdm_batch([p], ic, grid, probes)[0]
