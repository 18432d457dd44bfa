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
(n_batch, n_z+1) array, with the wave or the parabolic reference stencil
inside and the nonlocal or the local closure at the wall.  Each row's
closure is its own linear equation, so a batch row is bit-identical to a
march of its set alone.  The runners (run_fdm, run_fdm_batch and
validate's parabolic pair, which closes the wall locally) sample the
initial condition, store 401 rows and refuse, through check_grid, a grid
they cannot march; other marches, such as one with every level stored or
the heat stencil under the nonlocal closure, call march directly.

At the sizes in use numpy's per-call cost outweighs the arithmetic, so
each ring slot gets a pre-bound level program once per march: partials of
the stencil's ufunc calls on the slot's views with 0-d weights, and the
wall closure bound to the slot's memoryviews, which also mirrors the
symmetry node and writes the slot's sigma; a march shorter than RING
builds programs for its own levels only.  A level is its program and
nothing else: the wave march's divergence check and the record run once
per pass around the ring.  The record is row-major, one full-length array
per quantity with a row per point, so each series is a row of it; a pass
leaves its raw values (sigma, wall values, inner mass, probe nodes) in a
level-major chunk of CHUNK_PASSES passes, from which the probes and the
conservation residual are derived a chunk at a time.  With one row of 101
nodes a heat level costs ~3 us and a wave level ~6.5 us of CPU time on one
core of a shared Xeon host with numpy 2.4, whose timings swing up to
twofold with its load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InvalidInput, StabilityError
from .params import InitialCondition, Params, sample_initial
from .series import TimeSeries, thin_indices

# most level rows held by the marching kernel: level j is written into slot
# j % RING, and what a level leaves in its rows (wall values, inner mass,
# probe nodes, stored rows) is recorded once per pass around the ring
RING = 64

# ring passes whose record is held level-major before it is written into
# the row-major series, the probes and conservation residual derived on the
# way: a few long ufunc calls a chunk in place of a few short ones a pass
CHUNK_PASSES = 16

# most levels x points a runner marches, fifty times the largest in use (the
# 200,001 heat levels of one point at n_z = 100 that acceptance criterion 7
# marches as its reference; no CLI command marches the heat stencil).  A
# march with three probes peaks at ~67 bytes a level and point, of which its
# series keep 56 (tracemalloc, 10^6 levels of one point), and the CSV takes
# ~100 bytes a level: ~0.7 GB in memory at the bound.  It also bounds the nodes of a
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
    """Space-time discretization of the half slab.

    lam = k/h controls stability of the explicit scheme; it must stay under
    sqrt(B), the bound of the interior stencil, which the symmetry node and
    the nonlocal wall closure keep.  default_lambda's smaller value is set
    on accuracy (see LAMBDA_CAP).
    """

    n_z: int
    n_t: int
    h: float
    k: float
    lam: float
    T: float

    def __post_init__(self):
        if self.n_z < MIN_N_Z:
            raise InvalidInput(f"n_z must be at least {MIN_N_Z}, got {self.n_z}")
        if self.n_t < 1:
            raise InvalidInput("n_t must be at least 1")
        if not (self.h > 0 and self.k > 0):
            raise InvalidInput("grid steps must be positive")

    @staticmethod
    def from_lambda(n_z: int, T: float, lam: float) -> "Grid":
        """Grid with spacing h = 0.5/n_z and step count chosen so k/h <= lam."""
        if not (0 < T < math.inf and lam > 0):
            raise InvalidInput("T must be finite and positive, and lambda positive")
        return Grid._stepped(n_z, T, lambda h: lam * h)

    @staticmethod
    def for_parabolic(n_z: int, T: float, r: float = 0.4) -> "Grid":
        """Grid for the diffusive reference scheme, r = k/h^2 <= 1/2."""
        if not (0 < T < math.inf and 0 < r <= 0.5):
            raise InvalidInput("parabolic grids need 0 < r <= 1/2 and a finite T > 0")
        return Grid._stepped(n_z, T, lambda h: r * h * h)

    @staticmethod
    def _stepped(n_z: int, T: float, step_of) -> "Grid":
        """Grid of n_z segments and the fewest steps of at most step_of(h) over T."""
        if n_z < MIN_N_Z:
            raise InvalidInput(f"n_z must be at least {MIN_N_Z}, got {n_z}")
        step = step_of(0.5 / n_z)
        if not step > 0 or T / step == math.inf:
            raise ConfigError(f"T = {T:.4g} in steps of {step:.4g} exceeds the march record bound"
                              f" {MAX_RECORD}: shorten T or lengthen the step")
        n_t = max(1, math.ceil(T / step))
        h, k = 0.5 / n_z, T / n_t
        return Grid(n_z=n_z, n_t=n_t, h=h, k=k, lam=k / h, T=T)

    def zgrid(self) -> np.ndarray:
        return np.linspace(0.0, 0.5, self.n_z + 1)

    def tgrid(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_t + 1)


def default_lambda(B: float) -> float:
    """Step ratio used when the caller does not pin one: min(sqrt(B)/2, cap)."""
    if not B > 0:
        raise ConfigError("default_lambda requires B > 0")
    return min(0.5 * math.sqrt(B), LAMBDA_CAP)


def check_grid(grid: Grid, stencil: str, B: float, n_points: int = 1) -> None:
    """Refuse with ConfigError a grid unstable at B (a batch's least) or past MAX_RECORD."""
    r = grid.k / (grid.h * grid.h)
    if stencil == WAVE and not B > 0:
        raise ConfigError("run_fdm requires B > 0; use the parabolic reference solver")
    if stencil == WAVE and grid.lam > math.sqrt(B):
        raise ConfigError(f"lambda = {grid.lam:.4g} exceeds the stability bound sqrt(B) = "
                          f"{math.sqrt(B):.4g}; reduce lambda")
    if stencil == HEAT and r > 0.5 + 1e-12:
        raise ConfigError(f"parabolic stability needs k <= h^2/2; got r = {r:.4g}")
    if (grid.n_t + 1) * n_points > MAX_RECORD:
        raise ConfigError(f"{grid.n_t + 1} levels x {n_points} point(s) exceed the march"
                          f" record bound {MAX_RECORD}: shorten T or coarsen n_z")
    if (RING + STORED_ROWS) * (grid.n_z + 1) * n_points > MAX_RECORD:
        raise ConfigError(f"{RING + STORED_ROWS} rows of {grid.n_z + 1} nodes x {n_points}"
                          f" point(s) exceed the march record bound {MAX_RECORD}: coarsen n_z")


class _Row(NamedTuple):
    """A row buffer (one row or a batch of rows) and the views a level binds.

    left, mid and right span the flattened buffer, so a stencil advances a
    whole batch in one contiguous pass; across a batch it also writes the
    wall node of each row and the symmetry node of the next, which the
    closure overwrites.  The closures read and write single nodes as Python
    floats through the memoryviews, one entry per row.
    """

    full: np.ndarray
    left: np.ndarray  # full flattened, [:-2]
    mid: np.ndarray  # full flattened, [1:-1]
    right: np.ndarray  # full flattened, [2:]
    interior: np.ndarray  # interior nodes 1 .. n_z-1 of each row
    heads: memoryview  # symmetry node 0, mirrored from necks by the closures
    necks: memoryview  # node 1
    near: memoryview  # node n_z-1
    near2: memoryview  # node n_z-2
    wall: memoryview  # wall node n_z, written by the closures


def _views(row: np.ndarray) -> _Row:
    flat = row.reshape(-1)
    return _Row(
        row, flat[:-2], flat[1:-1], flat[2:], row[..., 1:-1],
        *(memoryview(row[..., i]) for i in (0, 1, -2, -3, -1)),
    )


def _stencil(new: _Row, old: _Row, older: _Row | None, weights, lap, tmp) -> list:
    """One level's interior update as zero-argument ufunc calls, in this order.

    lap = right - 2 mid + left of old, 2 mid formed as mid + mid (exact).
    With older, the three-level wave update in increment form, new = old +
    (2 lam^2 lap + (2B - k)(old - older)) / (2B + k), weights (2 lam^2,
    2B - k, 2B + k); without, new = old + r lap, weights (r,).  lap and tmp
    are work buffers.  A float weight is bound as a 0-d array, which a ufunc
    takes with no conversion on each call; an array spans mid, one B a row.
    """
    weights = [np.asarray(w) for w in weights]
    ops = [
        partial(np.add, old.mid, old.mid, tmp),
        partial(np.subtract, old.right, tmp, lap),
        partial(np.add, lap, old.left, lap),
    ]
    if older is None:
        ops.append(partial(np.multiply, lap, weights[0], lap))
    else:
        c_lap, c_rate, den = weights
        ops += [
            partial(np.multiply, lap, c_lap, lap),
            partial(np.subtract, old.mid, older.mid, tmp),
            partial(np.multiply, tmp, c_rate, tmp),
            partial(np.add, lap, tmp, lap),
            partial(np.divide, lap, den, lap),
        ]
    return ops + [partial(np.add, old.mid, lap, new.mid)]


def _wave_weights(grid: Grid, B):
    return 2.0 * grid.lam**2, 2.0 * B - grid.k, 2.0 * B + grid.k


def step_interior(prev: np.ndarray, prev2: np.ndarray, grid: Grid, B: float) -> np.ndarray:
    """Advance the interior one level using the two previous complete rows.

    Increment form of the three-level stencil (same algebra as the direct
    three-point weights, exact on constant rows); boundary nodes copied.
    """
    row = prev.copy()
    new = _views(row)
    lap = np.empty_like(new.mid)
    weights = _wave_weights(grid, B)
    for op in _stencil(new, _views(prev), _views(prev2), weights, lap, np.empty_like(lap)):
        op()
    row[..., 0], row[..., -1] = prev[..., 0], prev[..., -1]
    return row


def trapezoid_interior(rows: np.ndarray, h: float) -> np.ndarray:
    """Trapezoidal mass of the half row excluding the wall-node contribution.

    rows may be one row or any stack of rows (space on the last axis); the
    result has one entry per row.
    """
    return h * (0.5 * rows[..., 0] + np.add.reduce(rows[..., 1:-1], axis=-1))


class _Nonlocal:
    """Wall closure from global conservation plus backward-Euler kinetics.

    With I the trapezoidal mass of a row and sigma = N0/2 - I (half-domain
    conservation), A (sigma_j - sigma_{j-1})/k = L N_wall - sigma_j is linear
    in the single unknown N_wall; the closed-form solve keeps the
    conservation identity exact.
    """

    @staticmethod
    def constants(p: Params, grid: Grid) -> tuple:
        h, k = grid.h, grid.k
        den = k * p.L + (p.A + k) * 0.5 * h
        if abs(den / k) < 1e-14:
            raise ConfigError("degenerate wall closure: (A/k + 1) h/2 + L is numerically zero")
        return 0.5 * p.N0, p.A + k, p.A, den, h

    @staticmethod
    def start(row: _Row, constants: list) -> list:
        """sigma at level 0, fixed by the conservation identity."""
        inner = trapezoid_interior(row.full, constants[0][4]).tolist()
        return [c[0] - (mass + 0.5 * c[4] * w) for mass, w, c in zip(inner, row.wall, constants)]

    @staticmethod
    def bind(row: _Row, sigma_old: memoryview, sigma: memoryview, constants: list):
        """row's wall closure as a zero-argument call: mirror, close, write sigma.

        Each row's symmetry node takes node 1's value, its wall value is
        solved from sigma_old, and its sigma written to sigma, one entry per
        row.  The inner mass is trapezoid_interior's, in Python floats: the
        pairwise reduce writes into a buffer bound here.
        """
        wall, heads, necks = row.wall, row.heads, row.necks
        totals = np.empty(len(constants))
        inner_sum, sums = partial(np.add.reduce, row.interior, 1, None, totals), memoryview(totals)
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


class _Local:
    """Wall closure from the flux condition dsigma/dt = -dN/dz.

    A second-order one-sided gradient at the wall combined with
    backward-Euler kinetics, solved for the wall value.  It conserves mass
    only to O(h).
    """

    @staticmethod
    def constants(p: Params, grid: Grid) -> tuple:
        h, k = grid.h, grid.k
        return p.A + k, 2.0 * h, p.A, k * p.L, 2.0 * h * p.L + 3.0 * (p.A + k)

    @staticmethod
    def start(row: _Row, constants: list) -> list:
        return [0.0] * len(constants)

    @staticmethod
    def bind(row: _Row, sigma_old: memoryview, sigma: memoryview, constants: list):
        wall, heads, necks, near, near2 = row.wall, row.heads, row.necks, row.near, row.near2
        indexed = [(b, *c) for b, c in enumerate(constants)]

        def close() -> None:
            for b, a_k, two_h, a, k_l, den in indexed:
                heads[b] = necks[b]
                s = sigma_old[b]
                w = (a_k * (4.0 * near[b] - near2[b]) + two_h * s) / den
                wall[b] = w
                sigma[b] = (a * s + k_l * w) / a_k

        return close


# interior stencils and wall closures of the marching kernel
WAVE, HEAT = "wave", "heat"
NONLOCAL, LOCAL = "nonlocal", "local"
_CLOSURES = {NONLOCAL: _Nonlocal, LOCAL: _Local}


def apply_surface(row: np.ndarray, sigma_prev: float, grid: Grid, p: Params) -> tuple[float, float]:
    """Close the wall node of one row and update sigma for the current level.

    The nonlocal closure: sigma = N0/2 - trapezoid(row) combined with
    backward-Euler kinetics A (sigma_j - sigma_{j-1})/k = L N_wall - sigma_j.
    The wall value is written into row in place, through a memoryview of
    its wall node, so row must be a writable float64 array; no other node
    changes.
    """
    views = _views(row[np.newaxis])
    sigma = memoryview(np.array([sigma_prev]))
    # node 0 mirrors itself, so the closure reads the row's own symmetry node
    close = _Nonlocal.bind(views._replace(necks=views.heads), sigma, sigma,
                           [_Nonlocal.constants(p, grid)])
    close()
    return float(row[-1]), sigma[0]


def _probe_weights(probes, zgrid: np.ndarray) -> list[tuple[float, int, float]]:
    """Linear interpolation stencils (probe, left index, right weight)."""
    out = []
    h = zgrid[1] - zgrid[0]
    for z in probes:
        az = abs(float(z))
        if not az <= 0.5 + 1e-12:
            raise InvalidInput(f"probe z* = {z} outside [-1/2, 1/2]")
        az = min(az, 0.5)
        i = min(int(az / h), zgrid.size - 2)
        w = (az - zgrid[i]) / h
        out.append((float(z), i, float(w)))
    return out


def march(rows0, ps, grid: Grid, stencil: str, closure: str, meta: dict,
          probes=(), max_rows: int = STORED_ROWS) -> list[TimeSeries]:
    """March start row rows0[b] with parameter set ps[b], all as one batch on grid.

    The engine's only time loop; one series per point.  stencil is WAVE or
    HEAT, closure NONLOCAL or LOCAL (other names raise InvalidInput); the
    march itself does not check the grid (see check_grid).  A WAVE batch may
    mix B: the weights that hold B (2B - k, 2B + k and the start-up's
    lam^2/2B) are arrays over the mid span, each row's entries its own B.
    Level j lives in slot j % RING of a ring of min(RING, n_t + 1) level
    rows and sigmas, and each slot gets its level program once per march:
    zero-argument calls that advance every row's interior from the two slots
    before it (_stencil's nine or five ufunc calls; the wave march's first
    level is the two-level start-up of a bulk at rest), then close the
    walls.  The closure is one Python loop over the rows, bound to the
    slot's memoryviews and the rows' constants: it mirrors the symmetry
    node, solves the wall value and writes the row's sigma from the slot
    before it.  A pass around the ring runs its levels' programs back to
    back.  Then the wave march checks the pass for divergence (one max and
    one min of its levels), and the pass's raw record is read off the ring
    into a level-major chunk: sigma, the wall values, the inner trapezoidal
    mass and the probe nodes; the full rows, at max_rows evenly spread
    levels, go straight to the series.  Every CHUNK_PASSES passes, and after
    the last, the chunk is written into the row-major (n_batch, n_levels)
    record of sigma, surface, conservation and each probe, the probes and
    the residual derived on the way; series b holds row b of each.  Row b
    only ever sees parameter set b, so each row of a batch matches a march
    of its point alone bit for bit.  Each series gets its own time grid and
    a copy of meta plus the grid.
    """
    ps = list(ps)
    rows0 = np.asarray(rows0, dtype=float)
    n_batch, n_nodes, n_t = len(ps), grid.n_z + 1, grid.n_t
    if not ps or rows0.shape != (n_batch, n_nodes):
        raise InvalidInput("a batch needs one start row of n_z+1 nodes per parameter set")
    if stencil not in (WAVE, HEAT) or closure not in _CLOSURES:
        raise InvalidInput(f"march needs stencil 'wave' or 'heat' and closure 'nonlocal' or"
                           f" 'local', got {stencil!r} and {closure!r}")
    wave = stencil == WAVE
    if wave and not min(p.B for p in ps) > 0:
        raise ConfigError("the hyperbolic engine requires B > 0; use the parabolic solver")
    wall_closure = _CLOSURES[closure]
    constants = [wall_closure.constants(p, grid) for p in ps]
    zgrid, h = grid.zgrid(), grid.h
    n_levels = n_t + 1
    n_slots = min(RING, n_levels)
    stored = thin_indices(n_levels, max_rows)
    stencils = _probe_weights(probes, zgrid)
    nodes = sorted({n for _, i, _ in stencils for n in (i, i + 1)})

    # level j in slot j % RING: its rows in ring, its sigma in sig_ring
    ring, sig_ring = np.empty((n_slots, n_batch, n_nodes)), np.empty((n_slots, n_batch))
    slots, sigmas = [_views(row) for row in ring], [memoryview(s) for s in sig_ring]
    lap, tmp = np.empty_like(slots[0].mid), np.empty_like(slots[0].mid)
    np.copyto(ring[0], rows0)
    sig_ring[0] = wall_closure.start(slots[0], constants)

    def program(i: int, weights, two_level: bool) -> tuple:
        # slot i's level: stencil from slots i-1 (and i-2), then the closure,
        # which mirrors node 0 and writes sigma from slot i-1's into slot i's
        new, older = slots[i], None if two_level else slots[i - 2]
        return (*_stencil(new, slots[i - 1], older, weights, lap, tmp),
                wall_closure.bind(new, sigmas[i - 1], sigmas[i], constants))

    # each row's B on its n_z + 1 nodes, trimmed as mid is
    B = np.repeat([p.B for p in ps], n_nodes)[1:-1]
    weights = _wave_weights(grid, B) if wave else (grid.k / (grid.h * grid.h),)
    programs = [program(i, weights, not wave) for i in range(n_slots)]
    start = program(1, (grid.lam * grid.lam / (2.0 * B),), True) if wave else programs[1]
    # the ops of one pass around the ring, slot after slot.  The first pass
    # fills the ring (n_slots <= n_levels); the programs after it are equal
    # in length, so a shorter last pass runs a prefix of full_pass
    per_level = len(programs[0])
    full_pass = [op for prog in programs for op in prog]
    first_pass = [*start, *full_pass[2 * per_level:]]
    # the record, row-major: one entry per level in each row's series
    sigma, wall, cons = (np.empty((n_batch, n_levels)) for _ in range(3))
    probe_rec = [np.empty((n_batch, n_levels)) for _ in stencils]
    rows = np.empty((n_batch, stored.size, n_nodes))
    # the raw record of CHUNK_PASSES passes, level-major: sigma, the wall value,
    # the inner trapezoidal mass and the probe nodes, one entry per row
    n_chunk = min(CHUNK_PASSES * n_slots, n_levels)
    sig_c, wall_c, inner_c = (np.empty((n_chunk, n_batch)) for _ in range(3))
    node_c = np.empty((n_chunk, n_batch, len(nodes)))
    n0 = np.array([p.N0 for p in ps])

    def flush(lo: int, m: int) -> None:
        # the chunk's first m levels into the record as levels lo .. lo + m - 1
        span = slice(lo, lo + m)
        sigma[:, span], wall[:, span] = sig_c[:m].T, wall_c[:m].T
        for (_, i, frac), rec in zip(stencils, probe_rec):
            left, right = node_c[:m, :, nodes.index(i)], node_c[:m, :, nodes.index(i + 1)]
            rec[:, span] = ((1.0 - frac) * left + frac * right).T
        # |integral(N) + 2 sigma - N0|, the trapezoidal mass of the half row
        # being the inner mass plus (h/2) N_wall
        cons[:, span] = abs(2.0 * (inner_c[:m] + 0.5 * h * wall_c[:m]) + 2.0 * sig_c[:m] - n0).T

    # a wave march checks its new levels once a pass: a node at or past the
    # smallest ceiling (or NaN) fails the block's max or min test, and only
    # then are the pass's levels checked in order, each row against its own
    # ceiling, so the first level and node past it are named.  Levels after
    # that one may overflow before the pass ends; numpy stays quiet about it.
    ceilings = [1e100 * max(1.0, p.N0) for p in ps]
    ceiling = min(ceilings)
    # (a heat march is not checked and keeps numpy's warnings: None leaves them as set)
    quiet = "ignore" if wave else None
    # pass by pass around the ring: levels first .. first + n - 1 in slots 0 .. n - 1;
    # the first pass starts from the start row in slot 0, with the start-up level
    with np.errstate(over=quiet, invalid=quiet):
        for first in range(0, n_levels, n_slots):
            n = min(n_slots, n_levels - first)
            i0 = 0 if first else 1  # the slot of the pass's first new level
            for op in full_pass[: n * per_level] if first else first_pass:
                op()
            block = ring[:n]
            if wave and not (block[i0:].max() < ceiling and block[i0:].min() > -ceiling):
                for i in range(i0, n):
                    _check_divergence(first + i, ring[i], ceilings, ps, grid)
            c = first % n_chunk  # the pass's place in the chunk
            done = slice(c, c + n)
            sig_c[done] = sig_ring[:n]
            wall_c[done] = block[..., -1]
            inner_c[done] = trapezoid_interior(block, h)
            node_c[done] = block[..., nodes]
            if c + n == n_chunk or first + n == n_levels:
                flush(first - c, c + n)
            lo, hi = np.searchsorted(stored, (first, first + n))
            rows[:, lo:hi] = block[stored[lo:hi] - first].swapaxes(0, 1)

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
            meta=dict(meta, grid=grid.__dict__.copy()),
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
    check_grid(grid, WAVE, min((p.B for p in ps), default=math.inf), len(ps))
    zgrid = grid.zgrid()
    rows0 = [sample_initial(ic, p, zgrid) for p in ps]
    return march(rows0, ps, grid, WAVE, NONLOCAL, {"engine": "fdm"}, probes)


def run_fdm(p: Params, ic: InitialCondition, grid: Grid, probes=()) -> TimeSeries:
    """March the hyperbolic system over [0, T] and collect the time series.

    The bulk starts at rest: the initial rate is zero everywhere, the
    compatible choice when the walls start empty.
    """
    return run_fdm_batch([p], ic, grid, probes)[0]
