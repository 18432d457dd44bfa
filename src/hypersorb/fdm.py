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

One kernel does every march: parameter sets that share a grid advance
together as one (n_batch, n_z+1) array, with the wave stencil or the
parabolic reference stencil inside and the nonlocal or the local closure
at the wall.  The closure is one linear equation per row, so each row of
a batch is bit-identical to a march of its parameter set alone.

At the sizes in use numpy's per-call cost outweighs the arithmetic, so a
level makes only the calls the stencil and the closure need: the stencil
weights are 0-d arrays, which a ufunc takes without converting a Python
float, and the closures read and write their nodes as Python floats
through memoryviews of the level's rows.  With one row of 101 nodes a
heat level costs ~8 us and a wave level ~16 us of CPU time on one core of
a shared Xeon host with numpy 2.4.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, InvalidInput, StabilityError
from .params import InitialCondition, Params, sample_initial
from .series import TimeSeries, thin_indices

# level rows held by the marching kernel: level j is written into slot
# j % RING, and what a level leaves in its rows (wall values, inner mass,
# probe nodes, stored rows) is recorded once per pass around the ring
RING = 64

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
        h = 0.5 / n_z
        n_t = max(1, math.ceil(T / (lam * h)))
        k = T / n_t
        return Grid(n_z=n_z, n_t=n_t, h=h, k=k, lam=k / h, T=T)

    @staticmethod
    def for_parabolic(n_z: int, T: float, r: float = 0.4) -> "Grid":
        """Grid for the diffusive reference scheme, r = k/h^2 <= 1/2."""
        if not (0 < T < math.inf and 0 < r <= 0.5):
            raise InvalidInput("parabolic grids need 0 < r <= 1/2 and a finite T > 0")
        h = 0.5 / n_z
        n_t = max(1, math.ceil(T / (r * h * h)))
        k = T / n_t
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


def step_first(row0: np.ndarray, grid: Grid, B: float) -> np.ndarray:
    """Start-up level from the initial profile, the bulk starting at rest.

    Written in increment form (identical algebra to the direct stencil) so
    a constant row stays bitwise constant.  Boundary nodes are copied over
    and must be closed by the symmetry mirror and a wall closure.  row0 may
    also be a batch of rows (space on the last axis).
    """
    if not B > 0:
        raise ConfigError("the hyperbolic stencil requires B > 0; use the parabolic solver")
    lap = np.empty_like(row0[..., 1:-1])
    _laplacian(row0[..., :-2], row0[..., 1:-1], row0[..., 2:], lap, np.empty_like(lap))
    row1 = row0.copy()
    row1[..., 1:-1] = row0[..., 1:-1] + grid.lam * grid.lam / (2.0 * B) * lap
    return row1


class _Row(NamedTuple):
    """A row buffer (one row or a batch of rows) and the views a level uses.

    left, mid and right span the flattened buffer, so a stencil advances a
    whole batch in one contiguous pass.  Across a batch it also writes the
    wall node of each row and the symmetry node of the next, and the wall
    closure and the mirror overwrite both in the same level.  The closures
    read and write single nodes as Python floats through the memoryviews,
    one entry per row, without building an array or a list.
    """

    full: np.ndarray
    left: np.ndarray  # full flattened, [:-2]
    mid: np.ndarray  # full flattened, [1:-1]
    right: np.ndarray  # full flattened, [2:]
    interior: np.ndarray  # interior nodes 1 .. n_z-1 of each row
    head: np.ndarray  # symmetry node 0
    neck: np.ndarray  # node 1
    heads: memoryview  # symmetry node 0
    near: memoryview  # node n_z-1
    near2: memoryview  # node n_z-2
    wall: memoryview  # wall node n_z, written by the closures


def _views(row: np.ndarray) -> _Row:
    flat = row.reshape(-1)
    return _Row(
        row, flat[:-2], flat[1:-1], flat[2:], row[..., 1:-1], row[..., 0], row[..., 1],
        *(memoryview(row[..., i]) for i in (0, -2, -3, -1)),
    )


def _laplacian(left, mid, right, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = right - 2 mid + left (prev[2:] - 2 prev[1:-1] + prev[:-2]), in this order.

    2 mid is formed as mid + mid, which is exact and the same bits.
    """
    np.add(mid, mid, out=tmp)
    np.subtract(right, tmp, out=out)
    np.add(out, left, out=out)


def _wave_weights(grid: Grid, B: float) -> tuple[float, float, float]:
    k = grid.k
    return 2.0 * grid.lam**2, 2.0 * B - k, 2.0 * B + k


def _wave_update(new: _Row, old: _Row, older: _Row, weights, lap, tmp) -> None:
    """Three-level interior update in increment form, written into new.mid.

    new = prev + (2 lam^2 lap(prev) + (2B - k)(prev - prev2)) / (2B + k),
    evaluated in exactly this order; lap and tmp are work buffers.
    """
    c_lap, c_rate, den = weights
    _laplacian(old.left, old.mid, old.right, lap, tmp)
    np.multiply(lap, c_lap, out=lap)
    np.subtract(old.mid, older.mid, out=tmp)
    np.multiply(tmp, c_rate, out=tmp)
    np.add(lap, tmp, out=lap)
    np.divide(lap, den, out=lap)
    np.add(old.mid, lap, out=new.mid)


def _heat_update(new: _Row, old: _Row, older: _Row, weights, lap, tmp) -> None:
    """Two-level diffusive update new = prev + r lap(prev) with r = k/h^2."""
    (r,) = weights
    _laplacian(old.left, old.mid, old.right, lap, tmp)
    np.multiply(lap, r, out=lap)
    np.add(old.mid, lap, out=new.mid)


def step_interior(prev: np.ndarray, prev2: np.ndarray, grid: Grid, B: float) -> np.ndarray:
    """Advance the interior one level using the two previous complete rows.

    Increment form of the three-level stencil (same algebra as the direct
    three-point weights, exact on constant rows).
    """
    row = prev.copy()
    new = _views(row)
    lap = np.empty_like(new.mid)
    _wave_update(new, _views(prev), _views(prev2), _wave_weights(grid, B), lap, np.empty_like(lap))
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
    def close(row: _Row, sigma: list, constants: list) -> None:
        """Write the wall value of each row; sigma is updated in place.

        The inner mass is trapezoid_interior's, in Python floats.
        """
        wall = row.wall
        rows = zip(row.heads, np.add.reduce(row.interior, axis=1).tolist(), sigma, constants)
        for b, (head, total, s, (half_n0, a_k, a, den, h)) in enumerate(rows):
            rhs_mass = half_n0 - h * (0.5 * head + total)
            w = (a_k * rhs_mass - a * s) / den
            wall[b] = w
            sigma[b] = rhs_mass - 0.5 * h * w


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
    def close(row: _Row, sigma: list, constants: list) -> None:
        wall = row.wall
        rows = zip(row.near, row.near2, sigma, constants)
        for b, (n1, n2, s, (a_k, two_h, a, k_l, den)) in enumerate(rows):
            w = (a_k * (4.0 * n1 - n2) + two_h * s) / den
            wall[b] = w
            sigma[b] = (a * s + k_l * w) / a_k


# interior stencils and wall closures of the marching kernel
WAVE, HEAT = "wave", "heat"
NONLOCAL, LOCAL = "nonlocal", "local"
_UPDATES = {WAVE: _wave_update, HEAT: _heat_update}
_CLOSURES = {NONLOCAL: _Nonlocal, LOCAL: _Local}


def apply_surface(
    row: np.ndarray, sigma_prev: float, grid: Grid, p: Params
) -> tuple[float, float]:
    """Close the wall node of one row and update sigma for the current level.

    The nonlocal closure: sigma = N0/2 - trapezoid(row) combined with
    backward-Euler kinetics A (sigma_j - sigma_{j-1})/k = L N_wall - sigma_j.
    The wall value is written into row in place, through a memoryview of
    its wall node, so row must be a writable float64 array.
    """
    sigma = [sigma_prev]
    _Nonlocal.close(_views(row[np.newaxis]), sigma, [_Nonlocal.constants(p, grid)])
    return float(row[-1]), sigma[0]


class _March:
    """One explicit march of a batch of rows on a shared grid.

    levels() is the engine's only time loop.  Level j lives in slot
    j % RING of a ring of level rows.  Each level advances the interior of
    every row from the two slots before it (three-level wave or two-level
    heat stencil: nine or five ufunc calls with 0-d weights), mirrors the
    symmetry node (one slice assignment), closes each wall and appends
    sigma to the record.  A closure is one Python loop over the rows that
    reads its nodes through the slot's memoryviews (the symmetry node and,
    from numpy, the inner sum for the nonlocal closure; nodes n_z-1 and
    n_z-2 for the local one) and writes each wall value straight into the
    slot.  The wave stencil adds one squared norm per level, the divergence
    filter.  The rest of the record is read off the ring once per pass
    around it: the wall values, the inner trapezoidal mass, the probe nodes
    and, at the stored levels, the full rows.  Row b only ever sees
    parameter set b, so each row of a batch matches a march of its point
    alone bit for bit.
    """

    def __init__(
        self, rows0, grid: Grid, ps, stencil: str, closure: str, stored=(), probe_nodes=()
    ):
        n_batch, n_nodes = rows0.shape
        if stencil == WAVE:
            B = ps[0].B
            if not B > 0:
                raise ConfigError("the hyperbolic engine requires B > 0; use the parabolic solver")
            weights = _wave_weights(grid, B)
        else:
            weights = (grid.k / (grid.h * grid.h),)
        # 0-d arrays: a ufunc takes them as they are, with no conversion of
        # a Python float on each call
        self.weights = tuple(np.array(w) for w in weights)
        self.grid, self.ps = grid, list(ps)
        self.stencil, self.closure = stencil, _CLOSURES[closure]
        self.constants = [self.closure.constants(p, grid) for p in ps]
        self.ring = np.empty((RING, n_batch, n_nodes))
        self.slots = [_views(row) for row in self.ring]
        np.copyto(self.ring[0], rows0)
        self.stored = np.asarray(stored, dtype=np.intp)
        self.probe_nodes = np.asarray(probe_nodes, dtype=np.intp)
        # the record, level-major: one entry per row, or per row and probe node
        n_levels = grid.n_t + 1
        self.sigma = array("d")
        self.wall, self.inner = np.empty((n_levels, n_batch)), np.empty((n_levels, n_batch))
        self.nodes = np.empty((n_levels, n_batch, self.probe_nodes.size))
        self.rows = np.empty((n_batch, self.stored.size, n_nodes))

    def levels(self) -> Iterator[tuple[int, np.ndarray, list]]:
        """Advance level by level, yielding (j, rows, sigma) after each.

        The rows yielded are a ring slot, overwritten RING levels later.
        """
        grid, slots = self.grid, self.slots
        # (new, old, older) slots of a level, by the slot of the new one
        triples = [(slots[i], slots[i - 1], slots[i - 2]) for i in range(RING)]
        update, weights = _UPDATES[self.stencil], self.weights
        close, constants = self.closure.close, self.constants
        wave = self.stencil == WAVE
        B = self.ps[0].B
        lap = np.empty_like(slots[0].mid)
        tmp = np.empty_like(lap)
        # a diverging run is cut off well before float overflow, so no step
        # ever produces inf or a numpy warning.  One squared norm of the
        # whole batch per level is the filter: it reaches ceiling^2 no later
        # than any node reaches its ceiling (NaN fails it too), and only then
        # are the rows checked one by one.
        ceilings = [1e100 * max(1.0, p.N0) for p in self.ps]
        ceiling2 = min(c * c for c in ceilings)
        sig_rec, n_t = self.sigma, grid.n_t
        new = slots[0]
        sigma = self.closure.start(new, constants)
        sig_rec.extend(sigma)
        yield 0, new.full, sigma
        for j in range(1, n_t + 1):
            i = j % RING
            new, old, older = triples[i]
            if wave and j == 1:
                np.copyto(new.full, step_first(old.full, grid, B))
            else:
                update(new, old, older, weights, lap, tmp)
            new.head[...] = new.neck
            close(new, sigma, constants)
            if wave and not np.vdot(new.full, new.full) < ceiling2:
                self._check_divergence(j, new.full, ceilings)
            sig_rec.extend(sigma)
            if i == RING - 1 or j == n_t:
                self._record(j - i, i + 1)
            yield j, new.full, sigma

    def _record(self, first: int, count: int) -> None:
        """Record levels first .. first+count-1, held in ring slots 0 .. count-1."""
        block = self.ring[:count]
        done = slice(first, first + count)
        self.wall[done] = block[..., -1]
        self.inner[done] = trapezoid_interior(block, self.grid.h)
        self.nodes[done] = block[..., self.probe_nodes]
        lo, hi = np.searchsorted(self.stored, (first, first + count))
        self.rows[:, lo:hi] = block[self.stored[lo:hi] - first].swapaxes(0, 1)

    def _check_divergence(self, j: int, rows: np.ndarray, ceilings: list) -> None:
        """Raise StabilityError for the first row with a node past its ceiling."""
        hint = f" (lambda={self.grid.lam:.4g}, B={self.ps[0].B:.4g}); reduce lambda"
        for b, (row, ceiling, p) in enumerate(zip(rows, ceilings, self.ps)):
            point = ""
            if len(self.ps) > 1:
                point = f" of batch point {b} (A={p.A:.4g}, L={p.L:.4g}, N0={p.N0:.4g})"
            size = np.abs(row[:-1])
            if not float(np.max(size)) < ceiling:
                bad = int(np.argmax(~(size < ceiling)))
                raise StabilityError(f"density diverging at level j={j}, node i={bad}{point}{hint}")
            if not abs(float(row[-1])) < ceiling:
                raise StabilityError(f"wall density diverging at level j={j}{point}{hint}")


def iterate(
    row0: np.ndarray, grid: Grid, p: Params
) -> Iterator[tuple[int, np.ndarray, float, float, float]]:
    """Yield (level j, row, sigma, wall value, conservation residual) per level.

    Level 0 reports the initial row with sigma fixed by the conservation
    identity (for discontinuous data this is O(h), the quadrature error of
    representing the jump on the grid).  The rows yielded are live views;
    callers must copy what they keep.
    """
    run = _March(np.asarray(row0, dtype=float)[np.newaxis], grid, [p], WAVE, NONLOCAL)
    for j, rows, sigma in run.levels():
        row, s = rows[0], sigma[0]
        w, inner = float(row[-1]), float(trapezoid_interior(row, grid.h))
        yield j, row, s, w, _conservation_residual(inner, w, s, p.N0, grid.h)


def _conservation_residual(inner, wall, sigma, n0: float, h: float):
    """|integral(N) + 2 sigma - N0| from the inner mass and the wall value.

    Takes scalars or arrays over levels; the trapezoidal mass of the half
    row is inner + (h/2) N_wall.
    """
    return abs(2.0 * (inner + 0.5 * h * wall) + 2.0 * sigma - n0)


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


def march(
    ps, ic: InitialCondition, grid: Grid, stencil: str, closure: str, meta: dict,
    probes=(), max_rows: int = 401,
) -> list[TimeSeries]:
    """March the parameter sets ps as one batch on grid; one series per point.

    stencil is WAVE or HEAT, closure NONLOCAL or LOCAL.  Each series gets
    a copy of meta plus the grid.  The conservation residual and the probe
    values are computed from the per-level record after the march.
    """
    if not ps:
        raise InvalidInput("a batch needs at least one parameter set")
    zgrid = grid.zgrid()
    rows0 = np.array([sample_initial(ic, p, zgrid) for p in ps])
    n_levels = grid.n_t + 1
    stored = thin_indices(n_levels, max_rows)
    stencils = _probe_weights(probes, zgrid)
    nodes = sorted({n for _, i, _ in stencils for n in (i, i + 1)})
    run = _March(rows0, grid, ps, stencil, closure, stored, nodes)
    deque(run.levels(), maxlen=0)
    sigma, wall, inner = (
        np.reshape(rec, (n_levels, len(ps))).T.copy() for rec in (run.sigma, run.wall, run.inner)
    )
    t = grid.tgrid()
    out = []
    for b, p in enumerate(ps):
        node = run.nodes[:, b]
        probe_data = {
            z: (1.0 - frac) * node[:, nodes.index(i)] + frac * node[:, nodes.index(i + 1)]
            for z, i, frac in stencils
        }
        out.append(TimeSeries(
            t=t.copy(),
            sigma=sigma[b],
            surface=wall[b],
            probes=probe_data,
            rows=run.rows[b],
            row_times=t[stored],
            row_z=zgrid,
            conservation=_conservation_residual(inner[b], wall[b], sigma[b], p.N0, grid.h),
            params=p,
            meta=dict(meta, grid=grid.__dict__.copy()),
        ))
    return out


def run_fdm_batch(
    ps,
    ic: InitialCondition,
    grid: Grid,
    probes=(),
    max_rows: int = 401,
    enforce_stability: bool = True,
) -> list[TimeSeries]:
    """run_fdm for parameter sets sharing B (hence one grid), marched as one array.

    Series b is bit-identical to run_fdm(ps[b], ic, grid, ...).
    """
    if not ps or any(p.B != ps[0].B for p in ps):
        raise InvalidInput("a batch needs one or more parameter sets sharing one B")
    B = ps[0].B
    if not B > 0:
        raise ConfigError("run_fdm requires B > 0; use the parabolic reference solver")
    if enforce_stability and grid.lam > math.sqrt(B):
        raise ConfigError(
            f"lambda = {grid.lam:.4g} exceeds the stability bound sqrt(B) = "
            f"{math.sqrt(B):.4g}; pass enforce_stability=False to override"
        )
    meta = {"engine": "fdm"}
    return march(ps, ic, grid, WAVE, NONLOCAL, meta, probes=probes, max_rows=max_rows)


def run_fdm(
    p: Params,
    ic: InitialCondition,
    grid: Grid,
    probes=(),
    max_rows: int = 401,
    enforce_stability: bool = True,
) -> TimeSeries:
    """March the hyperbolic system over [0, T] and collect the time series.

    The bulk starts at rest: the initial rate is zero everywhere, the
    compatible choice when the walls start empty.
    """
    return run_fdm_batch([p], ic, grid, probes, max_rows, enforce_stability)[0]
