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

# hard cap on the step ratio lambda = k/h regardless of B, after the
# empirical observation that the nonlocal wall closure tightens the plain
# wave-equation bound
LAMBDA_CAP = 2.5e-2


@dataclass(frozen=True)
class Grid:
    """Space-time discretization of the half slab.

    lam = k/h controls stability of the explicit scheme; it must stay under
    sqrt(B) for the interior stencil, and empirically well under that when
    B is small.
    """

    n_z: int
    n_t: int
    h: float
    k: float
    lam: float
    T: float

    def __post_init__(self):
        if self.n_z < 8:
            raise InvalidInput(f"n_z must be at least 8, got {self.n_z}")
        if self.n_t < 1:
            raise InvalidInput("n_t must be at least 1")
        if not (self.h > 0 and self.k > 0):
            raise InvalidInput("grid steps must be positive")

    @staticmethod
    def from_lambda(n_z: int, T: float, lam: float) -> "Grid":
        """Grid with spacing h = 0.5/n_z and step count chosen so k/h <= lam."""
        if not (T > 0 and lam > 0):
            raise InvalidInput("T and lambda must be positive")
        h = 0.5 / n_z
        n_t = max(1, math.ceil(T / (lam * h)))
        k = T / n_t
        return Grid(n_z=n_z, n_t=n_t, h=h, k=k, lam=k / h, T=T)

    @staticmethod
    def for_parabolic(n_z: int, T: float, r: float = 0.4) -> "Grid":
        """Grid for the diffusive reference scheme, r = k/h^2 <= 1/2."""
        if not (T > 0 and 0 < r <= 0.5):
            raise InvalidInput("parabolic grids need 0 < r <= 1/2 and T > 0")
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


def first_step_coefficients(grid: Grid, B: float) -> tuple[float, float]:
    """(Laplacian weight, initial-rate weight) of the start-up level."""
    lam, k = grid.lam, grid.k
    return lam * lam / (2.0 * B), (2.0 * B - k) * k / (2.0 * B)


def interior_coefficients(grid: Grid, B: float) -> tuple[float, float, float]:
    """Stencil weights (neighbour, same-node, two-back) of the running scheme.

    They sum to one, so constant states are preserved exactly.
    """
    lam, k = grid.lam, grid.k
    den = 2.0 * B + k
    a = 2.0 * lam * lam / den
    b = 4.0 * (B - lam * lam) / den
    c = -(2.0 * B - k) / den
    return a, b, c


def step_first(row0: np.ndarray, g, grid: Grid, B: float) -> np.ndarray:
    """Start-up level from the initial profile and initial rate g.

    Written in increment form (identical algebra to the direct stencil) so
    a constant row stays bitwise constant.  Boundary nodes are copied over
    and must be closed by apply_symmetry / apply_surface.  row0 may also be
    a batch of rows (space on the last axis).
    """
    if not B > 0:
        raise ConfigError("the hyperbolic stencil requires B > 0; use the parabolic solver")
    c_lap, c_g = first_step_coefficients(grid, B)
    lap = np.empty_like(row0[..., 1:-1])
    _laplacian(row0[..., :-2], row0[..., 1:-1], row0[..., 2:], lap, np.empty_like(lap))
    row1 = row0.copy()
    row1[..., 1:-1] = row0[..., 1:-1] + c_lap * lap
    if g is not None:
        row1[..., 1:-1] += c_g * np.asarray(g, dtype=float)[..., 1:-1]
    return row1


class _Row(NamedTuple):
    """A row buffer (one row or a batch of rows) and the views a level uses.

    left, mid and right span the flattened buffer, so a stencil advances a
    whole batch in one contiguous pass.  Across a batch it also writes the
    wall node of each row and the symmetry node of the next, and the wall
    closure and the mirror overwrite both in the same level.
    """

    full: np.ndarray
    flat: np.ndarray  # full, flattened (a view for the kernel's contiguous buffers)
    left: np.ndarray  # flat[:-2]
    mid: np.ndarray  # flat[1:-1]
    right: np.ndarray  # flat[2:]
    interior: np.ndarray  # interior nodes 1 .. n_z-1 of each row
    head: np.ndarray  # symmetry node 0
    neck: np.ndarray  # node 1
    wall: np.ndarray  # wall node n_z
    near: np.ndarray  # node n_z-1
    near2: np.ndarray  # node n_z-2


def _views(row: np.ndarray) -> _Row:
    flat = row.reshape(-1)
    return _Row(
        row, flat, flat[:-2], flat[1:-1], flat[2:], row[..., 1:-1], row[..., 0], row[..., 1],
        row[..., -1], row[..., -2], row[..., -3],
    )


def _laplacian(left, mid, right, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = right - 2 mid + left (prev[2:] - 2 prev[1:-1] + prev[:-2]), in this order."""
    np.multiply(mid, 2.0, out=tmp)
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
    weights from interior_coefficients, exact on constant rows).
    """
    row = prev.copy()
    new = _views(row)
    lap = np.empty_like(new.mid)
    _wave_update(new, _views(prev), _views(prev2), _wave_weights(grid, B), lap, np.empty_like(lap))
    return row


def apply_symmetry(row: np.ndarray) -> np.ndarray:
    """Mirror condition at z* = 0: the plane node copies its neighbour."""
    row[0] = row[1]
    return row


def trapezoid_interior(row: np.ndarray, h: float) -> float:
    """Trapezoidal mass of the half row excluding the wall-node contribution."""
    return h * (0.5 * row[0] + float(np.sum(row[1:-1])))


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
        return 0.5 * p.N0, p.A + k, p.A, den, 0.5 * h

    @staticmethod
    def start(inner: list, wall: list, constants: list) -> list:
        """sigma at level 0, fixed by the conservation identity."""
        return [c[0] - (mass + c[4] * w) for mass, w, c in zip(inner, wall, constants)]

    @staticmethod
    def close(row: _Row, inner: list, sigma: list, constants: list) -> list:
        """Wall value of each row; sigma is updated in place."""
        wall = []
        for b, (mass, s, (half_n0, a_k, a, den, half_h)) in enumerate(zip(inner, sigma, constants)):
            rhs_mass = half_n0 - mass
            w = (a_k * rhs_mass - a * s) / den
            wall.append(w)
            sigma[b] = rhs_mass - half_h * w
        return wall


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
    def start(inner: list, wall: list, constants: list) -> list:
        return [0.0] * len(inner)

    @staticmethod
    def close(row: _Row, inner: list, sigma: list, constants: list) -> list:
        wall = []
        near, near2 = row.near.tolist(), row.near2.tolist()
        rows = zip(near, near2, sigma, constants)
        for b, (n1, n2, s, (a_k, two_h, a, k_l, den)) in enumerate(rows):
            w = (a_k * (4.0 * n1 - n2) + two_h * s) / den
            wall.append(w)
            sigma[b] = (a * s + k_l * w) / a_k
        return wall


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
    """
    sigma = [sigma_prev]
    inner = [trapezoid_interior(row, grid.h)]
    (wall,) = _Nonlocal.close(_views(row), inner, sigma, [_Nonlocal.constants(p, grid)])
    row[-1] = wall
    return wall, sigma[0]


class _March:
    """One explicit march of a batch of rows on a shared grid.

    levels() is the engine's only time loop.  Each level it advances the
    interior of every row (three-level wave or two-level heat stencil),
    mirrors the symmetry node, closes each wall (nonlocal or local closure),
    and appends sigma, the wall value and the inner trapezoidal mass of each
    row to the record, plus the probe nodes and, at the stored levels, the
    full rows.  Row b only ever sees parameter set b, so each row of a batch
    matches a march of its point alone bit for bit.
    """

    def __init__(
        self, rows0, grid: Grid, ps, stencil: str, closure: str, g=None, stored=(), probe_nodes=()
    ):
        n_batch, n_nodes = rows0.shape
        if stencil == WAVE:
            B = ps[0].B
            if not B > 0:
                raise ConfigError("the hyperbolic engine requires B > 0; use the parabolic solver")
            self.weights = _wave_weights(grid, B)
        else:
            self.weights = (grid.k / (grid.h * grid.h),)
        self.grid, self.ps, self.g = grid, list(ps), g
        self.stencil, self.closure = stencil, _CLOSURES[closure]
        self.constants = [self.closure.constants(p, grid) for p in ps]
        self.bufs = [_views(np.empty((n_batch, n_nodes))) for _ in range(3)]
        np.copyto(self.bufs[0].full, rows0)
        self.stored = [int(j) for j in stored]
        # probe nodes of every row as indices into the flattened batch
        offsets = np.arange(n_batch)[:, None] * n_nodes
        self.node_idx = (offsets + np.asarray(probe_nodes, dtype=np.intp)).ravel()
        # per-level record, level-major: one entry per row, or per row and probe node
        self.sigma, self.wall, self.inner, self.nodes = (array("d") for _ in range(4))
        self.rows = np.empty((n_batch, len(self.stored), n_nodes))

    def levels(self) -> Iterator[tuple[int, np.ndarray, list, list, list]]:
        """Advance level by level, yielding (j, rows, sigma, wall, inner) after each.

        The rows yielded are the live buffer, overwritten three levels later.
        """
        grid, h, g = self.grid, self.grid.h, self.g
        update, weights = _UPDATES[self.stencil], self.weights
        start, close, constants = self.closure.start, self.closure.close, self.constants
        wave = self.stencil == WAVE
        B = self.ps[0].B
        new, old, older = self.bufs
        lap = np.empty_like(new.mid)
        tmp = np.empty_like(lap)
        # a diverging run is cut off well before float overflow, so no step
        # ever produces inf or a numpy warning.  One squared norm of the
        # whole batch per level is the filter: it reaches ceiling^2 no later
        # than any node reaches its ceiling (NaN fails it too), and only then
        # are the rows checked one by one.
        ceilings = [1e100 * max(1.0, p.N0) for p in self.ps]
        ceiling2 = min(c * c for c in ceilings)
        sig_rec, wall_rec, inner_rec, node_rec = self.sigma, self.wall, self.inner, self.nodes
        node_idx, row_rec = self.node_idx, self.rows
        stored = self.stored + [-1]
        pos = 0
        for j in range(grid.n_t + 1):
            if j:
                older, old, new = old, new, older
                if wave and j == 1:
                    np.copyto(new.full, step_first(old.full, g, grid, B))
                else:
                    update(new, old, older, weights, lap, tmp)
                np.copyto(new.head, new.neck)
            sums = np.add.reduce(new.interior, axis=1).tolist()
            inner = [h * (0.5 * a + s) for a, s in zip(new.head.tolist(), sums)]
            if j:
                wall = close(new, inner, sigma, constants)
                new.wall[:] = wall
                if wave and not np.vdot(new.full, new.full) < ceiling2:
                    self._check_divergence(j, new.full, wall, ceilings)
            else:
                wall = new.wall.tolist()
                sigma = start(inner, wall, constants)
            sig_rec.extend(sigma)
            wall_rec.extend(wall)
            inner_rec.extend(inner)
            if node_idx.size:
                node_rec.frombytes(new.flat[node_idx].tobytes())
            if j == stored[pos]:
                row_rec[:, pos] = new.full
                pos += 1
            yield j, new.full, sigma, wall, inner

    def _check_divergence(self, j: int, rows: np.ndarray, wall: list, ceilings: list) -> None:
        """Raise StabilityError for the first row with a node past its ceiling."""
        hint = f" (lambda={self.grid.lam:.4g}, B={self.ps[0].B:.4g}); reduce lambda"
        for b, (row, w, ceiling, p) in enumerate(zip(rows, wall, ceilings, self.ps)):
            point = ""
            if len(self.ps) > 1:
                point = f" of batch point {b} (A={p.A:.4g}, L={p.L:.4g}, N0={p.N0:.4g})"
            size = np.abs(row[:-1])
            if not float(np.max(size)) < ceiling:
                bad = int(np.argmax(~(size < ceiling)))
                raise StabilityError(f"density diverging at level j={j}, node i={bad}{point}{hint}")
            if not abs(w) < ceiling:
                raise StabilityError(f"wall density diverging at level j={j}{point}{hint}")


def iterate(
    row0: np.ndarray, grid: Grid, p: Params, g=None
) -> Iterator[tuple[int, np.ndarray, float, float, float]]:
    """Yield (level j, row, sigma, wall value, conservation residual) per level.

    Level 0 reports the initial row with sigma fixed by the conservation
    identity (for discontinuous data this is O(h), the quadrature error of
    representing the jump on the grid).  The rows yielded are live views;
    callers must copy what they keep.
    """
    run = _March(np.asarray(row0, dtype=float)[np.newaxis], grid, [p], WAVE, NONLOCAL, g)
    for j, rows, sigma, wall, inner in run.levels():
        s, w = sigma[0], wall[0]
        yield j, rows[0], s, w, _conservation_residual(inner[0], w, s, p.N0, grid.h)


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
        if az > 0.5 + 1e-12:
            raise InvalidInput(f"probe z* = {z} outside [-1/2, 1/2]")
        az = min(az, 0.5)
        i = min(int(az / h), zgrid.size - 2)
        w = (az - zgrid[i]) / h
        out.append((float(z), i, float(w)))
    return out


def march(
    ps, ic: InitialCondition, grid: Grid, stencil: str, closure: str, meta: dict,
    g=None, probes=(), max_rows: int = 401,
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
    run = _March(rows0, grid, ps, stencil, closure, g, stored, nodes)
    deque(run.levels(), maxlen=0)
    sigma, wall, inner = (
        np.array(rec).reshape(n_levels, len(ps)).T.copy()
        for rec in (run.sigma, run.wall, run.inner)
    )
    node_rec = np.array(run.nodes).reshape(n_levels, len(ps), len(nodes))
    t = grid.tgrid()
    out = []
    for b, p in enumerate(ps):
        node = node_rec[:, b]
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
    g=None,
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
    if g is not None:
        g = np.asarray(g, dtype=float)
        if g.shape != (grid.n_z + 1,):
            raise InvalidInput("g must match the half-domain grid")
        # compatibility of the initial rate with empty walls: its mass must vanish
        meta["g_compatibility_residual"] = float(2.0 * np.trapezoid(g, grid.zgrid()))
    return march(ps, ic, grid, WAVE, NONLOCAL, meta, g=g, probes=probes, max_rows=max_rows)


def run_fdm(
    p: Params,
    ic: InitialCondition,
    grid: Grid,
    g=None,
    probes=(),
    max_rows: int = 401,
    enforce_stability: bool = True,
) -> TimeSeries:
    """March the hyperbolic system over [0, T] and collect the time series.

    g is the optional initial time-derivative row (defaults to zero, the
    compatible choice when the walls start empty); a nonzero g is accepted
    for experimentation and its compatibility defect is reported in
    meta["g_compatibility_residual"].
    """
    return run_fdm_batch([p], ic, grid, g, probes, max_rows, enforce_stability)[0]
