"""Dimensionless model: parameter groups, equilibrium state and initial data.

The slab occupies -1/2 <= z* <= 1/2 in reduced coordinates, with identical
adsorbing walls at both faces (check_positions, exact); even sampled data is
stored on the half slab.  Everything downstream works with four
dimensionless groups:

    A  = tau_a / tau_D   desorption time over diffusion time,
    B  = tau_r / tau_D   flux relaxation time over diffusion time,
    L  = k_a tau_a / d   adsorption length over slab thickness,
    N0 = n0 d            total dimensionless particle content,

where tau_D = d^2 / D.  B > 0 gives wave-like bulk transport with front
speed c* = 1/sqrt(B); B = 0 is the classical parabolic regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidInput

# relative tolerance applied to user-supplied (sampled) initial data
SAMPLED_RTOL = 1e-6


@dataclass(frozen=True)
class PhysicalInputs:
    """Laboratory-scale inputs.

    d: slab thickness [m]; D: diffusion coefficient [m^2/s];
    tau_r: flux relaxation time [s] (0 recovers Fickian diffusion);
    tau_a: desorption time [s]; k_a: adsorption rate coefficient [m/s];
    n0: initial bulk number density [1/m^3].
    """

    d: float
    D: float
    tau_r: float
    tau_a: float
    k_a: float
    n0: float

    def __post_init__(self):
        for name in ("d", "D", "tau_a", "k_a", "n0"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise InvalidInput(f"{name} must be finite and strictly positive, got {value!r}")
        if not 0 <= self.tau_r < math.inf:
            raise InvalidInput(f"tau_r must be finite and non-negative, got {self.tau_r!r}")


@dataclass(frozen=True)
class Params:
    """Dimensionless parameter group shared by every engine.

    L = 0 is allowed (inert walls); it is the configuration used by the
    conservation self-checks.
    """

    A: float
    B: float
    L: float
    N0: float

    def __post_init__(self):
        if not 0 < self.A < math.inf:
            raise InvalidInput(f"A must be finite and strictly positive, got {self.A!r}")
        if not 0 <= self.B < math.inf:
            raise InvalidInput(f"B must be finite and non-negative, got {self.B!r}")
        if not 0 <= self.L < math.inf:
            raise InvalidInput(f"L must be finite and non-negative, got {self.L!r}")
        if not 0 < self.N0 < math.inf:
            raise InvalidInput(f"N0 must be finite and strictly positive, got {self.N0!r}")
        # the equilibrium N0 L / (1 + 2 L) is inf/inf or 0 once either product overflows
        if not math.isfinite(2.0 * self.L) or not math.isfinite(self.N0 * self.L):
            raise InvalidInput(f"2 L and N0 L must be finite, got L = {self.L!r}, N0 = {self.N0!r}")


def from_physical(p: PhysicalInputs) -> Params:
    """Map laboratory inputs onto the dimensionless groups; refuse a d whose square overflows or is 0."""
    try:
        tau_d_inv = p.D / p.d**2
    except (OverflowError, ZeroDivisionError) as exc:
        raise InvalidInput(f"d^2 is no finite positive float at d = {p.d!r}") from exc
    return Params(
        A=p.tau_a * tau_d_inv,
        B=p.tau_r * tau_d_inv,
        L=p.k_a * p.tau_a / p.d,
        N0=p.n0 * p.d,
    )


def equilibrium(p: Params) -> tuple[float, float]:
    """Final bulk and surface densities (N_eq, sigma_eq).

    The pair is the unique fixed point of the wall kinetics combined with
    particle conservation: L*N_eq = sigma_eq and N_eq + 2*sigma_eq = N0.
    """
    n_eq = p.N0 / (1.0 + 2.0 * p.L)
    sigma_eq = p.N0 * p.L / (1.0 + 2.0 * p.L)
    return n_eq, sigma_eq


def require_relaxation(B: float, what: str) -> None:
    """ConfigError unless B > 0, the wave regime that what (an engine or command) needs."""
    if not B > 0:
        raise ConfigError(f"{what} requires B > 0; B = 0 is classical diffusion, which the"
                          " parabolic engine (hypersorb.poles) solves exactly")


def wave_speed(p: Params) -> float:
    """Front speed c* = 1/sqrt(B) of bulk density variations.

    B = 0 returns inf (parabolic regime, no finite signal speed).
    """
    if p.B == 0:
        return math.inf
    return 1.0 / math.sqrt(p.B)


def alpha_critical(p: Params) -> float:
    """Threshold 1/(2 sqrt(B)) separating overdamped from oscillatory modes.

    Modes with alpha below the threshold have two real decay rates; above it
    the rates are complex conjugates.  B = 0 returns inf.
    """
    if p.B == 0:
        return math.inf
    return 0.5 / math.sqrt(p.B)


@dataclass(frozen=True, eq=False)
class InitialCondition:
    """Initial bulk profile N(z*, 0).

    kind is one of "step", "parabolic" or "sampled".  All kinds satisfy
    N(+-1/2, 0) = 0, carry total mass N0 and are even in z*; only sampled
    data carries z and values.  Its arrays, walls and evenness (on the scale
    max|values|) are checked here, and full-slab data is folded onto [0, 1/2]
    (a node at z* = 0 interpolated if none); its mass, which needs N0, on use.
    """

    kind: str
    z: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("step", "parabolic", "sampled"):
            raise InvalidInput(f"unknown initial condition kind {self.kind!r}")
        if self.kind != "sampled":
            if self.z is not None or self.values is not None:
                raise InvalidInput(f"a {self.kind} initial condition takes no z or values")
            return
        z = np.asarray(self.z, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if z.ndim != 1 or z.shape != values.shape or z.size < 2:
            raise InvalidInput("sampled initial data needs matching 1-d z and value arrays")
        if not np.all(np.diff(z) > 0):
            raise InvalidInput("sampled z grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise InvalidInput("sampled initial values must be finite")
        full = z[0] < -1e-12
        lo = -0.5 if full else 0.0
        if abs(z[0] - lo) > 1e-9 or abs(z[-1] - 0.5) > 1e-9:
            raise InvalidInput("sampled z grid must cover [0, 1/2] or [-1/2, 1/2]")
        tol = SAMPLED_RTOL * float(np.max(np.abs(values)))
        if abs(values[-1]) > tol or (full and abs(values[0]) > tol):
            raise InvalidInput("sampled initial data must vanish at z* = +-1/2")
        if full:
            if np.max(np.abs(values - np.interp(-z, z, values))) > tol:
                raise InvalidInput("sampled initial data must be even in z*")
            keep = z >= -1e-12
            zh, vh = z[keep], values[keep]
            if zh[0] > 1e-12:
                zh, vh = np.r_[0.0, zh], np.r_[np.interp(0.0, z, values), vh]
            z, values = zh, vh
        for name, value in (("z", z), ("values", values)):
            object.__setattr__(self, name, value)


def step_ic() -> InitialCondition:
    """Uniform density N0 in the interior, zero exactly on the walls."""
    return InitialCondition("step")


def parabolic_ic() -> InitialCondition:
    """Smooth profile (3 N0 / 2)(1 - 4 z*^2): zero at the walls, mass N0."""
    return InitialCondition("parabolic")


def sampled_ic(z, values) -> InitialCondition:
    """User-supplied profile on its own grid.

    The grid must be strictly increasing and cover either [0, 1/2] or
    [-1/2, 1/2], and the values must be finite, vanish at the walls and,
    over the full slab, be even in z*; they are used as given, and their
    mass N0 is checked where a parameter set reads them.
    """
    return InitialCondition("sampled", z, values)


def _validate_sampled(ic: InitialCondition, p: Params) -> None:
    """InvalidInput unless sampled data carries mass N0 of p (relative tolerance SAMPLED_RTOL)."""
    mass = initial_mass(ic, p)
    if abs(mass - p.N0) > SAMPLED_RTOL * p.N0:
        raise InvalidInput(
            f"sampled initial data carries mass {mass:.9g}, expected N0 = {p.N0:.9g}"
        )


def check_positions(z, what: str = "z*") -> np.ndarray:
    """z as a float array; ConfigError naming, as what, the first entry not in |z| <= 1/2 (exact)."""
    z = np.asarray(z, dtype=float)
    outside = ~(np.abs(z) <= 0.5)
    if outside.any():
        raise ConfigError(f"{what} = {float(z[outside][0])} outside [-1/2, 1/2]")
    return z


def sample_initial(ic: InitialCondition, p: Params, zgrid) -> np.ndarray:
    """Evaluate the initial profile on ``zgrid`` (points in [-1/2, 1/2]).

    The step profile is 0 at |z*| = 1/2 and N0 everywhere else; the
    smooth profiles are evaluated in closed form; sampled data has its mass
    checked and is interpolated on its half-slab nodes at |z*|.
    """
    zgrid = check_positions(zgrid)
    az = np.abs(zgrid)
    if ic.kind == "step":
        out = np.full(zgrid.shape, float(p.N0))
        out[az == 0.5] = 0.0
        return out
    if ic.kind == "parabolic":
        return 1.5 * p.N0 * (1.0 - 4.0 * zgrid**2)
    _validate_sampled(ic, p)
    return np.interp(az, ic.z, ic.values)


def initial_mass(ic: InitialCondition, p: Params) -> float:
    """Total mass of the initial profile over the full slab."""
    if ic.kind in ("step", "parabolic"):
        return float(p.N0)
    return 2.0 * float(np.trapezoid(ic.values, ic.z))


def _segment_cosine_integral(z, f, alpha):
    """Exact integrals of piecewise-linear f(z) times cos(alpha z), one per segment of z."""
    az = alpha * z
    s, c = np.sin(az), np.cos(az)
    slope = np.diff(f) / np.diff(z)
    return ((f[1:] * s[..., 1:] - f[:-1] * s[..., :-1]) / alpha
            + slope * (c[..., 1:] - c[..., :-1]) / np.float_power(alpha, 2))


def cosine_moment(ic: InitialCondition, p: Params, alpha):
    """Integral of N(z*, 0) cos(alpha z*) over the full slab [-1/2, 1/2], for each alpha.

    Closed forms for the step and parabolic profiles; sampled data has its
    mass checked and is integrated exactly segment by segment.  Powers use
    float_power, the C library's pow, so that an array of alpha gives the
    bits of scalar calls (numpy's power may take a SIMD path).
    """
    alpha = np.asarray(alpha, dtype=float)
    if not np.all(alpha > 0):
        raise InvalidInput("alpha must be strictly positive")
    half = 0.5 * alpha
    if ic.kind == "step":
        return 2.0 * p.N0 * np.sin(half) / alpha
    if ic.kind == "parabolic":
        return 1.5 * p.N0 * (16.0 * np.sin(half) - 8.0 * alpha * np.cos(half)) / np.float_power(alpha, 3)
    _validate_sampled(ic, p)
    parts = _segment_cosine_integral(ic.z, ic.values, alpha[..., None])
    return 2.0 * np.sum(parts, axis=-1)
