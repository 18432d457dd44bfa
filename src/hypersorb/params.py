"""Dimensionless model: parameter groups, equilibrium state and initial data.

The slab occupies -1/2 <= z* <= 1/2 in reduced coordinates, with identical
adsorbing walls at both faces.  Everything downstream works with four
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

from .errors import InvalidInput

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


def from_physical(p: PhysicalInputs) -> Params:
    """Map laboratory inputs onto the dimensionless groups."""
    tau_d_inv = p.D / p.d**2
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
    N(+-1/2, 0) = 0, carry total mass N0 and are even in z*; sampled data is
    checked against these constraints on use.
    """

    kind: str
    z: np.ndarray | None = None
    values: np.ndarray | None = None


def step_ic() -> InitialCondition:
    """Uniform density N0 in the interior, zero exactly on the walls."""
    return InitialCondition("step")


def parabolic_ic() -> InitialCondition:
    """Smooth profile (3 N0 / 2)(1 - 4 z*^2): zero at the walls, mass N0."""
    return InitialCondition("parabolic")


def sampled_ic(z, values) -> InitialCondition:
    """User-supplied profile on its own grid.

    The grid must be strictly increasing and cover either [0, 1/2] or
    [-1/2, 1/2], and the values must be finite; values are interpreted per
    unit N0 scaling of the caller (they are used as-is, constraints are
    checked in sample_initial).
    """
    z = np.asarray(z, dtype=float)
    values = np.asarray(values, dtype=float)
    if z.ndim != 1 or z.shape != values.shape or z.size < 2:
        raise InvalidInput("sampled initial data needs matching 1-d z and value arrays")
    if not np.all(np.diff(z) > 0):
        raise InvalidInput("sampled z grid must be strictly increasing")
    if not np.all(np.isfinite(values)):
        raise InvalidInput("sampled initial values must be finite")
    half = z[0] >= -1e-12
    lo = 0.0 if half else -0.5
    if abs(z[0] - lo) > 1e-9 or abs(z[-1] - 0.5) > 1e-9:
        raise InvalidInput("sampled z grid must cover [0, 1/2] or [-1/2, 1/2]")
    return InitialCondition("sampled", z, values)


def _half_profile(ic: InitialCondition) -> tuple[np.ndarray, np.ndarray]:
    """Sampled data on the half domain [0, 1/2], from a node at z* = 0 (interpolated if none)."""
    z, v = ic.z, ic.values
    if z[0] >= -1e-12:
        return z, v
    keep = z >= -1e-12
    if z[keep][0] <= 1e-12:
        return z[keep], v[keep]
    return np.r_[0.0, z[keep]], np.r_[np.interp(0.0, z, v), v[keep]]


def _validate_sampled(ic: InitialCondition, p: Params) -> None:
    z, v = ic.z, ic.values
    scale = max(float(np.max(np.abs(v))), p.N0)
    # wall value must vanish
    if abs(v[-1]) > SAMPLED_RTOL * scale or (z[0] < -1e-12 and abs(v[0]) > SAMPLED_RTOL * scale):
        raise InvalidInput("sampled initial data must vanish at z* = +-1/2")
    # even in z* when both halves are given
    if z[0] < -1e-12:
        mirrored = np.interp(-z, z, v)
        if np.max(np.abs(v - mirrored)) > SAMPLED_RTOL * scale:
            raise InvalidInput("sampled initial data must be even in z*")
    zh, vh = _half_profile(ic)
    mass = 2.0 * np.trapezoid(vh, zh)
    if abs(mass - p.N0) > SAMPLED_RTOL * p.N0:
        raise InvalidInput(
            f"sampled initial data carries mass {mass:.9g}, expected N0 = {p.N0:.9g}"
        )


def sample_initial(ic: InitialCondition, p: Params, zgrid) -> np.ndarray:
    """Evaluate the initial profile on ``zgrid`` (points in [-1/2, 1/2]).

    The step profile puts the value 0 exactly on wall nodes and N0
    everywhere else; the smooth profiles are evaluated in closed form;
    sampled data is validated and interpolated.
    """
    zgrid = np.asarray(zgrid, dtype=float)
    if np.any(np.abs(zgrid) > 0.5 + 1e-12):
        raise InvalidInput("zgrid points must lie within [-1/2, 1/2]")
    az = np.abs(zgrid)
    if ic.kind == "step":
        out = np.full(zgrid.shape, float(p.N0))
        out[az >= 0.5 - 1e-12] = 0.0
        return out
    if ic.kind == "parabolic":
        return 1.5 * p.N0 * (1.0 - 4.0 * zgrid**2)
    if ic.kind == "sampled":
        _validate_sampled(ic, p)
        zh, vh = _half_profile(ic)
        return np.interp(az, zh, vh)
    raise InvalidInput(f"unknown initial condition kind {ic.kind!r}")


def initial_mass(ic: InitialCondition, p: Params) -> float:
    """Total mass of the initial profile over the full slab."""
    if ic.kind in ("step", "parabolic"):
        return float(p.N0)
    zh, vh = _half_profile(ic)
    return 2.0 * float(np.trapezoid(vh, zh))


def _segment_cosine_integral(z0, z1, f0, f1, alpha):
    """Exact integral of a linear segment times cos(alpha z) over [z0, z1]."""
    slope = (f1 - f0) / (z1 - z0)
    s1, s0 = np.sin(alpha * z1), np.sin(alpha * z0)
    c1, c0 = np.cos(alpha * z1), np.cos(alpha * z0)
    return (f1 * s1 - f0 * s0) / alpha + slope * (c1 - c0) / alpha**2


def cosine_moment(ic: InitialCondition, p: Params, alpha: float) -> float:
    """Integral of N(z*, 0) cos(alpha z*) over the full slab [-1/2, 1/2].

    Closed forms for the step and parabolic profiles; the sampled profile is
    integrated exactly segment by segment (piecewise-linear times cosine).
    """
    if not alpha > 0:
        raise InvalidInput("alpha must be strictly positive")
    half = 0.5 * alpha
    if ic.kind == "step":
        return 2.0 * p.N0 * math.sin(half) / alpha
    if ic.kind == "parabolic":
        return 1.5 * p.N0 * (16.0 * math.sin(half) - 8.0 * alpha * math.cos(half)) / alpha**3
    if ic.kind == "sampled":
        _validate_sampled(ic, p)
        zh, vh = _half_profile(ic)
        parts = _segment_cosine_integral(zh[:-1], zh[1:], vh[:-1], vh[1:], alpha)
        return 2.0 * float(np.sum(parts))
    raise InvalidInput(f"unknown initial condition kind {ic.kind!r}")
