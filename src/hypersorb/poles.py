"""The exact diffusive solution (B = 0) as a sum over the poles of sigma_hat(s).

At B = 0 the bulk obeys N_t = N_zz, the walls A sigma' = L N(1/2) - sigma,
and the particle count is conserved.  Every pole of the Laplace-domain
surface density is real, at s = -beta^2, where beta is a root of

    g(beta) = (1 - A beta^2) sin(beta/2)/beta + L cos(beta/2).

The mode of root beta is (N, sigma) = (cos beta z, c) e^(-beta^2 t), with
c = -sin(beta/2)/beta.  The modes are orthogonal under
<(N, sigma), (M, rho)> = int_0^1/2 N M dz + sigma rho / L, and so is the
equilibrium (N_eq, sigma_eq), so each coefficient is one projection of the
initial bulk (the walls start empty), with no Gram solve:

    a = (cosine_moment(beta)/2) / (1/4 + sin(beta)/(4 beta) + c^2/L),
    sigma(t) = sigma_eq + sum a c e^(-beta^2 t),
    N(z, t) = N_eq + sum a cos(beta z) e^(-beta^2 t).

A mode carries no mass (its cos(beta z) integrates to -2c over the slab),
so conservation holds to rounding.  Inert walls (L = 0) keep sigma = 0 and
leave the Neumann series of the bulk: beta = 2 k pi, c = 0, norm 1/4.

Roots.  g(2 k pi) = L (-1)^k.  Where cos(beta/2) and 1 - A beta^2 do not
vanish, g = 0 reads tan(beta/2) = L beta/(A beta^2 - 1): the left side
increases along each branch of the tangent, the right side decreases on
each side of 1/sqrt(A), and the two have opposite signs on all but one
piece of each interval (2 k pi, 2(k+1) pi).  So each interval holds exactly
one root, bracketed by its ends, and all of them are bisected together.

A term whose exponent beta^2 t_1 exceeds DROP_EXPONENT at the first positive
sample t_1 is below e^-40 of its amplitude at every positive sample and is
dropped, so the root count follows from the sample times; the t = 0 row is
the initial data itself.
"""

from __future__ import annotations

import math

import numpy as np

from .eigen import bisect
from .errors import ConfigError, InvalidInput
from .params import InitialCondition, Params, cosine_moment, equilibrium, initial_mass, sample_initial
from .series import TimeSeries
from .spectral import phi_integral

# terms with beta^2 t_1 above this are dropped (see the module docstring)
DROP_EXPONENT = 40.0


def secular(beta, p: Params) -> np.ndarray:
    """g(beta) = (1 - A beta^2) sin(beta/2)/beta + L cos(beta/2) on an array of beta > 0."""
    half = 0.5 * beta
    return (1.0 - p.A * beta * beta) * np.sin(half) / beta + p.L * np.cos(half)


def interval_count(t_first: float) -> int:
    """Intervals (2 k pi, 2(k+1) pi) holding the roots kept at first positive sample t_first.

    Each holds one root, so the count bounds the roots kept and exceeds them
    by at most one; t_first = inf keeps none.  ConfigError if the count
    overflows a float.
    """
    reach = math.sqrt(DROP_EXPONENT / t_first) / (2.0 * math.pi)
    if reach == math.inf:
        raise ConfigError(f"a first positive sample at t = {t_first:.4g} keeps infinitely many roots")
    return math.ceil(reach)


def roots(p: Params, t_first: float) -> np.ndarray:
    """Every root beta of g with beta^2 t_first <= DROP_EXPONENT, ascending.

    At L = 0 these are the Neumann roots 2 k pi, k >= 1.
    """
    k = np.arange(interval_count(t_first), dtype=float)
    if p.L > 0:
        # one root in each interval, g's sign at its left end being (-1)^k
        beta = bisect(lambda x: secular(x, p), 2.0 * math.pi * k, 2.0 * math.pi * (k + 1.0),
                      1.0 - 2.0 * (k % 2), tol=0.0)
    else:
        beta = 2.0 * math.pi * (k + 1.0)
    return beta[beta * beta * t_first <= DROP_EXPONENT]


def to_series(p: Params, ic: InitialCondition, tgrid, probes=()) -> TimeSeries:
    """The exact B = 0 solution for ic at the times tgrid (ascending, t >= 0).

    p.B is ignored.  sigma, the wall density and each probe come from the
    pole sum at every t > 0 and from the initial data at t = 0;
    conservation holds |mass + 2 sigma - N0| with the mass in closed form.
    """
    t = np.asarray(tgrid, dtype=float)
    if t.ndim != 1 or not np.all(np.isfinite(t)) or np.any(t < 0):
        raise InvalidInput("the pole sum needs a 1-d array of finite times t >= 0")
    later = t > 0
    t_first = t[later].min() if later.any() else math.inf
    beta = roots(p, t_first)
    n_eq, sigma_eq = equilibrium(p)
    moments = np.array([cosine_moment(ic, p, b) for b in beta])
    # the slab integral of cos(beta z) is -2c: a mode carries no mass
    phi = phi_integral(beta)
    if p.L > 0:
        c = -0.5 * phi
        a = 0.5 * moments / (0.25 + np.sin(beta) / (4.0 * beta) + c * c / p.L)
    else:
        c, a = np.zeros_like(beta), 2.0 * moments
    decay = np.multiply.outer(-t[later], beta * beta)
    np.exp(decay, out=decay)

    def field(level, modal, at_zero):
        # level + decay @ modal at t > 0, at_zero at t = 0
        out = np.empty(t.shape)
        out[later] = level + decay @ modal
        out[~later] = at_zero
        return out

    start = sample_initial(ic, p, np.r_[0.5, probes])
    sigma = field(sigma_eq, a * c, 0.0)
    mass = field(n_eq, a * phi, initial_mass(ic, p))
    return TimeSeries(
        t=t,
        sigma=sigma,
        surface=field(n_eq, a * np.cos(0.5 * beta), start[0]),
        probes={float(z): field(n_eq, a * np.cos(beta * z), v) for z, v in zip(probes, start[1:])},
        conservation=np.abs(mass + 2.0 * sigma - p.N0),
        params=p,
        meta={"engine": "parabolic", "roots": int(beta.size)},
    )
