"""The exact diffusive solution (B = 0) as a sum over the poles of sigma_hat(s).

At B = 0 the bulk obeys N_t = N_zz, the walls A sigma' = L N(1/2) - sigma,
and the particle count is conserved.  Every pole of the Laplace-domain
surface density is real, at s = -beta^2, where beta is a root of

    g(beta) = (1 - A beta^2) sin(beta/2)/beta + L cos(beta/2).

The mode of root beta is (N, sigma) = (cos beta z, -w) e^(-beta^2 t), with
wall share w = sin(beta/2)/beta.  The modes are orthogonal under
<(N, sigma), (M, rho)> = int_0^1/2 N M dz + sigma rho / L, and so is the
equilibrium (N_eq, sigma_eq), so each coefficient is one projection of the
initial bulk (the walls start empty), with no Gram solve:

    a = (cosine_moment(beta)/2) / (1/4 + sin(beta)/(4 beta) + w^2/L),
    sigma(t) = sigma_eq - sum a w e^(-beta^2 t),
    N(z, t) = N_eq + sum a cos(beta z) e^(-beta^2 t).

spectral.modal_sums evaluates these, each sum contracting the real table
e^(-beta^2 t) with a times a factor, and spectral.sum_series lays out the
series; this module assembles the roots, a, w and the t = 0 row.  A mode
carries no mass (its cos(beta z) integrates to 2w over the slab), so
conservation holds to rounding.  Inert walls (L = 0) keep sigma = 0 and
leave the Neumann series of the bulk: beta = 2 k pi, norm 1/4 and w = 0,
set exactly since sin(k pi) does not round to 0.

Roots.  With u = A beta^2 - 1, v = L beta > 0 and theta = atan2(v, u) in
(0, pi), g beta = -hypot(u, v) sin(beta/2 - theta).  On the interval
(2 k pi, 2(k+1) pi) that is g = -(-1)^k hypot(u, v) sin(H)/beta with

    H(beta) = beta/2 - k pi - theta(beta),   H' = 1/2 + L (u + 2)/(u^2 + v^2) > 0.

H lies in (-pi, pi), is negative at the interval's left end and positive
at its right end, and increases, so each interval holds exactly one root,
where H = 0, and g's sign at the left end is (-1)^k.
``rootfind.bracketed_roots`` finds all of them together: Newton steps on H,
then a sign change of g itself between adjacent floats.

A term whose exponent beta^2 t_1 exceeds DROP_EXPONENT at the first positive
sample t_1 is below e^-40 of its amplitude at every positive sample and is
dropped, so the root count follows from the sample times; the t = 0 row is
the initial data itself.  check_terms holds times x interval_count(t_1) to
the sum engines' one rule, spectral.check_terms, and its message ("times x
roots must be at most ...").
"""

from __future__ import annotations

import math

import numpy as np

from . import spectral
from .errors import ConfigError
from .params import InitialCondition, Params, cosine_moment, equilibrium, initial_mass, sample_initial
from .rootfind import bracketed_roots, half_turns
from .series import TimeSeries
from .spectral import modal_sums, phi_integral, sample_times, sum_series

# terms with beta^2 t_1 above this are dropped (see the module docstring)
DROP_EXPONENT = 40.0


def secular(beta, p: Params) -> np.ndarray:
    """g(beta) = (1 - A beta^2) sin(beta/2)/beta + L cos(beta/2) on an array of beta > 0."""
    half = 0.5 * beta
    # A beta^2 overflows to inf at a huge A, where g keeps its sign
    with np.errstate(over="ignore"):
        return (1.0 - p.A * beta * beta) * np.sin(half) / beta + p.L * np.cos(half)


def _phase_form(beta, k, p: Params) -> tuple[np.ndarray, np.ndarray]:
    """-(-1)^k H on interval k, which has the sign of g, and its slope (module docstring)."""
    sign = 2.0 * (k % 2) - 1.0
    # u overflows to inf at a huge A, where H is still beta/2 - k pi
    with np.errstate(over="ignore", invalid="ignore"):
        u, v = p.A * beta * beta - 1.0, p.L * beta
        H = half_turns(beta, k) - np.arctan2(v, u)
        return sign * H, sign * (0.5 + p.L * (u + 2.0) / (u * u + v * v))


def interval_count(t_first: float) -> int:
    """Intervals (2 k pi, 2(k+1) pi) holding the roots kept at first positive sample t_first.

    Each holds one root, so the count bounds the roots kept and exceeds them
    by at most one; t_first = inf keeps none.  ConfigError if the count
    overflows a float, or if t_first has underflowed to 0.
    """
    reach = math.sqrt(DROP_EXPONENT / t_first) / (2.0 * math.pi) if t_first > 0 else math.inf
    if reach == math.inf:
        raise ConfigError(f"a first positive sample at t = {t_first:.4g} keeps infinitely many roots")
    return math.ceil(reach)


def check_terms(n_times: int, t_first: float, what: str = "times") -> None:
    """spectral.check_terms of n_times what, the first positive at t_first, x roots.

    One exponential per time and root; interval_count(t_first) bounds the roots.
    """
    spectral.check_terms(n_times, interval_count(t_first), what, "roots")


def roots(p: Params, t_first: float) -> np.ndarray:
    """Every root beta of g with beta^2 t_first <= DROP_EXPONENT, ascending.

    At L = 0 these are the Neumann roots 2 k pi, k >= 1.
    """
    k = np.arange(interval_count(t_first), dtype=float)
    if p.L > 0:
        # one root in each interval, g's sign at its left end being (-1)^k
        beta = bracketed_roots(lambda x: secular(x, p), lambda x, i: _phase_form(x, k[i], p),
                               2.0 * math.pi * k, 2.0 * math.pi * (k + 1.0), 1.0 - 2.0 * (k % 2),
                               tol=0.0)
    else:
        beta = 2.0 * math.pi * (k + 1.0)
    return beta[beta * beta * t_first <= DROP_EXPONENT]


def to_series(p: Params, ic: InitialCondition, tgrid, probes=()) -> TimeSeries:
    """The exact B = 0 solution for ic at the times tgrid (ascending, t >= 0).

    p.B is ignored.  sigma, the wall density and each probe come from the
    pole sum at every t > 0 and from the initial data at t = 0;
    conservation holds |mass + 2 sigma - N0| with the mass in closed form.
    check_terms refuses too long a table before any root is sought.
    """
    t = sample_times(tgrid)
    later = t[t > 0]
    t_first = later.min() if later.size else math.inf
    check_terms(t.size, t_first)
    beta = roots(p, t_first)
    n_eq, sigma_eq = equilibrium(p)
    moments = cosine_moment(ic, p, beta)
    if p.L > 0:
        wall = 0.5 * phi_integral(beta)
        a = 0.5 * moments / (0.25 + np.sin(beta) / (4.0 * beta) + wall * wall / p.L)
    else:
        wall, a = np.zeros_like(beta), 2.0 * moments
    decay = np.exp(np.multiply.outer(-later, beta * beta))
    points = np.concatenate(([0.5], probes))
    sigma, columns, cons = modal_sums(lambda f: np.inner(decay, a * f), beta, wall, n_eq, sigma_eq,
                                      p.N0, points)
    if later.size < t.size:
        # t = 0 leads the ascending times: the initial data, walls empty
        start = sample_initial(ic, p, points)
        sigma = np.concatenate(([0.0], sigma))
        columns = [np.concatenate(([v], column)) for v, column in zip(start, columns)]
        cons = np.concatenate(([abs(initial_mass(ic, p) - p.N0)], cons))
    return sum_series(t, (sigma, columns, cons), probes, p,
                      {"engine": "parabolic", "roots": int(beta.size)})
