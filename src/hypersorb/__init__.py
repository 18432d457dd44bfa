"""Adsorption-desorption of neutral particles under finite-velocity diffusion.

Two independent engines produce the bulk density N(z*, t*) and the surface
density sigma(t*) in a slab with adsorbing walls: a modal series built on
the non-orthogonal cosine eigenfunctions, and an explicit finite-difference
scheme with a conservation-based wall closure.  The exact diffusive (B = 0)
solution, a sum over the real poles of the surface density's Laplace
transform, and comparison tooling cross-validate the two.
"""

from .eigen import Exponents, Mode, exponents, find_eigenvalues
from .errors import HypersorbError
from .fdm import Grid, default_lambda, run_fdm
from .params import (
    InitialCondition,
    Params,
    PhysicalInputs,
    alpha_critical,
    equilibrium,
    from_physical,
    parabolic_ic,
    sample_initial,
    sampled_ic,
    step_ic,
    wave_speed,
)
from .series import TimeSeries
from .spectral import SpectralSolution, eval_density, eval_sigma, solve_spectral, to_series
from .validate import ComparisonReport, audit_conservation, audit_kinetics, compare_engines, run_parabolic

__all__ = [
    "ComparisonReport",
    "Exponents",
    "Grid",
    "HypersorbError",
    "InitialCondition",
    "Mode",
    "Params",
    "PhysicalInputs",
    "SpectralSolution",
    "TimeSeries",
    "alpha_critical",
    "audit_conservation",
    "audit_kinetics",
    "compare_engines",
    "default_lambda",
    "equilibrium",
    "eval_density",
    "eval_sigma",
    "exponents",
    "find_eigenvalues",
    "from_physical",
    "parabolic_ic",
    "run_fdm",
    "run_parabolic",
    "sample_initial",
    "sampled_ic",
    "solve_spectral",
    "step_ic",
    "to_series",
    "wave_speed",
]

__version__ = "0.1.0"
