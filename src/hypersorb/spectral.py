"""Closed-form modal solution built on the non-orthogonal cosine modes.

The admissible spatial modes cos(alpha z*) are not mutually orthogonal on
[-1/2, 1/2], so the initial condition is projected through an orthogonal
companion basis read off the Cholesky factor of the mode Gram matrix.  Each
mode then evolves with its two temporal exponents and amplitudes fixed by
the zero-initial-velocity condition, giving bulk and surface densities
evaluable at any (z*, t*).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .eigen import DEFAULT_MODE_COUNT, Mode, find_eigenvalues
from .errors import DegenerateBasisError, DegenerateModeError, InvalidInput
from .params import InitialCondition, Params, cosine_moment, equilibrium, sample_initial
from .series import TimeSeries, thin_indices

# Gram matrices with a condition estimate beyond this are rejected
MAX_GRAM_CONDITION = 1e12

# to_series stores rows on ROW_Z_COUNT even points of the half slab, at no
# more than MAX_ROWS time levels
ROW_Z_COUNT = 201
MAX_ROWS = 201


def gram_matrix(alphas) -> np.ndarray:
    """Pairwise inner products of the cosine modes over [-1/2, 1/2].

    Symmetric with nonzero off-diagonal entries; the alphas must be distinct.
    """
    a = np.asarray(alphas, dtype=float)
    if not np.all(a > 0):
        raise InvalidInput("mode frequencies must be strictly positive")
    diff = a[:, None] - a[None, :]
    total = a[:, None] + a[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        off = np.sin(0.5 * diff) / diff + np.sin(0.5 * total) / total
    diag = 0.5 + np.sin(a) / (2.0 * a)
    np.fill_diagonal(off, diag)
    return off


def phi_integral(alphas) -> np.ndarray:
    """Integral of cos(alpha z*) over the full slab: 2 sin(alpha/2) / alpha."""
    a = np.asarray(alphas, dtype=float)
    return 2.0 * np.sin(0.5 * a) / a


@dataclass(frozen=True, eq=False)
class OrthoBasis:
    """Triangular coefficient table expressing the orthogonal companions.

    Column q of coeffs holds the expansion of the q-th orthogonal function
    in the original cosine modes (entries beyond row q vanish); norms holds
    its squared norm under the Gram inner product.
    """

    alphas: np.ndarray
    coeffs: np.ndarray
    norms: np.ndarray
    gram: np.ndarray


def orthogonalize(alphas) -> OrthoBasis:
    """Orthogonal companions from the Cholesky factor G = R^T R of the Gram matrix.

    Gram-Schmidt in the Gram inner product gives the unit upper triangular
    columns of R^-1 diag(R) with squared norms diag(R)^2.  Only exact Gram
    entries enter (no quadrature); the flags spanned are those of the
    classical cofactor-of-Gram construction.
    """
    alphas = np.asarray(alphas, dtype=float)
    gram = gram_matrix(alphas)
    if not np.all(np.isfinite(gram)):
        # 0/0 off the diagonal: a repeated alpha
        raise DegenerateBasisError(
            "Gram matrix is not finite; the mode frequencies must be distinct"
        )
    # 2-norm condition of the symmetric Gram matrix from its eigenvalues; an
    # exactly singular one gives inf (or nan when zero), refused below
    spectrum = np.abs(np.linalg.eigvalsh(gram))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = spectrum.max() / spectrum.min()
    if not np.isfinite(cond) or cond > MAX_GRAM_CONDITION:
        raise DegenerateBasisError(
            f"Gram matrix condition {cond:.3g} exceeds {MAX_GRAM_CONDITION:.0e};"
            " reduce the mode count"
        )
    try:
        upper = np.linalg.cholesky(gram).T
    except np.linalg.LinAlgError as exc:
        raise DegenerateBasisError(f"Gram matrix is not positive definite: {exc}") from exc
    diag = np.diag(upper)
    # R^-1 diag(R) is the inverse of the unit triangle diag(R)^-1 R
    coeffs = np.linalg.inv(upper / diag[:, None])
    return OrthoBasis(alphas=alphas, coeffs=coeffs, norms=diag**2, gram=gram)


def orthogonality_residual(basis: OrthoBasis) -> float:
    """Largest normalized off-diagonal inner product of the companion basis."""
    cross = basis.coeffs.T @ basis.gram @ basis.coeffs
    scale = np.sqrt(np.outer(basis.norms, basis.norms))
    off = np.abs(cross) / scale
    np.fill_diagonal(off, 0.0)
    return float(np.max(off))


def project_initial(ic: InitialCondition, basis: OrthoBasis, p: Params) -> np.ndarray:
    """Expansion coefficients of N(z*, 0) - N_eq in the cosine modes.

    The departure from equilibrium is first resolved along the orthogonal
    companions (closed-form integrals, no quadrature), then mapped back to
    the cosine modes through the triangular coefficient table.
    """
    n_eq, _ = equilibrium(p)
    moments = np.array([cosine_moment(ic, p, a) for a in basis.alphas])
    b = moments - n_eq * phi_integral(basis.alphas)
    r = (basis.coeffs.T @ b) / basis.norms
    return basis.coeffs @ r


def amplitudes(C: np.ndarray, mu1: np.ndarray, mu2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split each expansion coefficient over the two temporal exponents.

    Zero initial velocity forces mu1 S1 + mu2 S2 = 0 per mode, hence
    S1 = C / (1 - mu1/mu2) and S2 = C - S1.  Modes sitting exactly at the
    critical point (mu1 = mu2) have no such splitting and are refused.
    """
    degenerate = np.abs(mu1 - mu2) <= 1e-14 * np.abs(mu1)
    if np.any(degenerate):
        raise DegenerateModeError(
            f"modes {np.nonzero(degenerate)[0].tolist()} sit at the critical point;"
            " both exponents coincide"
        )
    ratio = mu1 / mu2
    s1 = np.asarray(C, dtype=complex) / (1.0 - ratio)
    s2 = -ratio * s1
    return s1, s2


@dataclass(eq=False)
class SpectralSolution:
    """Assembled modal solution, evaluable at any (z*, t*)."""

    params: Params
    n_eq: float
    sigma_eq: float
    modes: list[Mode]
    basis: OrthoBasis
    C: np.ndarray
    S1: np.ndarray
    S2: np.ndarray
    mu1: np.ndarray
    mu2: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def alphas(self) -> np.ndarray:
        return self.basis.alphas


def _time_weights(sol: SpectralSolution, t, rate: bool = False) -> np.ndarray:
    """Complex modal weights S1 e^{mu1 t} + S2 e^{mu2 t} (or their t-derivative).

    Shape (n_t, n_modes) for array t, (n_modes,) for scalar t.  The table is
    built in two buffers, the e^{mu1 t} and e^{mu2 t} terms, each updated in
    place in the order of the expression above: S e, then mu (S e).
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise InvalidInput("t* must be non-negative")
    tt = t[..., None]
    w1 = np.multiply(sol.mu1, tt)
    np.exp(w1, out=w1)
    # an oscillating mode has mu2 = conj(mu1), and for real t
    # e^{conj(mu1) t} = conj(e^{mu1 t}) bit for bit, so only the modes with
    # two real rates need a second exponential
    pair = sol.mu2 == np.conj(sol.mu1)
    w2 = np.conj(w1)
    if not pair.all():
        real = np.multiply(sol.mu2[~pair], tt)
        w2[..., ~pair] = np.exp(real, out=real)
    np.multiply(sol.S1, w1, out=w1)
    np.multiply(sol.S2, w2, out=w2)
    if rate:
        np.multiply(sol.mu1, w1, out=w1)
        np.multiply(sol.mu2, w2, out=w2)
    return np.add(w1, w2, out=w1)


def _modal_sum(weights: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Sum over modes of weights (n_modes or n_t x n_modes) times basis rows."""
    if weights.ndim > 1:
        return weights @ basis.T
    return basis @ weights


def _cosines(sol: SpectralSolution, zstar) -> np.ndarray:
    """cos(alpha z*) for every mode, after checking z* lies in the slab."""
    z = np.asarray(zstar, dtype=float)
    if not np.all(np.abs(z) <= 0.5 + 1e-12):
        raise InvalidInput("z* must lie within [-1/2, 1/2]")
    return np.cos(np.multiply.outer(z, sol.alphas))


def _wall_factors(sol: SpectralSolution) -> np.ndarray:
    """sin(alpha/2)/alpha: each mode's share of the surface density."""
    return np.sin(0.5 * sol.alphas) / sol.alphas


def _density(sol: SpectralSolution, weights: np.ndarray, zstar) -> np.ndarray:
    return sol.n_eq + np.real(_modal_sum(weights, _cosines(sol, zstar)))


def _sigma(sol: SpectralSolution, weights: np.ndarray) -> np.ndarray:
    return sol.sigma_eq - np.real(_modal_sum(weights, _wall_factors(sol)))


def eval_density(sol: SpectralSolution, zstar, tstar):
    """Bulk density N(z*, t*); broadcasts over array z* and t*."""
    value = _density(sol, _time_weights(sol, tstar), zstar)
    if np.isscalar(zstar) and np.isscalar(tstar):
        return float(value)
    return value


def density_rate(sol: SpectralSolution, zstar, tstar):
    """Time derivative of the bulk density; zero at t* = 0 by construction."""
    weights = _time_weights(sol, tstar, rate=True)
    return np.real(_modal_sum(weights, _cosines(sol, zstar)))


def eval_sigma(sol: SpectralSolution, tstar):
    """Surface density sigma(t*) from the modewise conservation balance."""
    value = _sigma(sol, _time_weights(sol, tstar))
    if np.isscalar(tstar):
        return float(value)
    return value


def sigma_rate(sol: SpectralSolution, tstar):
    """Time derivative of sigma(t*); vanishes identically at t* = 0."""
    weights = _time_weights(sol, tstar, rate=True)
    value = -np.real(_modal_sum(weights, _wall_factors(sol)))
    if np.isscalar(tstar):
        return float(value)
    return value


def imag_residue(sol: SpectralSolution, zgrid, tgrid) -> float:
    """Largest imaginary leak of the complex evaluation over a probe grid."""
    weights = _time_weights(sol, np.asarray(tgrid, dtype=float))
    bulk = np.max(np.abs(np.imag(_modal_sum(weights, _cosines(sol, zgrid)))))
    surf = np.max(np.abs(np.imag(_modal_sum(weights, _wall_factors(sol)))))
    return float(max(bulk, surf))


def solve_spectral(
    p: Params, ic: InitialCondition, mode_count: int = DEFAULT_MODE_COUNT
) -> SpectralSolution:
    """Assemble the modal solution: eigenvalues, projection, amplitudes.

    Truncation diagnostics are stored on the returned solution: the
    reconstruction error of the initial profile on 37 probe points, and
    the conservation residual |mass + 2 sigma - N0| at t* = 0.  The mass is
    the exact slab integral n_eq + Re(sum of phi_integral times the t* = 0
    weights), so the residual is rounding only: sigma is defined by the
    modewise balance, which makes conservation an identity of the modal
    series at any mode count.
    """
    if not p.B > 0:
        raise InvalidInput("the modal engine requires B > 0; use the parabolic solver")
    modes = find_eigenvalues(p, mode_count)
    alphas = np.array([m.alpha for m in modes])
    mu1 = np.array([m.exponents.mu1 for m in modes])
    mu2 = np.array([m.exponents.mu2 for m in modes])
    basis = orthogonalize(alphas)
    C = project_initial(ic, basis, p)
    s1, s2 = amplitudes(C, mu1, mu2)
    n_eq, sigma_eq = equilibrium(p)
    sol = SpectralSolution(
        params=p,
        n_eq=n_eq,
        sigma_eq=sigma_eq,
        modes=modes,
        basis=basis,
        C=C,
        S1=s1,
        S2=s2,
        mu1=mu1,
        mu2=mu2,
    )
    weights0 = _time_weights(sol, 0.0)
    zprobe = np.linspace(-0.45, 0.45, 37)
    recon = _density(sol, weights0, zprobe)
    target = sample_initial(ic, p, zprobe)
    mass0 = n_eq + np.real(phi_integral(alphas) @ weights0)
    sigma0 = float(_sigma(sol, weights0))
    sol.diagnostics = {
        "mode_count": mode_count,
        "reconstruction_max_error": float(np.max(np.abs(recon - target))),
        "reconstruction_error_at_center": float(abs(recon[18] - target[18])),
        "sigma_at_zero": sigma0,
        "conservation_residual_t0": float(abs(mass0 + 2.0 * sigma0 - p.N0)),
        "orthogonality_residual": orthogonality_residual(basis),
    }
    return sol


def to_series(sol: SpectralSolution, tgrid, probes=()) -> TimeSeries:
    """Sample the modal solution onto the common TimeSeries layout.

    conservation holds |mass + 2 sigma - N0| at every sample, the mass being
    the exact slab integral of the modal series.
    """
    t = np.asarray(tgrid, dtype=float)
    weights = _time_weights(sol, t)
    sigma = _sigma(sol, weights)
    surface = _density(sol, weights, 0.5)
    probe_map = {float(z): _density(sol, weights, float(z)) for z in probes}
    row_z = np.linspace(0.0, 0.5, ROW_Z_COUNT)
    idx = thin_indices(t.size, MAX_ROWS)
    rows = _density(sol, weights[idx], row_z)
    # the slab mass in closed form at every sample, as solve_spectral takes it
    # at t* = 0: the residual is rounding only (the rows stay for audits)
    mass = sol.n_eq + np.real(weights @ phi_integral(sol.alphas))
    cons = np.abs(mass + 2.0 * sigma - sol.params.N0)
    return TimeSeries(
        t=t,
        sigma=np.asarray(sigma),
        surface=np.asarray(surface),
        probes=probe_map,
        rows=rows,
        row_times=t[idx],
        row_z=row_z,
        conservation=cons,
        params=sol.params,
        meta={
            "engine": "spectral",
            "mode_count": len(sol.modes),
            "diagnostics": dict(sol.diagnostics),
        },
    )
