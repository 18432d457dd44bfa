"""Closed-form modal solution built on the non-orthogonal cosine modes.

The admissible spatial modes cos(alpha z*) are not mutually orthogonal on
[-1/2, 1/2], so the initial condition is projected through an orthogonal
companion basis read off the Cholesky factor of the mode Gram matrix.  Each
mode then evolves with its two temporal exponents and amplitudes fixed by
the zero-initial-velocity condition, giving bulk and surface densities
evaluable at any (z*, t*).

modal_sums evaluates this series and the exact sum of hypersorb.poles alike;
this module supplies the contraction S(f) = Re(sum_k (S1 e^{mu1 t} +
S2 e^{mu2 t})_k f_k) (or its rate), one damped cosine per oscillating mode,
each decaying at -1/(2B).  The field is evaluated on demand (eval_density);
a series holds sigma, the wall density and its probes, and no stored rows,
and sum_series lays it out for both engines.  One rule bounds their work,
check_terms: times x terms (modes here, roots in poles) must be at most
MAX_MODAL_TERMS, or one ConfigError says "<times> x <terms> must be at
most <MAX_MODAL_TERMS>, got <n> x <m>: ...".

Trig of n x k phase sums comes from O(n + k) sines and cosines by angle
addition, sin(a +- b) and cos(a + b) in terms of sin and cos of a and of b:
the Gram matrix's sines of (alpha_i +- alpha_j)/2, and the cosine sums of
the value on an even time grid, which become matrix products and form no
samples x modes array (_contraction).  Results move from the per-entry
forms at rounding level only.

The Cholesky factor and the small blocks of the triangular inverse
(LAPACK), that inverse's block products, the projection's and the solve
residual's matrix-vector products and the contraction's products (BLAS) are
the package's only BLAS and LAPACK calls in a run (orthogonality_residual,
a library check, adds two matrix products); a threaded BLAS may order their
sums by its thread count, so this engine's last bits, unlike those of fdm,
can change with it.  The package sets no thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .eigen import DEFAULT_MODE_COUNT, find_eigenvalues
from .errors import ConfigError, DegenerateBasisError, DegenerateModeError, InvalidInput
from .params import InitialCondition, Params, check_positions, cosine_moment, equilibrium, sample_initial
from .series import TimeSeries

# Gram matrices whose condition bound exceeds this are rejected
MAX_GRAM_CONDITION = 1e12
# unit_upper_inverse inverts blocks of at most this many rows directly
INVERSE_BLOCK = 32

# e^x underflows to zero in double precision below x = -745.2, so past
# UNDERFLOW_EXPONENT / |slowest rate| every modal term is zero
UNDERFLOW_EXPONENT = 746.0

# most times x terms of either sum engine, held by check_terms alone: the
# work of a sum grows as times x terms per summed factor.  The modal
# series' terms are its modes (on an even time grid it forms no array of
# that size, on any other grid and for the rate one cosine table of 8
# bytes an entry; the largest in use is 801 x 2000), the pole sum's its
# roots, one real exponential per time and root (801 x 21 at T = 2).
MAX_MODAL_TERMS = 10**7


def gram_matrix(alphas) -> np.ndarray:
    """Pairwise inner products of the cosine modes over [-1/2, 1/2].

    Off the diagonal, sin((a_i - a_j)/2)/(a_i - a_j) + sin((a_i + a_j)/2)/(a_i
    + a_j).  With H = outer(sin(a/2), cos(a/2)) the two sines are H - H^T and
    H + H^T by angle addition: 2n sines and cosines in place of 2n^2 sines,
    and no rounded a_i -+ a_j inside a sine.  Symmetric (exactly) with
    nonzero off-diagonal entries; the alphas must be distinct.
    """
    a = np.asarray(alphas, dtype=float)
    if not np.all(a > 0):
        raise InvalidInput("mode frequencies must be strictly positive")
    half = np.multiply.outer(np.sin(0.5 * a), np.cos(0.5 * a))
    with np.errstate(divide="ignore", invalid="ignore"):
        off = (half - half.T) / np.subtract.outer(a, a) + (half + half.T) / np.add.outer(a, a)
    diag = 0.5 + np.sin(a) / (2.0 * a)
    np.fill_diagonal(off, diag)
    return off


def phi_integral(alphas) -> np.ndarray:
    """Integral of cos(alpha z*) over the full slab: 2 sin(alpha/2) / alpha."""
    a = np.asarray(alphas, dtype=float)
    return 2.0 * np.sin(0.5 * a) / a


def check_terms(n_times: int, n_terms: int, what: str, terms: str) -> None:
    """ConfigError if n_times what x n_terms terms pass MAX_MODAL_TERMS, the sum engines' one bound."""
    if n_times * n_terms > MAX_MODAL_TERMS:
        raise ConfigError(f"{what} x {terms} must be at most {MAX_MODAL_TERMS}, got {n_times} x"
                          f" {n_terms}: a sum engine's work grows as {what} x {terms}")


def _times(t, refusal: str = "t* must be non-negative") -> np.ndarray:
    """t as a float array, refused with refusal unless every entry is t >= 0 (NaN is refused)."""
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise InvalidInput(refusal)
    return t


def sample_times(tgrid) -> np.ndarray:
    """The sample times of a series: a 1-d array of finite t >= 0."""
    refusal = "a series needs a 1-d array of finite times t >= 0"
    t = np.asarray(tgrid, dtype=float)
    if t.ndim != 1 or not np.all(np.isfinite(t)):
        raise InvalidInput(refusal)
    return _times(t, refusal)


def sum_series(t, sums, probes, params: Params, meta: dict) -> TimeSeries:
    """A sum engine's TimeSeries at times t from modal_sums' (sigma, columns, conservation).

    The sums were taken at z* = 1/2, whose column is the wall density
    (surface), then at probes, whose columns are keyed by float z*.
    """
    sigma, columns, cons = sums
    return TimeSeries(t=t, sigma=sigma, surface=columns[0],
                      probes={float(z): column for z, column in zip(probes, columns[1:])},
                      conservation=cons, params=params, meta=meta)


def modal_sums(contract, freq, wall, n_eq, sigma_eq, N0, probes=()):
    """sigma, the bulk density at each probe, and conservation of a modal series.

    Term k has a frequency freq and a share wall of the surface density;
    contract(f) is the engine's S(f), the sum over the terms of f times
    each term's amplitude and time factors, with the time axes first and
    then those of f but its last, the term axis.  sigma = sigma_eq -
    S(wall), the density at a probe z (a point or an array) is n_eq +
    S(cos(freq z)), and the closed-form mass n_eq + 2 S(wall) leaves a
    conservation residual of rounding only.  S(wall) is summed once for
    both: 2 S(wall) is S(2 wall) bit for bit, since scaling by 2 is exact
    short of subnormals.
    """
    z = [check_positions(zi) for zi in probes]
    share = contract(wall)
    sigma = sigma_eq - share
    columns = [n_eq + contract(np.cos(np.multiply.outer(zi, freq))) for zi in z]
    mass = n_eq + 2.0 * share
    return sigma, columns, np.abs(mass + 2.0 * sigma - N0)


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


def unit_upper_inverse(u: np.ndarray) -> np.ndarray:
    """Inverse of a unit upper triangular matrix by recursive 2 x 2 blocks.

    inv([[A, B], [0, C]]) = [[A^-1, -A^-1 B C^-1], [0, C^-1]]: the work is
    matrix products, and the inverse keeps exact zeros below its diagonal.
    Blocks of at most INVERSE_BLOCK rows are inverted directly.
    """
    n = u.shape[0]
    if n <= INVERSE_BLOCK:
        return np.linalg.inv(u)
    k = n // 2
    top, bottom = unit_upper_inverse(u[:k, :k]), unit_upper_inverse(u[k:, k:])
    inv = np.zeros_like(u)
    inv[:k, :k], inv[k:, k:] = top, bottom
    inv[:k, k:] = -(top @ u[:k, k:]) @ bottom
    return inv


def orthogonalize(alphas) -> OrthoBasis:
    """Orthogonal companions from the Cholesky factor G = R^T R of the Gram matrix.

    Gram-Schmidt in the Gram inner product gives the unit upper triangular
    columns of R^-1 diag(R) with squared norms diag(R)^2.  Only exact Gram
    entries enter (no quadrature); the flags spanned are those of the
    classical cofactor-of-Gram construction.

    The unit triangle is inverted by unit_upper_inverse.  The guard needs no
    eigenvalues: gram_condition_bound reads ||G^-1||_1 <= ||R^-1||_1
    ||R^-T||_1 off that inverse, so it is at least kappa_1(G), which for a
    symmetric G is at least the 2-norm condition.  A Gram matrix that
    Cholesky cannot factor is refused as singular.
    """
    alphas = np.asarray(alphas, dtype=float)
    gram = gram_matrix(alphas)
    if not np.all(np.isfinite(gram)):
        # 0/0 off the diagonal: a repeated alpha
        raise DegenerateBasisError(
            "Gram matrix is not finite; the mode frequencies must be distinct"
        )
    try:
        upper = np.linalg.cholesky(gram).T
    except np.linalg.LinAlgError as exc:
        raise DegenerateBasisError(
            f"Gram matrix is not positive definite, so its condition is unbounded: {exc};"
            " reduce the mode count"
        ) from exc
    diag = np.diag(upper)
    # R^-1 diag(R) is the inverse of the unit triangle diag(R)^-1 R
    basis = OrthoBasis(alphas=alphas, coeffs=unit_upper_inverse(upper / diag[:, None]),
                       norms=diag**2, gram=gram)
    cond = gram_condition_bound(basis)
    if not cond <= MAX_GRAM_CONDITION:
        raise DegenerateBasisError(
            f"Gram matrix condition bound {cond:.3g} exceeds {MAX_GRAM_CONDITION:.0e};"
            " reduce the mode count"
        )
    return basis


def gram_condition_bound(basis: OrthoBasis) -> float:
    """||G||_1 ||R^-1||_1 ||R^-1||_inf, an upper bound on the condition of G.

    R^-1 is coeffs / diag(R), diag(R) being the square root of norms; an
    overflow gives inf.  O(n^2): the inverse is already in coeffs.
    """
    with np.errstate(over="ignore"):
        inv = np.abs(basis.coeffs / np.sqrt(basis.norms))
        return float(np.abs(basis.gram).sum(axis=0).max() * inv.sum(axis=0).max()
                     * inv.sum(axis=1).max())


def orthogonality_residual(basis: OrthoBasis) -> float:
    """Largest normalized off-diagonal inner product of the companion basis."""
    cross = basis.coeffs.T @ basis.gram @ basis.coeffs
    scale = np.sqrt(np.outer(basis.norms, basis.norms))
    off = np.abs(cross) / scale
    np.fill_diagonal(off, 0.0)
    return float(np.max(off))


def departure_moments(ic: InitialCondition, p: Params, alphas) -> np.ndarray:
    """b of the Gram solve G C = b: the cosine moments of N(z*, 0) - N_eq."""
    n_eq, _ = equilibrium(p)
    return cosine_moment(ic, p, alphas) - n_eq * phi_integral(alphas)


def solve_residual(basis: OrthoBasis, C: np.ndarray, b: np.ndarray) -> float:
    """||G C - b||_2 / ||b||_2 by one matrix-vector product; 0 for b = 0, whose C is 0."""
    scale = np.linalg.norm(b)
    return float(np.linalg.norm(basis.gram @ C - b) / scale) if scale else 0.0


def project_initial(b: np.ndarray, basis: OrthoBasis) -> np.ndarray:
    """Expansion coefficients of N(z*, 0) - N_eq in the cosine modes, b its departure_moments.

    The departure from equilibrium is first resolved along the orthogonal
    companions (closed-form integrals, no quadrature), then mapped back to
    the cosine modes through the triangular coefficient table.
    """
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
    """Assembled modal solution, evaluable at any (z*, t*).

    Per mode: alphas (the basis's), anchors (the index m of the anchor
    interval each root was found in), the rates mu1 and mu2 of
    find_eigenvalues, the expansion coefficients C and the amplitudes S1
    and S2, each a contiguous array.
    """

    params: Params
    n_eq: float
    sigma_eq: float
    anchors: np.ndarray
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

    @property
    def wall(self) -> np.ndarray:
        """sin(alpha/2)/alpha: each mode's share of the surface density."""
        return 0.5 * phi_integral(self.alphas)


def _contraction(sol: SpectralSolution, t, rate: bool = False):
    """f -> S(f) = Re(sum_k (S1 e^{mu1 t} + S2 e^{mu2 t})_k f_k), or its t-derivative.

    f holds one entry per mode on its last axis; S(f) has the axes of t
    first, then the other axes of f.  An oscillating mode (mu2 = conj(mu1))
    sums to |P| e^{Re(mu1) t} cos(Im(mu1) t + arg P) with P = S1 + conj(S2).
    Every such mode decays at Re(mu1) = -1/(2B), so S(f) is e^{-t/2B} times
    the contraction of the cosines with g = |P| f, the exponential applied
    per time after it.  A mode with two real rates adds its own columns
    S1 e^{mu1 t} + S2 e^{mu2 t}.  The rate puts mu1 S1 and mu2 S2 in place
    of S1 and S2.  The trig of the phases is taken here, once; each call
    of the returned function runs only the products.

    The value on an even grid, t equal to np.linspace(t[0], t[-1], t.size),
    forms no samples x modes array: time n = qM + r, M the ceiling of
    sqrt(t.size), is a coarse time t[qM] (its phase per entry, bit for bit)
    plus a fine offset r dt, so by angle addition the cosine sum is
    (cos C g) cos F^T - (sin C g) sin F^T, two (t.size/M x modes)(modes x M)
    matrix products per row of g.  A fine offset adds a phase rounding of
    about Im(mu1) ulp(t).  Any other t, and the rate, take one cosine per
    entry, contracted with g: the rate's scale comes from the fastest
    modes, where that rounding would show.  Times past the underflow of the
    slowest mode are evaluated at that point, where every term is zero, so
    t = inf needs no cos(inf); a grid reaching past it takes one cosine per
    entry.
    """
    t = _times(t)
    pair = sol.mu2 == np.conj(sol.mu1)
    s1, s2 = (sol.mu1 * sol.S1, sol.mu2 * sol.S2) if rate else (sol.S1, sol.S2)
    slowest = max(np.max(sol.mu1.real), np.max(sol.mu2.real))
    limit = UNDERFLOW_EXPONENT / -slowest
    tt = np.minimum(t, limit)
    tr, real = tt[..., None], ~pair
    p = (s1 + np.conj(s2))[pair]
    freq, phase, size = sol.mu1.imag[pair], np.angle(p), np.abs(p)
    # -0.5 / B is eigen's Re(mu1) of an oscillating mode, bit for bit
    decay = np.exp(np.multiply(-0.5 / sol.params.B, tt))
    if not rate and t.ndim == 1 and t.size > 1 and max(t[0], t[-1]) <= limit \
            and np.array_equal(t, np.linspace(t[0], t[-1], t.size)):
        fine_count = math.ceil(math.sqrt(t.size))
        coarse = np.add(np.multiply.outer(t[::fine_count], freq), phase)
        fine = np.multiply.outer(np.arange(fine_count) * ((t[-1] - t[0]) / (t.size - 1)), freq)
        cos_c, sin_c, cos_f, sin_f = np.cos(coarse), np.sin(coarse), np.cos(fine).T, np.sin(fine).T

        def waves(g):
            rows = [((cos_c * row) @ cos_f - (sin_c * row) @ sin_f).ravel()[: t.size]
                    for row in g.reshape(math.prod(g.shape[:-1]), g.shape[-1])]
            return np.array(rows).T.reshape(t.shape + g.shape[:-1])
    else:
        wave = np.multiply(freq, tr)
        np.add(wave, phase, out=wave)
        np.cos(wave, out=wave)

        def waves(g):
            return np.inner(wave, g)
    two_real = (s1.real[real] * np.exp(sol.mu1.real[real] * tr)
                + s2.real[real] * np.exp(sol.mu2.real[real] * tr))

    def contract(f):
        return (np.reshape(decay, decay.shape + (1,) * (f.ndim - 1)) * waves(size * f[..., pair])
                + np.inner(two_real, f[..., real]))

    return contract


def eval_density(sol: SpectralSolution, zstar, tstar):
    """Bulk density N(z*, t*); broadcasts over array z* and t*, t* axes first."""
    _, (value,), _ = modal_sums(_contraction(sol, tstar), sol.alphas, sol.wall, sol.n_eq,
                                sol.sigma_eq, sol.params.N0, [zstar])
    return float(value) if np.isscalar(zstar) and np.isscalar(tstar) else value


def density_rate(sol: SpectralSolution, zstar, tstar):
    """Time derivative of the bulk density; zero at t* = 0 by construction."""
    _, (value,), _ = modal_sums(_contraction(sol, tstar, rate=True), sol.alphas, sol.wall,
                                0.0, 0.0, 0.0, [zstar])
    return value


def eval_sigma(sol: SpectralSolution, tstar):
    """Surface density sigma(t*) from the modewise conservation balance."""
    value, _, _ = modal_sums(_contraction(sol, tstar), sol.alphas, sol.wall, sol.n_eq,
                             sol.sigma_eq, sol.params.N0)
    return float(value) if np.isscalar(tstar) else value


def sigma_rate(sol: SpectralSolution, tstar):
    """Time derivative of sigma(t*); vanishes identically at t* = 0."""
    value, _, _ = modal_sums(_contraction(sol, tstar, rate=True), sol.alphas, sol.wall,
                             0.0, 0.0, 0.0)
    return float(value) if np.isscalar(tstar) else value


def imag_residue(sol: SpectralSolution, zgrid, tgrid) -> float:
    """Largest imaginary leak of the complex evaluation over a probe grid.

    The complex table S1 e^{mu1 t} + S2 e^{mu2 t} is evaluated here, term by
    term: its leak certifies the conjugate amplitudes whose real part alone
    _contraction sums.
    """
    tt = _times(tgrid)[..., None]
    leak = (sol.S1 * np.exp(sol.mu1 * tt) + sol.S2 * np.exp(sol.mu2 * tt)).imag
    surf, (bulk,), _ = modal_sums(lambda f: np.inner(leak, f), sol.alphas, sol.wall, 0.0, 0.0,
                                  0.0, [zgrid])
    return float(max(np.max(np.abs(bulk)), np.max(np.abs(surf))))


def solve_spectral(
    p: Params, ic: InitialCondition, mode_count: int = DEFAULT_MODE_COUNT
) -> SpectralSolution:
    """Assemble the modal solution: eigenvalues, projection, amplitudes.

    Diagnostics are stored on the returned solution: the reconstruction
    error of the initial profile on 37 probe points, the solve residual
    ||G C - b|| / ||b|| of the projection, and the conservation residual
    |mass + 2 sigma - N0| at t* = 0.  The mass is
    the exact slab integral, so the residual is rounding only: sigma is
    defined by the modewise balance, which makes conservation an identity
    of the modal series at any mode count.  eigen.check_params refuses p.
    """
    roots = find_eigenvalues(p, mode_count)
    # contiguous copies of the record's columns, which the modal sums read
    alphas, anchors, mu1, mu2 = (roots[name].copy() for name in roots.dtype.names)
    basis = orthogonalize(alphas)
    b = departure_moments(ic, p, alphas)
    C = project_initial(b, basis)
    s1, s2 = amplitudes(C, mu1, mu2)
    n_eq, sigma_eq = equilibrium(p)
    sol = SpectralSolution(
        params=p,
        n_eq=n_eq,
        sigma_eq=sigma_eq,
        anchors=anchors,
        basis=basis,
        C=C,
        S1=s1,
        S2=s2,
        mu1=mu1,
        mu2=mu2,
    )
    zprobe = np.linspace(-0.45, 0.45, 37)
    sigma0, (recon,), cons0 = modal_sums(_contraction(sol, 0.0), alphas, sol.wall, n_eq,
                                         sigma_eq, p.N0, [zprobe])
    target = sample_initial(ic, p, zprobe)
    sol.diagnostics = {
        "mode_count": mode_count,
        "reconstruction_max_error": float(np.max(np.abs(recon - target))),
        "reconstruction_error_at_center": float(abs(recon[18] - target[18])),
        "sigma_at_zero": float(sigma0),
        "conservation_residual_t0": float(cons0),
        "solve_residual": solve_residual(basis, C, b),
    }
    return sol


def to_series(sol: SpectralSolution, tgrid, probes=()) -> TimeSeries:
    """Sample the modal solution onto the common TimeSeries layout.

    conservation holds |mass + 2 sigma - N0| at every sample, the mass being
    the exact slab integral of the modal series.  The series stores no
    spatial rows: eval_density evaluates the field at any (z*, t*).
    """
    t = sample_times(tgrid)
    sums = modal_sums(_contraction(sol, t), sol.alphas, sol.wall, sol.n_eq, sol.sigma_eq,
                      sol.params.N0, np.concatenate(([0.5], probes)))
    meta = {"engine": "spectral", "mode_count": sol.alphas.size, "diagnostics": dict(sol.diagnostics)}
    return sum_series(t, sums, probes, sol.params, meta)
