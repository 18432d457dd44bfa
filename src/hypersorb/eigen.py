"""Characteristic exponents and the transcendental eigenvalue problem.

Each spatial mode cos(alpha z*) decays in time like a combination of
exp(mu1 t*) and exp(mu2 t*) where mu1, mu2 solve B mu^2 + mu + alpha^2 = 0:

    mu_{1,2} = -(1 +- sqrt(1 - 4 alpha^2 B)) / (2B),   mu1 taking the + sign.

Below the critical value alpha_c = 1/(2 sqrt(B)) both rates are real
(overdamped); above it they are complex conjugates with real part -1/(2B)
(oscillatory).  The admissible alpha are roots of a secular equation built
from the wall kinetics; the production set uses the real part of its
analytic continuation for all alpha, which reduces to the average of the
two real-branch equations below alpha_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketingError, InvalidInput, PartialResultError, PoleError
from .params import Params, alpha_critical

# evaluation is refused this close to a pole of tan(alpha/2)
TAN_POLE_GUARD = 1e-8
# bracket seeds sit at 2 m pi +- pi (1 - SEED_MARGIN), i.e. just inside the
# two neighbouring tan poles
SEED_MARGIN = 1e-6
# bisection stops once the bracket is narrower than this
BRACKET_TOL = 1e-12
# roots this close to alpha_c are nudged off the degenerate point
CRITICAL_NUDGE = 1e-9

DEFAULT_MODE_COUNT = 50


@dataclass(frozen=True)
class Exponents:
    """Pair of temporal rates for one mode; mu1 carries the + discriminant sign."""

    mu1: complex
    mu2: complex

    @property
    def is_real(self) -> bool:
        return self.mu1.imag == 0.0 and self.mu2.imag == 0.0


@dataclass(frozen=True)
class Mode:
    """One admissible eigenvalue with its temporal exponents.

    index is the ordinal m of the 2 m pi anchor interval the root was
    bracketed in; branch records which secular equation produced it.
    """

    alpha: float
    exponents: Exponents
    branch: str = "ReE"
    index: int = 0


def exponents(alpha: float, B: float) -> Exponents:
    """Temporal rates mu1, mu2 for a mode of spatial frequency alpha.

    B = 0 is the degenerate parabolic branch: mu1 diverges to -inf and
    mu2 -> -alpha^2 (the classical diffusive decay rate).
    """
    if not alpha > 0:
        raise InvalidInput("alpha must be strictly positive")
    if B < 0:
        raise InvalidInput("B must be non-negative")
    if B == 0:
        return Exponents(complex(-math.inf, 0.0), complex(-(alpha**2), 0.0))
    disc = 1.0 - 4.0 * alpha**2 * B
    inv = 0.5 / B
    if disc >= 0.0:
        root = math.sqrt(disc)
        # second root through the product identity B mu1 mu2 = alpha^2, which
        # avoids the 1 - sqrt(1 - x) cancellation at small alpha^2 B
        mu1 = -(1.0 + root) * inv
        mu2 = -2.0 * alpha**2 / (1.0 + root)
        return Exponents(complex(mu1, 0.0), complex(mu2, 0.0))
    w = math.sqrt(-disc)
    mu1 = complex(-inv, -w * inv)
    return Exponents(mu1, mu1.conjugate())


def _nearest_tan_pole(alpha: float) -> float:
    """Closest odd multiple of pi (a pole of tan(alpha/2))."""
    m = round((alpha / math.pi - 1.0) / 2.0)
    return (2.0 * m + 1.0) * math.pi


def _tan_term(alpha: float) -> float:
    if abs(alpha - _nearest_tan_pole(alpha)) < TAN_POLE_GUARD:
        raise PoleError(
            f"alpha = {alpha!r} lies inside the guard band of a tan(alpha/2) pole;"
            " re-bracket away from odd multiples of pi"
        )
    return math.tan(0.5 * alpha) / alpha


def f1(alpha: float, p: Params) -> float:
    """Real-branch secular equation for the mu1 mode family."""
    return _real_branch_equation(alpha, p, which=1)


def f2(alpha: float, p: Params) -> float:
    """Real-branch secular equation for the mu2 mode family."""
    return _real_branch_equation(alpha, p, which=2)


def _real_branch_equation(alpha: float, p: Params, which: int) -> float:
    tan_term = _tan_term(alpha)
    mu = exponents(alpha, p.B)
    if not mu.is_real:
        raise InvalidInput(
            f"alpha = {alpha!r} exceeds alpha_c = {alpha_critical(p)!r};"
            " the real-branch equations only exist for real exponents"
        )
    mu_real = mu.mu1.real if which == 1 else mu.mu2.real
    return tan_term + p.L / (1.0 + mu_real * p.A)


def eigen_equation_complex(alpha: float, p: Params) -> tuple[float, float]:
    """Real and imaginary parts of the secular equation above alpha_c.

    The + sign convention is returned for the imaginary part; the conjugate
    mode family flips its sign.
    """
    if p.B <= 0:
        raise InvalidInput("the oscillatory branch requires B > 0")
    if not alpha > alpha_critical(p):
        raise InvalidInput("eigen_equation_complex requires alpha > alpha_c")
    tan_term = _tan_term(alpha)
    A, B, L = p.A, p.B, p.L
    q = 4.0 * alpha**2 * B - 1.0
    den = (2.0 * B - A) ** 2 + A**2 * q
    re = tan_term + L * 2.0 * B * (2.0 * B - A) / den
    im = 2.0 * B * A * math.sqrt(q) / den
    return re, im


def re_eigen_equation(alpha: float, p: Params) -> float:
    """Analytic continuation of Re[secular equation], valid for all alpha > 0.

    Below alpha_c this equals (f1 + f2)/2; above alpha_c it is the genuine
    real part of the complex equation.  Used to define the production
    eigenvalue set.
    """
    tan_term = _tan_term(alpha)
    return tan_term + _kinetic_term(np.asarray(alpha), p).item()


def im_eigen_equation(alpha: float, p: Params) -> float:
    """Imaginary part of the secular equation; identically zero below alpha_c."""
    if p.B <= 0:
        raise InvalidInput("the oscillatory branch requires B > 0")
    if alpha <= alpha_critical(p):
        return 0.0
    return eigen_equation_complex(alpha, p)[1]


def _kinetic_term(alpha: np.ndarray, p: Params):
    """Wall-kinetics contribution L*2B(2B-A) / ((2B-A)^2 + A^2(4 alpha^2 B - 1)).

    Has a simple pole at alpha_p = sqrt(A-B)/A when A > B (where one real
    exponent hits -1/A); evaluation returns +-inf there.
    """
    A, B, L = p.A, p.B, p.L
    q = 4.0 * alpha**2 * B - 1.0
    den = (2.0 * B - A) ** 2 + A**2 * q
    with np.errstate(divide="ignore"):
        return L * 2.0 * B * (2.0 * B - A) / den


def kinetic_pole(p: Params) -> float | None:
    """Location of the kinetic-term pole, or None when it does not exist."""
    if p.A > p.B:
        return math.sqrt(p.A - p.B) / p.A
    return None


def _re_E_array(alpha: np.ndarray, p: Params) -> np.ndarray:
    """Vectorised continuation of the secular equation (no pole guard)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.tan(0.5 * alpha) / alpha + _kinetic_term(alpha, p)


def _bisect(func, a: float, b: float, fa: float, fb: float) -> float:
    """Plain bisection on a sign-change bracket; unconditionally convergent."""
    while b - a > BRACKET_TOL:
        mid = 0.5 * (a + b)
        fm = func(mid)
        if fm == 0.0:
            return mid
        if (fa < 0.0) != (fm < 0.0):
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _roots_in_anchor_interval(p: Params, m: int) -> list[float]:
    """All genuine roots of the continued secular equation in the m-th interval.

    The interval spans the two tan poles bracketing the anchor 2 m pi.  The
    scan grid is refined around the kinetic pole (when present) and sign
    changes across that pole are discarded: they are blow-ups, not roots.
    """
    lo = (2 * m - 1) * math.pi + SEED_MARGIN * math.pi
    hi = (2 * m + 1) * math.pi - SEED_MARGIN * math.pi
    grid = np.linspace(lo, hi, 601)
    pole = kinetic_pole(p)
    if pole is not None and lo < pole < hi:
        offsets = np.geomspace(1e-9, 0.5, 24)
        extra = np.concatenate([pole - offsets, pole + offsets])
        grid = np.sort(np.concatenate([grid, extra[(extra > lo) & (extra < hi)]]))
    values = _re_E_array(grid, p)
    fa, fb = values[:-1], values[1:]
    usable = np.isfinite(fa) & np.isfinite(fb)
    if pole is not None:
        usable &= ~((grid[:-1] < pole) & (pole < grid[1:]))  # blow-up, not a root
    roots = [float(a) for a in grid[:-1][usable & (fa == 0.0)]]
    func = lambda a: _re_E_array(np.asarray(a), p).item()
    for i in np.flatnonzero(usable & (fa * fb < 0.0)):
        roots.append(_bisect(func, float(grid[i]), float(grid[i + 1]), float(fa[i]), float(fb[i])))
    return sorted(roots)


def find_eigenvalues(p: Params, count: int = DEFAULT_MODE_COUNT) -> list[Mode]:
    """First ``count`` roots of the continued secular equation, ascending.

    One anchor interval per integer m is scanned in order; the occasional
    interval contributes two roots (when the kinetic pole falls inside it).
    Roots landing within CRITICAL_NUDGE of alpha_c are pushed off the
    degenerate point so both exponents stay distinct.
    """
    if count < 1:
        raise InvalidInput("count must be at least 1")
    if not p.B > 0:
        raise InvalidInput("the eigenvalue set requires B > 0")
    a_c = alpha_critical(p)
    collected: list[Mode] = []
    m = 0
    while len(collected) < count:
        m += 1
        if m > count + 64:
            raise PartialResultError(
                f"only {len(collected)} of {count} eigenvalues resolved after {m - 1}"
                " anchor intervals",
                modes=collected,
            )
        roots = _roots_in_anchor_interval(p, m)
        if not roots:
            raise BracketingError(
                f"no sign change of the secular equation inside anchor interval m={m}"
                f" (({2 * m - 1}pi, {2 * m + 1}pi)) for {p}"
            )
        for alpha in roots:
            if abs(alpha - a_c) < CRITICAL_NUDGE:
                alpha = a_c + CRITICAL_NUDGE
            collected.append(Mode(alpha, exponents(alpha, p.B), branch="ReE", index=m))
    return collected[:count]


def eigen_grid(p: Params, alphas) -> dict[str, np.ndarray]:
    """Tabulate the secular functions on a user grid for diagnostic dumps.

    Returns columns alpha, f1, f2, re_E, im_E; entries are NaN where a
    function is undefined (tan-pole guard band, or the real branch above
    alpha_c).
    """
    alphas = np.asarray(alphas, dtype=float)
    n = alphas.size
    out = {
        "alpha": alphas,
        "f1": np.full(n, np.nan),
        "f2": np.full(n, np.nan),
        "re_E": np.full(n, np.nan),
        "im_E": np.full(n, np.nan),
    }
    a_c = alpha_critical(p)
    for i, a in enumerate(alphas):
        if a <= 0 or abs(a - _nearest_tan_pole(a)) < TAN_POLE_GUARD:
            continue
        out["re_E"][i] = re_eigen_equation(a, p)
        if a < a_c:
            out["f1"][i] = f1(a, p)
            out["f2"][i] = f2(a, p)
            out["im_E"][i] = 0.0
        elif a > a_c:
            out["im_E"][i] = eigen_equation_complex(a, p)[1]
    return out
