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

The rates and the secular equation are each written once, as the array
functions ``_rates`` and ``secular``; the real part of the continued
equation is ``_real_part``, which ``secular`` builds on.  ``eigen_grid`` is
the public evaluator of the secular functions: it masks their undefined
entries with NaN rather than raising.  ``find_eigenvalues`` scans the first
``count`` anchor intervals as one flat grid and bisects every bracket
together, one evaluation of the real part per step.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import BracketingError, InvalidInput
from .params import Params, alpha_critical

# eigen_grid masks alpha this close to a pole of tan(alpha/2)
TAN_POLE_GUARD = 1e-8
# bracket seeds sit at 2 m pi +- pi (1 - SEED_MARGIN), i.e. just inside the
# two neighbouring tan poles
SEED_MARGIN = 1e-6
# bisection stops once the bracket is narrower than this or its ends are
# adjacent floats
BRACKET_TOL = 1e-12
# points per anchor interval in the root scan
SCAN_POINTS = 601
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
    bracketed in.
    """

    alpha: float
    exponents: Exponents
    index: int = 0


def _rates(alpha: np.ndarray, B: float) -> tuple[np.ndarray, np.ndarray]:
    """Rates mu1, mu2 of every alpha as complex arrays; B = 0 gives -inf, -alpha^2."""
    alpha_sq = alpha**2
    disc = 1.0 - 4.0 * alpha_sq * B
    inv = 0.5 / B if B else math.inf
    root = np.sqrt(np.abs(disc))
    real = disc >= 0.0
    mu1 = np.where(real, -(1.0 + root) * inv, -inv).astype(complex)
    mu1.imag = np.where(real, 0.0, -root * inv)
    # second real root through the product identity B mu1 mu2 = alpha^2,
    # which avoids the 1 - sqrt(1 - x) cancellation at small alpha^2 B
    mu2 = np.where(real, -2.0 * alpha_sq / (1.0 + root), np.conj(mu1))
    return mu1, mu2


def exponents(alpha: float, B: float) -> Exponents:
    """Temporal rates mu1, mu2 for a mode of spatial frequency alpha.

    B = 0 is the degenerate parabolic branch: mu1 diverges to -inf and
    mu2 -> -alpha^2 (the classical diffusive decay rate).
    """
    if not alpha > 0:
        raise InvalidInput("alpha must be strictly positive")
    if B < 0:
        raise InvalidInput("B must be non-negative")
    return Exponents(*(complex(mu) for mu in _rates(np.asarray(alpha, dtype=float), B)))


# the parts of the secular equation at each alpha, NaN outside their domain
Secular = namedtuple("Secular", "re im f1 f2")


def secular(alpha: np.ndarray, p: Params) -> Secular:
    """The secular equation on an array of alpha > 0, with no pole guard.

    With q = 4 alpha^2 B - 1 and den = (2B - A)^2 + A^2 q:

    * re = tan(alpha/2)/alpha + L 2B(2B - A)/den continues the real part to
      every alpha; the kinetic term is +-inf at kinetic_pole(p).
    * im = 2BA sqrt(q)/den above alpha_c (+ sign convention), NaN below.
    * f1, f2 = tan(alpha/2)/alpha + L/(1 + mu A), with the real rate mu1 or
      mu2, below alpha_c; NaN above.
    """
    A, B, L = p.A, p.B, p.L
    re, tan_term, q, den = _real_part(alpha, p)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        below = q <= 0.0
        f1, f2 = np.full(q.shape, np.nan), np.full(q.shape, np.nan)
        for f, mu in zip((f1, f2), _rates(alpha[below], B)):
            f[below] = tan_term[below] + L / (1.0 + mu.real * A)
        return Secular(re, 2.0 * B * A * np.sqrt(q) / den, f1, f2)


def _real_part(alpha: np.ndarray, p: Params):
    """re of the secular equation, with the terms tan(alpha/2)/alpha, q and den it shares.

    The root scan and the bisection read re alone; ``secular`` builds its
    other parts from the shared terms.
    """
    A, B, L = p.A, p.B, p.L
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tan_term = np.tan(0.5 * alpha) / alpha
        q = 4.0 * alpha**2 * B - 1.0
        den = (2.0 * B - A) ** 2 + A**2 * q
        return tan_term + L * 2.0 * B * (2.0 * B - A) / den, tan_term, q, den


def _in_guard_band(alpha):
    """True where alpha lies within TAN_POLE_GUARD of a pole of tan(alpha/2)."""
    pole = (2.0 * np.round((alpha / np.pi - 1.0) / 2.0) + 1.0) * np.pi
    return np.abs(alpha - pole) < TAN_POLE_GUARD


def kinetic_pole(p: Params) -> float | None:
    """Location of the kinetic-term pole, or None when it does not exist."""
    if p.A > p.B:
        return math.sqrt(p.A - p.B) / p.A
    return None


def _scan(p: Params, count: int) -> np.ndarray:
    """Ascending scan points of the first ``count`` anchor intervals.

    Interval m runs between the tan poles around 2 m pi, each moved in by
    SEED_MARGIN pi: SCAN_POINTS even points, plus geometric refinement on
    both sides of the kinetic pole in the interval holding it.
    """
    m = np.arange(1, count + 1)
    lo = (2 * m - 1) * math.pi + SEED_MARGIN * math.pi
    hi = (2 * m + 1) * math.pi - SEED_MARGIN * math.pi
    alpha = np.linspace(lo, hi, SCAN_POINTS, axis=1).ravel()
    pole = kinetic_pole(p)
    host = (lo < pole) & (pole < hi) if pole is not None else np.zeros(count, bool)
    if host.any():
        offsets = np.geomspace(1e-9, 0.5, 24)
        extra = np.concatenate([pole - offsets, pole + offsets])
        alpha = np.sort(np.concatenate([alpha, extra[(extra > lo[host]) & (extra < hi[host])]]))
    return alpha


def bisect(f, a: np.ndarray, b: np.ndarray, fa: np.ndarray, tol: float = BRACKET_TOL) -> np.ndarray:
    """Bisect every sign-change bracket [a, b] of the array function f together.

    Unconditionally convergent: each bracket halves until narrower than tol,
    or until its ends are adjacent floats, and returns its midpoint, or
    returns the first midpoint where f is exactly 0.  Only the sign of fa,
    f at a, is read.
    """
    roots = np.empty_like(a)
    live = np.arange(a.size)
    while True:
        mid = 0.5 * (a + b)
        # where the float spacing exceeds tol (above 2^13 for BRACKET_TOL) a
        # bracket of two adjacent floats has its midpoint on one of its ends
        wide = (b - a > tol) & (mid != a) & (mid != b)
        roots[live[~wide]] = mid[~wide]
        live, a, b, fa, mid = live[wide], a[wide], b[wide], fa[wide], mid[wide]
        if not live.size:
            return roots
        fm = f(mid)
        # an exact zero closes its bracket on mid, whose midpoint is mid again
        hit = fm == 0.0
        left = (fa < 0.0) != (fm < 0.0)
        a = np.where(left & ~hit, a, mid)
        b = np.where(left | hit, mid, b)
        fa = np.where(left, fa, fm)


def find_eigenvalues(p: Params, count: int = DEFAULT_MODE_COUNT) -> list[Mode]:
    """First ``count`` roots of the continued secular equation, ascending.

    Each anchor interval yields a root or raises, so the first ``count`` are
    scanned together; the one holding the kinetic pole may yield two.  Sign
    changes across an interval boundary or the kinetic pole are blow-ups,
    not roots.  Roots within CRITICAL_NUDGE of alpha_c are pushed off the
    degenerate point so both exponents stay distinct.
    """
    if count < 1:
        raise InvalidInput("count must be at least 1")
    if not p.B > 0:
        raise InvalidInput("the eigenvalue set requires B > 0")
    alpha = _scan(p, count)
    # the anchor interval m of a scan point is the one around the nearest 2 m pi
    index = np.rint(alpha / (2.0 * math.pi)).astype(int)
    values = _real_part(alpha, p)[0]
    fa, fb = values[:-1], values[1:]
    usable = (index[:-1] == index[1:]) & np.isfinite(fa) & np.isfinite(fb)
    pole = kinetic_pole(p)
    if pole is not None:
        usable &= ~((alpha[:-1] < pole) & (pole < alpha[1:]))
    change = usable & (fa * fb < 0.0)
    cells = np.flatnonzero(change | (usable & (fa == 0.0)))
    found = np.bincount(index[cells], minlength=count + 1)[1:]
    empty = (found == 0) & (np.cumsum(found) - found < count)
    if empty.any():
        m = int(np.argmax(empty)) + 1
        raise BracketingError(
            f"no sign change of the secular equation inside anchor interval m={m}"
            f" (({2 * m - 1}pi, {2 * m + 1}pi)) for {p}"
        )
    cells = cells[:count]
    roots, bisected = alpha[cells], change[cells]
    left = cells[bisected]
    roots[bisected] = bisect(lambda x: _real_part(x, p)[0], alpha[left], alpha[left + 1],
                             fa[left])
    a_c = alpha_critical(p)
    roots = np.where(np.abs(roots - a_c) < CRITICAL_NUDGE, a_c + CRITICAL_NUDGE, roots)
    rates = zip(*(mu.tolist() for mu in _rates(roots, p.B)))
    return [
        Mode(a, Exponents(*mu), index=m)
        for a, mu, m in zip(roots.tolist(), rates, index[cells].tolist())
    ]


def eigen_grid(p: Params, alphas) -> dict[str, np.ndarray]:
    """The secular functions on an array of alpha, one column each.

    Returns columns alpha, f1, f2, re_E, im_E.  re_E and im_E are the real
    and imaginary parts of the continued equation (im_E with the + sign
    convention, 0 up to alpha_c); f1 and f2 are the real-branch equations,
    NaN above alpha_c.  Every column is NaN for alpha <= 0 and inside the
    tan-pole guard band.
    """
    alphas = np.asarray(alphas, dtype=float)
    at = secular(alphas, p)
    a_c = alpha_critical(p)
    defined = (alphas > 0) & ~_in_guard_band(alphas)
    return {
        "alpha": alphas,
        "f1": np.where(defined, at.f1, np.nan),
        "f2": np.where(defined, at.f2, np.nan),
        "re_E": np.where(defined, at.re, np.nan),
        "im_E": np.where(defined, np.where(alphas <= a_c, 0.0, at.im), np.nan),
    }
