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

The rates and the secular equation are each written once, as array
functions: ``_rates`` gives mu1 and mu2 of every alpha, and ``_real_part``
gives the real part of the continued equation with the terms it shares.
The root search reads ``_real_part`` alone; ``eigen_grid``, the one public
evaluator of the secular functions, builds the other parts from the shared
terms and masks their undefined entries with NaN rather than raising.

``find_eigenvalues`` searches the first ``count`` anchor intervals
((2m - 1) pi, (2m + 1) pi), m = 1, 2, ..., each split at breakpoints found
in closed form.  With c = L(2B - A)/2 and d = B - A, den = 4B(d + A^2 alpha^2),
so re = 0 reads tan(alpha/2) = R(alpha) with R = -c alpha/(d + A^2 alpha^2).
On interval m, where alpha/2 - m pi lies in (-pi/2, pi/2), that is

    G(alpha) = alpha/2 - m pi - arctan R(alpha) = 0,

and re has the sign of G.  Its slope,

    G' = 1/2 - R'/(1 + R^2) = 1/2 + c (d - A^2 alpha^2)/((d + A^2 alpha^2)^2 + c^2 alpha^2),

has the sign of

    P(x) = A^4 x^2 + (2 d A^2 + c^2 - 2 c A^2) x + d (d + 2c),   x = alpha^2,

a quadratic, so G' changes sign at no more than two points, sqrt(x1) and
sqrt(x2).  The breakpoints of interval m are

* its tan poles, where re tends to -inf (right of (2m - 1) pi) and +inf
  (left of (2m + 1) pi);
* the kinetic pole sqrt(-d)/A, only when d < 0 and c != 0, where re tends
  to -inf times the sign of c on its left and +inf times it on its right;
* sqrt(x1) and sqrt(x2), where they fall inside the interval.

G is continuous and monotone on each piece between breakpoints, so a piece
holds a root exactly when re (or its one-sided limit) has opposite signs at
its two ends.  An interval with no inner breakpoint holds exactly one root.
``rootfind.bracketed_roots`` solves every such piece together: Newton
steps on G, which is smooth there, put each root within reach, and a sign
change of re itself across a bracket of BRACKET_TOL certifies it.
``poles`` finds the roots of its own secular equation with the same solver.
"""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

from .errors import BracketingError, ConfigError, InvalidInput
from .params import Params, alpha_critical, require_relaxation
from .rootfind import bracketed_roots, half_turns

# eigen_grid masks alpha this close to a pole of tan(alpha/2)
TAN_POLE_GUARD = 1e-8
# a root is certified by a sign change of re across a bracket narrower
# than this, or across two adjacent floats
BRACKET_TOL = 1e-12
# roots this close to alpha_c are nudged off the degenerate point
CRITICAL_NUDGE = 1e-9

DEFAULT_MODE_COUNT = 50


class Roots(np.recarray):
    """The roots as one record of arrays: columns alpha, index, mu1 and mu2.

    index is the ordinal m of the anchor interval each root was bracketed
    in; mu1 and mu2 are its rates from ``_rates``.  A row reads as a record
    (roots[-1].index), and the record is true when it holds a root, as a
    sequence is.
    """

    def __bool__(self) -> bool:
        return self.size > 0


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


def _real_part(alpha: np.ndarray, p: Params):
    """re of the secular equation, with the terms tan(alpha/2)/alpha, q and den it shares.

    The breakpoint signs and the root certificates read re; ``eigen_grid`` builds
    the other parts of the secular equation from the shared terms.
    """
    A, B, L = p.A, p.B, p.L
    # products, not float **, which raises OverflowError where * gives inf
    k = 2.0 * B - A
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tan_term = np.tan(0.5 * alpha) / alpha
        q = 4.0 * alpha**2 * B - 1.0
        den = k * k + A * A * q
        return tan_term + L * 2.0 * B * k / den, tan_term, q, den


def _arctan_form(alpha: np.ndarray, m: np.ndarray, p: Params) -> tuple[np.ndarray, np.ndarray]:
    """G = alpha/2 - m pi - arctan R on anchor interval m, and its slope G' (module docstring)."""
    A, B, L = p.A, p.B, p.L
    c, d = 0.5 * L * (2.0 * B - A), B - A
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y = (A * alpha) ** 2
        den = d + y
        G = half_turns(alpha, m) - np.arctan(-c * alpha / den)
        return G, 0.5 + c * (d - y) / (den * den + (c * alpha) ** 2)


def _in_guard_band(alpha):
    """True where alpha lies within TAN_POLE_GUARD of a pole of tan(alpha/2)."""
    pole = (2.0 * np.round((alpha / np.pi - 1.0) / 2.0) + 1.0) * np.pi
    return np.abs(alpha - pole) < TAN_POLE_GUARD


def kinetic_pole(p: Params) -> float | None:
    """Location of the kinetic-term pole, or None when it does not exist.

    den vanishes at sqrt(A - B)/A when A > B, but at L = 0 or A = 2B the
    kinetic term L 2B(2B - A)/den is identically 0 and has no pole.
    """
    if p.A > p.B and p.L != 0.0 and p.A != 2.0 * p.B:
        return math.sqrt(p.A - p.B) / p.A
    return None


def _breakpoints(p: Params) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The inner breakpoints alpha > 0 and re just left and just right of each.

    They are the kinetic pole, with re's one-sided limits -+inf, and the
    positive roots of P, with re's value there on both sides (see the
    module docstring); none at c = 0, where G is alpha/2 - m pi.
    """
    A, B, L = p.A, p.B, p.L
    c, d = 0.5 * L * (2.0 * B - A), B - A
    if c == 0.0:
        return np.empty(0), np.empty(0), np.empty(0)
    a4 = (A * A) * (A * A)
    b = 2.0 * d * A * A + c * c - 2.0 * c * A * A
    e = d * (d + 2.0 * c)
    disc = b * b - 4.0 * a4 * e
    x = []
    if disc > 0.0:
        # the stable pair of roots; e/q stays finite where A^4 underflows to 0
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        x = [e / q, q / a4] if a4 else [e / q]
    at = np.array([math.sqrt(v) for v in x if v > 0.0])
    left = right = _real_part(at, p)[0]
    pole = kinetic_pole(p)
    if pole is not None:
        at = np.append(at, pole)
        left = np.append(left, -math.copysign(math.inf, c))
        right = np.append(right, math.copysign(math.inf, c))
    return at, left, right


def check_params(p: Params, what: str = "the eigenvalue set") -> None:
    """ConfigError unless p has roots for what: B > 0 (params.require_relaxation) and finite A^2."""
    require_relaxation(p.B, what)
    if p.A * p.A == math.inf:
        # den = (2B - A)^2 + A^2 q is then inf - inf wherever q < 0
        raise ConfigError(f"{what} requires a finite A^2, got A = {p.A!r}")


def find_eigenvalues(p: Params, count: int = DEFAULT_MODE_COUNT) -> Roots:
    """First ``count`` roots of the continued secular equation, ascending.

    Returns one record of ``count`` rows (see ``Roots``): each root alpha,
    the index m of its anchor interval, and its rates mu1 and mu2.

    Anchor intervals m = 1, ..., count are split at their breakpoints (see
    the module docstring); a piece whose ends carry opposite signs of re
    holds one root, and ``rootfind.bracketed_roots`` solves every such
    piece in one call: Newton on the arctan form G, then a sign change of re
    within BRACKET_TOL.  Each interval yields at least one root (the one
    holding the kinetic pole may yield two) or raises BracketingError.
    Roots within CRITICAL_NUDGE of alpha_c are pushed off the degenerate
    point so both exponents stay distinct.  check_params refuses p first.
    """
    check_params(p)
    if not isinstance(count, Integral) or count < 1:
        raise InvalidInput(f"count must be an integer of at least 1, got {count!r}")
    m = np.arange(1, count + 1)
    lo, hi = (2 * m - 1) * math.pi, (2 * m + 1) * math.pi
    at, left, right = _breakpoints(p)
    host = np.minimum(np.searchsorted(hi, at), count - 1)
    inner = (lo[host] < at) & (at < hi[host])
    # every breakpoint with its interval, ordered by interval, then position;
    # the float (2m + 1) pi ends interval m and starts m + 1, so the interval
    # is carried, not derived from alpha
    owner = np.concatenate((m, m[host[inner]], m))
    ends = np.concatenate((lo, at[inner], hi))
    order = np.lexsort((ends, owner))
    inf = np.full(count, np.inf)
    before, after = (np.concatenate((-inf, f[inner], inf))[order] for f in (left, right))
    owner, ends = owner[order], ends[order]
    holds = (owner[:-1] == owner[1:]) & ((after[:-1] < 0.0) != (before[1:] < 0.0))
    found = np.bincount(owner[:-1][holds], minlength=count + 1)[1:]
    empty = (found == 0) & (np.cumsum(found) - found < count)
    if empty.any():
        bad = int(np.argmax(empty)) + 1
        raise BracketingError(
            f"no sign change of the secular equation inside anchor interval m={bad}"
            f" (({2 * bad - 1}pi, {2 * bad + 1}pi)) for {p}"
        )
    piece = np.flatnonzero(holds)[:count]
    index = owner[piece]
    roots = bracketed_roots(lambda x: _real_part(x, p)[0], lambda x, i: _arctan_form(x, index[i], p),
                            ends[piece], ends[piece + 1], after[piece], BRACKET_TOL)
    a_c = alpha_critical(p)
    roots = np.where(np.abs(roots - a_c) < CRITICAL_NUDGE, a_c + CRITICAL_NUDGE, roots)
    columns = (roots, index, *_rates(roots, p.B))
    return np.rec.fromarrays(columns, names="alpha,index,mu1,mu2").view(Roots)


def eigen_grid(p: Params, alphas) -> dict[str, np.ndarray]:
    """The secular functions on an array of alpha, one column each.

    Returns columns alpha, f1, f2, re_E, im_E.  With q = 4 alpha^2 B - 1 and
    den = (2B - A)^2 + A^2 q:

    * re_E = tan(alpha/2)/alpha + L 2B(2B - A)/den, from ``_real_part``,
      continues the real part to every alpha; the kinetic term is +-inf at
      kinetic_pole(p).
    * im_E = 2BA sqrt(q)/den above alpha_c (+ sign convention), 0 up to it.
    * f1, f2 = tan(alpha/2)/alpha + L/(1 + mu A), with the real rate mu1 or
      mu2, are the real-branch equations below alpha_c; NaN above.

    Every column is NaN for alpha <= 0 and inside the tan-pole guard band.
    """
    alphas = np.asarray(alphas, dtype=float)
    A, B, L = p.A, p.B, p.L
    re, tan_term, q, den = _real_part(alphas, p)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        below = q <= 0.0
        f1, f2 = np.full(q.shape, np.nan), np.full(q.shape, np.nan)
        for f, mu in zip((f1, f2), _rates(alphas[below], B)):
            f[below] = tan_term[below] + L / (1.0 + mu.real * A)
        im = 2.0 * B * A * np.sqrt(q) / den
    a_c = alpha_critical(p)
    defined = (alphas > 0) & ~_in_guard_band(alphas)
    return {
        "alpha": alphas,
        "f1": np.where(defined, f1, np.nan),
        "f2": np.where(defined, f2, np.nan),
        "re_E": np.where(defined, re, np.nan),
        "im_E": np.where(defined, np.where(alphas <= a_c, 0.0, im), np.nan),
    }
