"""The package's one bracketed root finder, ``bracketed_roots``.

``eigen`` and ``poles`` each cut their secular equation f into brackets
that hold one root, and give with f a smooth form that has f's sign and is
monotone on each bracket: x/2 - n pi less a phase (the arctan form G of
``eigen``, the phase H of ``poles``).  ``half_turns`` takes x/2 - n pi with
pi split in two floats, so that the form is as exact as its phase.
"""

from __future__ import annotations

import numpy as np

# pi as _PI_HI + _PI_LO: _PI_HI has 33 significant bits, so n _PI_HI is
# exact for n < 2^20, and _PI_LO is the nearest float to pi - _PI_HI
_PI_HI = float.fromhex("0x1.921fb544p+1")
_PI_LO = float.fromhex("0x1.0b4611a626331p-33")


def half_turns(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """x/2 - n pi with n pi split in two.

    The first difference is exact where x/2 lies within a factor 2 of n pi
    (or n = 0), as on every interval of ``eigen`` and ``poles``.
    """
    return (0.5 * x - n * _PI_HI) - n * _PI_LO


def bracketed_roots(f, form, a: np.ndarray, b: np.ndarray, fa: np.ndarray, tol: float) -> np.ndarray:
    """The root of the array function f in every sign-change bracket [a, b], found together.

    form(x, i) gives, at x in brackets i, a smooth form of f that has the
    sign of f and is monotone on each bracket, and its slope.  Safeguarded
    Newton on the form (``_newton``) puts an x next to each root, and
    ``_close`` closes each bracket on a sign change of f next to x.  So every
    root is certified by f itself, whatever the form's rounding: it is the
    midpoint of a bracket no wider than tol, or of two adjacent floats,
    across which f changes sign, or a point where f is 0.  Only the sign of
    fa, f at a, is read, and neither f nor the form is evaluated at a or b.
    """
    x = _newton(form, a, b, fa, tol)
    return _close(f, x, a, b, fa, tol)


def _newton(form, a, b, fa, tol):
    """Newton on form from each bracket's midpoint, kept inside the bracket.

    Each pass narrows the bracket to the side of x holding the root.  The
    next x is the Newton step when it stays inside the bracket and is at
    most half the step before last, and the bracket's midpoint otherwise,
    so the bracket shrinks at least as fast as bisection's every two
    passes.  A root stops once its step is within tol/4, or once a Newton
    step s following a step t has s^2/t within tol/4: the next step, at
    the last ratio s/t or faster, would be.  A bracket shrinks with every
    pass that does not stop its root, so every root stops, whatever the
    form's rounding.
    """
    x = 0.5 * (a + b)
    out = np.empty_like(x)
    live = np.arange(x.size)
    neg = fa < 0.0
    last = before = b - a
    with np.errstate(divide="ignore", invalid="ignore"):
        while live.size:
            g, slope = form(x, live)
            left = (g < 0.0) != neg
            a, b = np.where(left, a, x), np.where(left, x, b)
            new = x - g / slope
            step = np.abs(new - x)
            # a step that rounds to 0 keeps x, which is now a or b
            newton = (((a < new) & (new < b)) | (step == 0.0)) & (step <= 0.5 * before)
            new = np.where(newton, new, 0.5 * (a + b))
            step = np.abs(new - x)
            done = (step <= 0.25 * tol) | (newton & (step * step <= 0.25 * tol * last))
            out[live[done]] = new[done]
            keep = ~done
            live, x, a, b, neg = live[keep], new[keep], a[keep], b[keep], neg[keep]
            last, before = step[keep], last[keep]
    return out


def _close(f, x, a, b, fa, tol):
    """Close each bracket [a, b] on a sign change of f next to x.

    The first cut is at x, the next tol/4 (and at least one float) away on
    the root's side, and each later one 4 times further from x, until a
    cut lands past the root or would leave the bracket; the bracket is
    then bisected.  A bracket closes on its midpoint once narrower than tol
    or once its ends are adjacent floats, and on a cut where f is exactly
    0.  Only the sign of fa, f at a, is read.
    """
    roots = np.empty_like(x)
    live = np.arange(x.size)
    cut, galloping = x, np.ones(x.size, bool)
    first = np.maximum(0.25 * tol, np.spacing(x))
    while True:
        mid = 0.5 * (a + b)
        # where the float spacing exceeds tol (above 2^13 for BRACKET_TOL) a
        # bracket of two adjacent floats has its midpoint on one of its ends
        wide = (b - a > tol) & (mid != a) & (mid != b)
        roots[live[~wide]] = mid[~wide]
        live, x, a, b, fa, cut, galloping, first = (
            v[wide] for v in (live, x, a, b, fa, cut, galloping, first))
        if not live.size:
            return roots
        fc = f(cut)
        # an exact zero closes its bracket on the cut
        hit = fc == 0.0
        right = (fc < 0.0) == (fa < 0.0)
        a = np.where(right | hit, cut, a)
        b = np.where(right & ~hit, b, cut)
        fa = np.where(right, fc, fa)
        galloping &= (cut == x) | (right == (cut > x))
        ahead = x + np.where(cut == x, np.where(right, first, -first), 4.0 * (cut - x))
        galloping &= (a < ahead) & (ahead < b)
        cut = np.where(galloping, ahead, 0.5 * (a + b))
