"""Characteristic exponents and the secular eigenvalue problem."""

import math
import signal
from collections import namedtuple

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hypersorb.eigen as eigen
import hypersorb.rootfind as rootfind
from hypersorb import poles
from hypersorb.cli import MAX_MODES
from hypersorb.eigen import eigen_grid, find_eigenvalues, kinetic_pole
from hypersorb.errors import BracketingError, InvalidInput
from hypersorb.params import Params, alpha_critical, step_ic
from conftest import ACCEPTANCE_SETS, MODE_REGIMES

Rates = namedtuple("Rates", "mu1 mu2")


def rates(alpha, B):
    """mu1 and mu2 of one alpha, read from the array function eigen._rates."""
    return Rates(*(complex(mu) for mu in eigen._rates(np.asarray(alpha, dtype=float), B)))


class TestExponents:
    def test_parabolic_limit(self):
        # fixed alpha, B -> 0: mu1 ~ -1/B, mu2 -> -alpha^2, with the leading
        # finite-B correction of relative size alpha^2 B
        alpha = 5.0
        for B in (1e-4, 1e-6, 1e-8):
            mu = rates(alpha, B)
            assert abs(mu.mu1.real * B + 1.0) <= 2 * alpha**2 * B
            assert abs(mu.mu2.real + alpha**2) <= 2 * alpha**4 * B
        sentinel = rates(alpha, 0.0)
        assert sentinel.mu1.real == -math.inf
        assert sentinel.mu2 == complex(-25.0, 0.0)

    def test_oscillatory_landmark(self):
        # alpha = 2 pi, B = 0.1: rates -5 +- 19.23i; oracle at 50 digits
        mpmath.mp.dps = 50
        alpha, B = 2 * math.pi, 0.1
        w = mpmath.sqrt(4 * mpmath.mpf(alpha) ** 2 * mpmath.mpf("0.1") - 1)
        expected = complex(-5.0, -float(w / (2 * mpmath.mpf("0.1"))))
        mu = rates(alpha, B)
        assert mu.mu1.real == pytest.approx(expected.real, rel=1e-12)
        assert mu.mu1.imag == pytest.approx(expected.imag, rel=1e-12)
        assert abs(mu.mu1.imag) == pytest.approx(19.23, abs=0.01)
        assert mu.mu2 == mu.mu1.conjugate()

    def test_critical_point_double_root(self):
        B = 0.04
        alpha_c = 0.5 / math.sqrt(B)
        mu = rates(alpha_c, B)
        assert mu.mu1 == mu.mu2 == complex(-0.5 / B, 0.0)

    @given(
        alpha=st.floats(min_value=0.1, max_value=300),
        B=st.floats(min_value=1e-6, max_value=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_vieta_identities(self, alpha, B):
        mu = rates(alpha, B)
        prod = mu.mu1 * mu.mu2
        total = mu.mu1 + mu.mu2
        assert abs(prod - alpha**2 / B) <= 1e-10 * abs(prod)
        assert abs(total + 1.0 / B) <= 1e-10 * abs(total)

    @given(B=st.floats(min_value=1e-5, max_value=1.0), frac=st.floats(min_value=1.01, max_value=50))
    @settings(max_examples=100, deadline=None)
    def test_conjugate_above_critical(self, B, frac):
        alpha = frac * 0.5 / math.sqrt(B)
        mu = rates(alpha, B)
        assert mu.mu2 == mu.mu1.conjugate()
        assert mu.mu1.real == -0.5 / B

    def test_nonpositive_real_part(self):
        for alpha, B in [(1.0, 0.5), (50.0, 1e-3), (3.0, 0.1)]:
            mu = rates(alpha, B)
            assert mu.mu1.real < 0 and mu.mu2.real < 0


class TestRealBranchEquations:
    def test_small_alpha_parabolic_branch(self):
        # B = 0: tan(a/2)/a -> 1/2, mu2 -> -a^2, so f2 -> 1/2 + L/(1 - a^2 A)
        p = Params(A=0.5, B=0.0, L=0.1, N0=1.0)
        a = 1e-5
        tab = eigen_grid(p, [a])
        assert tab["f2"][0] == pytest.approx(0.5 + 0.1 / (1 - a * a * 0.5), rel=1e-8)
        # mu1 -> -inf kills the kinetic term of the first family
        assert tab["f1"][0] == pytest.approx(0.5, rel=1e-8)

    def test_sign_change_near_anchors(self, secular_landmark_params):
        # the real branch only exists below alpha_c ~ 15.8: anchors m = 1, 2
        p = secular_landmark_params
        for m in (1, 2):
            anchor = 2 * m * math.pi
            tab = eigen_grid(p, np.linspace(anchor - 0.5, anchor + 0.5, 801))
            for name in ("f1", "f2"):
                vals = tab[name]
                assert np.min(vals) < 0 < np.max(vals), f"{name} m={m}"
        # the continuation keeps changing sign near every anchor, m = 1..5
        for m in range(1, 6):
            anchor = 2 * m * math.pi
            grid = np.linspace(anchor - 0.5, anchor + 0.5, 801)
            vals = eigen_grid(p, grid)["re_E"]
            assert np.min(vals) < 0 < np.max(vals)


class TestComplexBranch:
    def test_kinetic_term_vanishes_at_a_equal_2b(self):
        p = Params(A=0.2, B=0.1, L=5.0, N0=1.0)
        tab = eigen_grid(p, [7.0, 20.0, 33.3])
        for alpha, re in zip(tab["alpha"], tab["re_E"]):
            assert re == pytest.approx(math.tan(alpha / 2) / alpha, rel=1e-14)

    def test_imaginary_part_never_vanishes(self, secular_landmark_params):
        p = secular_landmark_params
        a_c = alpha_critical(p)
        grid = np.arange(a_c + 1e-3, 100.0, 1e-3)
        pole_dist = np.abs(grid - (2 * np.round((grid / np.pi - 1) / 2) + 1) * np.pi)
        grid = grid[pole_dist > 1e-6]
        vals = eigen_grid(p, grid[:: max(1, grid.size // 5000)])["im_E"]
        assert np.all(vals > 0)

    def test_real_dominates_away_from_roots(self, secular_landmark_params):
        p = secular_landmark_params
        modes = find_eigenvalues(p, 16)
        roots = np.array([m.alpha for m in modes])
        grid = np.linspace(alpha_critical(p) + 0.05, 100.0, 5000)
        tab = eigen_grid(p, grid)
        away = np.ones(grid.size, bool)
        for r in roots:
            away &= np.abs(grid - r) > 0.5
        ok = away & np.isfinite(tab["re_E"]) & (tab["im_E"] > 0)
        ratio = np.abs(tab["re_E"][ok]) / tab["im_E"][ok]
        assert ratio.min() > 3.0
        assert np.median(ratio) > 10.0

    def test_below_critical_is_zero(self, secular_landmark_params):
        assert eigen_grid(secular_landmark_params, [1.0])["im_E"][0] == 0.0

    def test_continuation_matches_real_average(self, secular_landmark_params):
        # below alpha_c the continued equation equals (f1 + f2)/2
        tab = eigen_grid(secular_landmark_params, [2.0, 6.3, 12.5, 15.0])
        for re, f1, f2 in zip(tab["re_E"], tab["f1"], tab["f2"]):
            assert re == pytest.approx(0.5 * (f1 + f2), rel=1e-12)


class TestFindEigenvalues:
    def test_roots_near_anchors(self, secular_landmark_params):
        modes = find_eigenvalues(secular_landmark_params, 10)
        for m in modes:
            assert abs(m.alpha - 2 * m.index * math.pi) < 0.5

    def test_inert_wall_limit(self):
        p = Params(A=0.5, B=1e-3, L=1e-12, N0=1.0)
        modes = find_eigenvalues(p, 6)
        for m in modes:
            assert abs(m.alpha - 2 * m.index * math.pi) < 1e-9

    def test_ordering_and_positivity(self, oscillatory_params):
        modes = find_eigenvalues(oscillatory_params, 30)
        alphas = [m.alpha for m in modes]
        assert all(a > 0 for a in alphas)
        assert all(b > a for a, b in zip(alphas, alphas[1:]))

    def test_each_root_is_a_sign_change(self, oscillatory_params):
        eps = 1e-8
        for m in find_eigenvalues(oscillatory_params, 12):
            lo, hi = eigen_grid(oscillatory_params, [m.alpha - eps, m.alpha + eps])["re_E"]
            assert lo * hi < 0

    def test_vieta_on_returned_modes(self, oscillatory_params):
        p = oscillatory_params
        for m in find_eigenvalues(p, 20):
            prod = m.mu1 * m.mu2
            total = m.mu1 + m.mu2
            assert abs(prod - m.alpha**2 / p.B) <= 1e-10 * abs(prod)
            assert abs(total + 1.0 / p.B) <= 1e-10 * abs(total)

    def test_real_branch_count_matches_critical_point(self, secular_landmark_params):
        # only the anchors below alpha_c produce overdamped modes
        p = secular_landmark_params
        a_c = alpha_critical(p)
        modes = find_eigenvalues(p, 10)
        is_real = modes.mu1.imag == 0
        assert np.array_equal(is_real, modes.alpha < a_c)
        assert np.count_nonzero(is_real) == 2

    def test_kinetic_pole_interval_keeps_both_roots(self):
        # A > B puts a kinetic pole at sqrt(A-B)/A; when it falls inside an
        # anchor interval that interval carries two genuine roots
        p = Params(A=0.01, B=1e-3, L=1.0, N0=3.0)
        pole = kinetic_pole(p)
        assert pole == pytest.approx(math.sqrt(0.009) / 0.01, rel=1e-12)
        modes = find_eigenvalues(p, 6)
        in_pole_interval = [m for m in modes if m.index == 2]
        assert len(in_pole_interval) == 2
        for m in modes:
            lo, hi = eigen_grid(p, [m.alpha - 1e-8, m.alpha + 1e-8])["re_E"]
            assert lo * hi < 0

    def test_invalid_requests(self, oscillatory_params):
        with pytest.raises(InvalidInput):
            find_eigenvalues(oscillatory_params, 0)
        with pytest.raises(InvalidInput):
            find_eigenvalues(Params(A=1, B=0.0, L=1, N0=1), 5)

    @pytest.mark.parametrize("B", [0.1, 1e-3])
    @pytest.mark.parametrize("A", [1e100, 1e300, 1.7e308])
    def test_extreme_A_returns_or_refuses(self, A, B):
        # float ** raises OverflowError where * gives inf, and the suite turns
        # numpy's overflow warnings into errors.  At A = 1e100 the walls are
        # all but inert and the roots are tan(alpha/2) = 0's; past the
        # overflow of A^2 the kinetic term is inf - inf below alpha_c.  At
        # 1.7e308 even A beta^2 overflows in the pole sum
        p = Params(A=A, B=B, L=1.0, N0=3.0)
        if A * A < math.inf:
            roots = find_eigenvalues(p, 50)
            assert np.max(np.abs(roots.alpha - 2.0 * math.pi * np.arange(1, 51))) < 1e-9
        else:
            with pytest.raises(InvalidInput, match="finite A\\^2"):
                find_eigenvalues(p, 50)
        # the exact B = 0 sum: walls that adsorb nothing within the horizon
        series = poles.to_series(p, step_ic(), np.linspace(0.0, 2.0, 801), probes=[0.0])
        assert np.all(series.sigma == 0.0)
        assert np.max(np.abs(series.probes[0.0] - p.N0)) <= 1e-15 * p.N0

    @pytest.mark.parametrize("count", [2.5, math.nan])
    def test_non_integer_count_is_refused(self, oscillatory_params, count):
        with pytest.raises(InvalidInput, match="integer"):
            find_eigenvalues(oscillatory_params, count)

    def test_numpy_integer_count(self, oscillatory_params):
        roots = find_eigenvalues(oscillatory_params, np.int64(3))
        assert len(roots) == 3
        assert roots.alpha.tobytes() == find_eigenvalues(oscillatory_params, 3).alpha.tobytes()

    def test_most_modes_the_cli_accepts(self):
        # past alpha = 2^13 the float spacing exceeds the bracket tolerance,
        # so brackets close on adjacent floats; the alarm turns a root
        # search that never closes into a failure instead of a hung suite
        def hung(signum, frame):
            raise TimeoutError(f"find_eigenvalues(p, {MAX_MODES}) still running after 20 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            modes = find_eigenvalues(Params(A=1e-3, B=0.1, L=1.0, N0=3.0), MAX_MODES)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        alphas = np.array([m.alpha for m in modes])
        assert alphas.size == MAX_MODES and alphas[-1] > 2.0**13
        assert np.all(np.diff(alphas) > 0)

    def test_bracketing_failure_reported(self):
        # A < 2B puts re at -inf left of the kinetic pole (13.38, in anchor
        # interval 2) and at +inf right of it, and nothing in between turns
        # re back: the interval holds no root
        p = Params(A=0.00103, B=0.00084, L=9.67, N0=3.0)
        assert 3 * math.pi < kinetic_pole(p) < 5 * math.pi
        with pytest.raises(BracketingError, match="m=2 "):
            find_eigenvalues(p, 3)

    @pytest.mark.parametrize("A, B, L", [(0.02, 0.01, 0.0), (0.02, 0.01, 1.0), (0.5, 1e-3, 0.0)])
    def test_no_kinetic_pole_without_a_kinetic_term(self, A, B, L):
        # A > B, but L = 0 or A = 2B zeroes the kinetic term: re is
        # tan(alpha/2)/alpha, with its roots at 2 m pi, one an interval
        p = Params(A=A, B=B, L=L, N0=3.0)
        assert kinetic_pole(p) is None
        modes = find_eigenvalues(p, 6)
        assert [m.index for m in modes] == [1, 2, 3, 4, 5, 6]
        for m in modes:
            assert abs(m.alpha - 2 * m.index * math.pi) <= eigen.BRACKET_TOL

    def test_root_next_to_a_tan_pole(self):
        # the root of anchor interval 103 lies 3.1e-6 right of the tan pole
        # 205 pi, closer than the 1e-6 pi by which bracket seeds once sat
        # inside the poles; a 30-digit evaluation shows re changing sign
        # across it
        p = Params(A=1e-4, B=1.0, L=1000.0, N0=3.0)
        (alpha,) = [m.alpha for m in find_eigenvalues(p, 200) if m.index == 103]
        assert 0.0 < alpha - 205 * math.pi < 1e-6 * math.pi
        with mpmath.workdps(30):
            A, B, L = (mpmath.mpf(v) for v in (p.A, p.B, p.L))

            def re(a):
                a = mpmath.mpf(a)
                den = (2 * B - A) ** 2 + A**2 * (4 * a**2 * B - 1)
                return mpmath.tan(a / 2) / a + L * 2 * B * (2 * B - A) / den

            assert re(alpha - 1e-11) < 0 < re(alpha + 1e-11)

    def test_breakpoints_of_the_slope_split_an_interval(self):
        # G' changes sign twice right of the kinetic pole (4.154): G falls
        # from +inf to a negative minimum and rises to +inf again, so anchor
        # interval 1 holds two roots, and only a split at the roots of P
        # finds them
        p = Params(A=0.0218, B=0.0136, L=0.0145, N0=3.0)
        modes = find_eigenvalues(p, 4)
        assert [m.index for m in modes] == [1, 1, 2, 3]
        assert modes[0].alpha == pytest.approx(4.1774, abs=1e-4)
        assert modes[1].alpha == pytest.approx(6.2357, abs=1e-4)
        for m in modes:
            lo, hi = eigen_grid(p, [m.alpha - 1e-8, m.alpha + 1e-8])["re_E"]
            assert lo * hi < 0


def _secular_re(p, a):
    """re of the secular equation and its den, evaluated as numpy arrays."""
    A, B, L = p.A, p.B, p.L
    a = np.asarray(a)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = 4.0 * a**2 * B - 1.0
        den = (2.0 * B - A) ** 2 + A**2 * q
        return np.tan(0.5 * a) / a + L * 2.0 * B * (2.0 * B - A) / den, den


def _seeds(m):
    return (2 * m - 1) * math.pi + 1e-6 * math.pi, (2 * m + 1) * math.pi - 1e-6 * math.pi


def _scalar_bisect(p, a, b, fa):
    """Plain bisection of [a, b] to 1e-12 with a Python-float loop."""
    while b - a > 1e-12:
        mid = 0.5 * (a + b)
        fm = _secular_re(p, mid)[0].item()
        if fm == 0.0:
            return mid
        if (fa < 0.0) != (fm < 0.0):
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _scanned_interval(p, m):
    """Roots of anchor interval m by the scan: 601 points plus refinement
    around the kinetic pole, each sign change bisected."""
    A, B = p.A, p.B
    pole = math.sqrt(A - B) / A if A > B else None
    lo, hi = _seeds(m)
    grid = np.linspace(lo, hi, 601)
    if pole is not None and lo < pole < hi:
        offsets = np.geomspace(1e-9, 0.5, 24)
        extra = np.concatenate([pole - offsets, pole + offsets])
        grid = np.sort(np.concatenate([grid, extra[(extra > lo) & (extra < hi)]]))
    values = _secular_re(p, grid)[0]
    roots = []
    for i in range(grid.size - 1):
        a, b, fa, fb = (float(v) for v in (grid[i], grid[i + 1], values[i], values[i + 1]))
        if not (math.isfinite(fa) and math.isfinite(fb)):
            continue
        if pole is not None and a < pole < b:
            continue
        if fa == 0.0:
            roots.append(a)
        elif fa * fb < 0.0:
            roots.append(_scalar_bisect(p, a, b, fa))
    return roots


def _inner_breakpoints(p):
    """(alpha, re just left, re just right) of each inner breakpoint: the
    positive roots of P and the kinetic pole, in scalar form."""
    A, B, L = p.A, p.B, p.L
    c, d = 0.5 * L * (2.0 * B - A), B - A
    if c == 0.0:
        return []
    a4 = (A * A) ** 2
    b = 2.0 * d * A * A + c * c - 2.0 * c * A * A
    e = d * (d + 2.0 * c)
    disc = b * b - 4.0 * a4 * e
    cuts = []
    if disc > 0.0:
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        for x in [e / q, q / a4] if a4 else [e / q]:
            if x > 0.0:
                f = _secular_re(p, math.sqrt(x))[0].item()
                cuts.append((math.sqrt(x), f, f))
    if A > B and L != 0.0 and A != 2.0 * B:
        inf = math.copysign(math.inf, c)
        cuts.append((math.sqrt(A - B) / A, -inf, inf))
    return cuts


def _split_interval(p, m):
    """(a, b, re at a) of each piece of anchor interval m, cut at its inner
    breakpoints, whose ends carry opposite signs of re."""
    lo, hi = (2 * m - 1) * math.pi, (2 * m + 1) * math.pi
    cuts = sorted(cut for cut in _inner_breakpoints(p) if lo < cut[0] < hi)
    ends = [(lo, -math.inf, -math.inf), *cuts, (hi, math.inf, math.inf)]
    return [(a, b, fa) for (a, _, fa), (b, fb, _) in zip(ends, ends[1:]) if (fa < 0.0) != (fb < 0.0)]


def _scalar_G(p, m, alpha):
    """G = alpha/2 - m pi - arctan R and its slope at one alpha, in numpy scalars."""
    A, B, L = p.A, p.B, p.L
    c, d = 0.5 * L * (2.0 * B - A), B - A
    y = A * alpha
    y = y * y
    den = d + y
    G = (0.5 * alpha - m * rootfind._PI_HI) - m * rootfind._PI_LO - np.arctan(-c * alpha / den)
    return G, 0.5 + c * (d - y) / (den * den + (c * alpha) * (c * alpha))


def _scalar_newton(p, m, a, b, fa):
    """Safeguarded Newton on G from the midpoint of [a, b], one float at a time."""
    tol, neg = eigen.BRACKET_TOL, fa < 0.0
    x = 0.5 * (a + b)
    last = before = b - a
    while True:
        g, slope = _scalar_G(p, m, x)
        if (g < 0.0) != neg:
            b = x
        else:
            a = x
        new = x - g / slope
        step = abs(new - x)
        newton = (a < new < b or step == 0.0) and step <= 0.5 * before
        if not newton:
            new = 0.5 * (a + b)
            step = abs(new - x)
        if step <= 0.25 * tol or (newton and step * step <= 0.25 * tol * last):
            return new
        x, last, before = new, step, last


def _scalar_close(p, x, a, b, fa):
    """Cuts at x, then 4 times further out on the root's side, then halvings,
    until re changes sign across a bracket within 1e-12 or two adjacent floats."""
    tol = eigen.BRACKET_TOL
    cut, galloping = x, True
    first = max(0.25 * tol, np.spacing(x))
    while True:
        mid = 0.5 * (a + b)
        if not (b - a > tol and mid != a and mid != b):
            return mid
        fc = _secular_re(p, cut)[0].item()
        right = (fc < 0.0) == (fa < 0.0)
        if fc == 0.0:
            a = b = cut
        elif right:
            a, fa = cut, fc
        else:
            b = cut
        galloping = galloping and (cut == x or right == (cut > x))
        ahead = x + ((first if right else -first) if cut == x else 4.0 * (cut - x))
        galloping = galloping and a < ahead < b
        cut = ahead if galloping else 0.5 * (a + b)


def _first_roots(p, count, interval_roots):
    """(alpha, m) of the first ``count`` roots, one anchor interval at a time."""
    a_c = 0.5 / math.sqrt(p.B)
    found, m = [], 0
    while len(found) < count:
        m += 1
        roots = interval_roots(p, m)
        if not roots:
            raise BracketingError(f"anchor interval m={m} holds no root")
        for alpha in sorted(roots):
            if abs(alpha - a_c) < 1e-9:
                alpha = a_c + 1e-9
            found.append((alpha, m))
    return found[:count]


def reference_roots(p, count):
    """Split-then-solve in scalar form, one anchor interval at a time: the
    algorithm of find_eigenvalues, one float at a time."""
    def solve(p, m):
        return [float(_scalar_close(p, _scalar_newton(p, m, a, b, fa), a, b, fa))
                for a, b, fa in _split_interval(p, m)]

    return _first_roots(p, count, solve)


def bisected_reference_roots(p, count):
    """Split-then-bisect in scalar form, one anchor interval at a time."""
    return _first_roots(p, count, lambda p, m: [_scalar_bisect(p, *piece) for piece in _split_interval(p, m)])


def scan_reference_roots(p, count):
    """The 601-point root scan between seeds 1e-6 pi inside the tan poles."""
    return _first_roots(p, count, _scanned_interval)


ROOT_DOMAIN = dict(
    A=st.floats(min_value=1e-4, max_value=10.0),
    B=st.floats(min_value=1e-3, max_value=1.0),
    L=st.one_of(st.just(0.0), st.floats(min_value=1e-2, max_value=100.0)),
    count=st.integers(min_value=5, max_value=120),
)


class TestBatchedRootFinder:
    @given(**ROOT_DOMAIN)
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_reference(self, A, B, L, count):
        p = Params(A=A, B=B, L=L, N0=3.0)
        try:
            expected = reference_roots(p, count)
        except BracketingError as exc:
            m = str(exc).split("m=")[1].split()[0]
            with pytest.raises(BracketingError, match=f"m={m} "):
                find_eigenvalues(p, count)
            return
        modes = find_eigenvalues(p, count)
        assert [(mode.alpha, mode.index) for mode in modes] == expected
        mu1, mu2 = eigen._rates(modes.alpha, B)
        assert modes.mu1.tobytes() == mu1.tobytes() and modes.mu2.tobytes() == mu2.tobytes()
        # plain bisection of the same pieces: the same intervals, every
        # root within the bracket tolerance
        bisected = bisected_reference_roots(p, count)
        assert [m for _, m in bisected] == [m for _, m in expected]
        assert max(abs(mode.alpha - alpha) for mode, (alpha, _) in zip(modes, bisected)) <= eigen.BRACKET_TOL

    @given(**ROOT_DOMAIN)
    # the root of interval 103 lies 3.1e-6 right of its tan pole, between
    # the pole and the scan's seed
    @example(A=1e-4, B=1.0, L=1000.0, count=110)
    @settings(max_examples=40, deadline=None)
    def test_certified_brackets_keep_the_scan_roots(self, A, B, L, count):
        # the breakpoints change only the bracket each root is solved from:
        # the same anchor intervals, and every root within BRACKET_TOL
        p = Params(A=A, B=B, L=L, N0=3.0)
        try:
            expected = scan_reference_roots(p, count)
        except BracketingError as exc:
            m = int(str(exc).split("m=")[1].split()[0])
            try:
                modes = find_eigenvalues(p, count)
            except BracketingError as refused:
                assert f"m={m} " in str(refused)
                return
            # the scan refused only because its seeds miss the roots of m:
            # each lies between a tan pole and its seed, a sign change of re
            missed = [mode.alpha for mode in modes if mode.index == m]
            assert missed
            for alpha in missed:
                assert abs(alpha - 2 * m * math.pi) > (1 - 1e-6) * math.pi
                lo, hi = _secular_re(p, [alpha - 1e-11, alpha + 1e-11])[0]
                assert lo * hi < 0
            return
        modes = find_eigenvalues(p, count)
        assert [mode.index for mode in modes] == [m for _, m in expected]
        moved = [abs(mode.alpha - alpha) for mode, (alpha, _) in zip(modes, expected)]
        assert max(moved) <= eigen.BRACKET_TOL


def _bisect(f, a, b, fa, tol=eigen.BRACKET_TOL):
    """The root search of find_eigenvalues before its Newton solver: every
    bracket halved together, 43 times across a 2 pi wide piece."""
    roots = np.empty_like(a)
    live = np.arange(a.size)
    while True:
        mid = 0.5 * (a + b)
        wide = (b - a > tol) & (mid != a) & (mid != b)
        roots[live[~wide]] = mid[~wide]
        live, a, b, fa, mid = live[wide], a[wide], b[wide], fa[wide], mid[wide]
        if not live.size:
            return roots
        fm = f(mid)
        hit = fm == 0.0
        left = (fa < 0.0) != (fm < 0.0)
        a = np.where(left & ~hit, a, mid)
        b = np.where(left | hit, mid, b)
        fa = np.where(left, fa, fm)


def bisected_roots(p, count):
    """(alpha, index) of find_eigenvalues before its Newton solver: the same
    pieces of the anchor intervals, each bisected, and the same refusals."""
    m = np.arange(1, count + 1)
    lo, hi = (2 * m - 1) * math.pi, (2 * m + 1) * math.pi
    at, left, right = eigen._breakpoints(p)
    host = np.minimum(np.searchsorted(hi, at), count - 1)
    inner = (lo[host] < at) & (at < hi[host])
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
    roots = _bisect(lambda x: eigen._real_part(x, p)[0], ends[piece], ends[piece + 1], after[piece])
    a_c = alpha_critical(p)
    roots = np.where(np.abs(roots - a_c) < eigen.CRITICAL_NUDGE, a_c + eigen.CRITICAL_NUDGE, roots)
    return roots, owner[piece]


def _contract_sets():
    """336 (A, B, L) on a grid, none refused, and 64 seeded sets with
    B < A < 2B, most of them refused at some anchor interval."""
    grid = [(A, B, L) for A in (1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0, 10.0)
            for B in (1e-3, 1e-2, 0.03, 0.1, 0.3, 1.0)
            for L in (0.1, 1.0, 3.0, 10.0, 100.0, 300.0, 1000.0)]
    rng = np.random.default_rng(27)
    B = 10.0 ** rng.uniform(-4.0, 0.0, 64)
    near = zip(B * rng.uniform(1.0, 2.0, 64), B, 10.0 ** rng.uniform(-2.0, 3.0, 64))
    return grid + [tuple(map(float, abc)) for abc in near]


CONTRACT_SETS = _contract_sets()


def _count_evaluations(monkeypatch):
    """A list that gains an entry at each vectorized evaluation of re or G."""
    calls = []
    for name in ("_real_part", "_arctan_form"):
        original = getattr(eigen, name)
        monkeypatch.setattr(eigen, name, lambda *args, f=original: calls.append(f) or f(*args))
    return calls


@pytest.mark.parametrize("count", [60, 200, 2000])
def test_newton_keeps_the_bisected_roots(monkeypatch, count):
    # the solver changes how a piece's root is reached, not what it is: the
    # same anchor intervals, the same refusals, every root within the
    # bracket tolerance (one float spacing past 2^13) of the bisected one
    # and at a sign change of re, in at most 16 evaluations a call
    calls = _count_evaluations(monkeypatch)
    refused = 0
    for A, B, L in CONTRACT_SETS:
        p = Params(A=A, B=B, L=L, N0=3.0)
        try:
            alpha, index = bisected_roots(p, count)
        except BracketingError as exc:
            with pytest.raises(BracketingError) as refusal:
                find_eigenvalues(p, count)
            assert str(refusal.value) == str(exc)
            refused += 1
            continue
        calls.clear()
        roots = find_eigenvalues(p, count)
        assert len(calls) <= 16, p
        assert np.array_equal(roots.index, index), p
        bound = np.maximum(eigen.BRACKET_TOL, np.spacing(alpha))
        assert np.all(np.abs(roots.alpha - alpha) <= bound), p
        # a root nudged off alpha_c is not a sign change
        kept = roots.alpha[roots.alpha != alpha_critical(p) + eigen.CRITICAL_NUDGE]
        reach = np.maximum(0.5 * eigen.BRACKET_TOL, np.spacing(kept))
        below, above = _secular_re(p, kept - reach)[0], _secular_re(p, kept + reach)[0]
        assert np.all((below < 0.0) != (above < 0.0)), p
    assert refused >= 30


@pytest.mark.parametrize("count", [200, 2000])
def test_a_handful_of_evaluations(monkeypatch, count):
    # vectorized evaluations of re and of G per call, the breakpoints'
    # included; bisecting the ~2 pi wide pieces to 1e-12 took 44 of re
    calls = _count_evaluations(monkeypatch)
    for p in ACCEPTANCE_SETS:
        calls.clear()
        find_eigenvalues(p, count)
        assert len(calls) <= 16, p


class TestEigenGrid:
    def test_columns_and_domains(self, secular_landmark_params):
        p = secular_landmark_params
        a_c = alpha_critical(p)
        grid = np.array([1.0, 6.3, a_c + 1.0, 3 * math.pi, 40.0])
        tab = eigen_grid(p, grid)
        assert set(tab) == {"alpha", "f1", "f2", "re_E", "im_E"}
        # real branch defined below alpha_c
        assert np.isfinite(tab["f1"][0]) and np.isfinite(tab["f2"][1])
        assert tab["im_E"][0] == 0.0
        # oscillatory branch: f1/f2 undefined, im_E positive
        assert np.isnan(tab["f1"][2]) and tab["im_E"][2] > 0
        # tan pole row is masked entirely
        assert np.isnan(tab["re_E"][3])
        assert np.isfinite(tab["re_E"][4])


@pytest.mark.parametrize("regime", MODE_REGIMES)
def test_real_part_is_secular_re_on_the_scan(regime):
    # the breakpoint signs and the root certificates read re through _real_part
    # alone: compared with this file's own evaluation of re on a dense scan
    # of the searched intervals, their tan poles and their inner breakpoints
    p, count, _ = regime
    poles = (2 * np.arange(count + 1) + 1) * math.pi
    dense = np.linspace(poles[0], poles[-1], 600 * count + 1)
    alpha = np.concatenate((dense, poles, eigen._breakpoints(p)[0]))
    re, expected = eigen._real_part(alpha, p)[0], _secular_re(p, alpha)[0]
    for where in (np.isnan, np.isposinf, np.isneginf):
        assert np.array_equal(where(re), where(expected))
    assert re.tobytes() == expected.tobytes()


@pytest.mark.parametrize("A, B, L", [
    (0.0218, 0.0136, 0.0145), (0.00729, 0.00678, 0.0101), (0.01, 1e-3, 1.0), (0.5, 1e-3, 0.1),
    (1e-3, 0.1, 1.0), (2.0, 0.1, 30.0),
])
def test_slope_of_G_has_the_sign_of_P(A, B, L):
    # G = alpha/2 - m pi - arctan R, differentiated at 30 digits: its slope
    # has the sign of the quadratic P, and it changes sign exactly at the
    # breakpoints other than the kinetic pole
    p = Params(A=A, B=B, L=L, N0=3.0)
    c, d = 0.5 * L * (2.0 * B - A), B - A
    b, e = 2 * d * A**2 + c * c - 2 * c * A**2, d * (d + 2 * c)

    def G(a):
        return a / 2 - mpmath.atan(-c * a / (d + A**2 * a**2))

    grid = np.linspace(math.pi, 21 * math.pi, 1001)
    with mpmath.workdps(30):
        rising = np.array([mpmath.diff(G, mpmath.mpf(alpha)) > 0 for alpha in grid])
    x = grid * grid
    P = A**4 * x * x + b * x + e
    # away from the roots of P, where its sign is not rounding
    clear = np.abs(P) > 1e-9 * (A**4 * x * x + abs(b) * x + abs(e))
    assert np.array_equal(rising[clear], P[clear] > 0)
    flips = np.flatnonzero(rising[1:] != rising[:-1])
    pole = kinetic_pole(p)
    cuts = sorted(a for a in eigen._breakpoints(p)[0] if a != pole and grid[0] < a < grid[-1])
    assert len(cuts) == flips.size
    for alpha, i in zip(cuts, flips):
        assert grid[i] < alpha < grid[i + 1]

