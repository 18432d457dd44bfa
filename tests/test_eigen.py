"""Characteristic exponents and the secular eigenvalue problem."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypersorb.eigen as eigen
from hypersorb.eigen import eigen_grid, exponents, find_eigenvalues, kinetic_pole
from hypersorb.errors import BracketingError, InvalidInput
from hypersorb.params import Params, alpha_critical


class TestExponents:
    def test_parabolic_limit(self):
        # fixed alpha, B -> 0: mu1 ~ -1/B, mu2 -> -alpha^2, with the leading
        # finite-B correction of relative size alpha^2 B
        alpha = 5.0
        for B in (1e-4, 1e-6, 1e-8):
            mu = exponents(alpha, B)
            assert abs(mu.mu1.real * B + 1.0) <= 2 * alpha**2 * B
            assert abs(mu.mu2.real + alpha**2) <= 2 * alpha**4 * B
        sentinel = exponents(alpha, 0.0)
        assert sentinel.mu1.real == -math.inf
        assert sentinel.mu2 == complex(-25.0, 0.0)

    def test_oscillatory_landmark(self):
        # alpha = 2 pi, B = 0.1: rates -5 +- 19.23i; oracle at 50 digits
        mpmath.mp.dps = 50
        alpha, B = 2 * math.pi, 0.1
        w = mpmath.sqrt(4 * mpmath.mpf(alpha) ** 2 * mpmath.mpf("0.1") - 1)
        expected = complex(-5.0, -float(w / (2 * mpmath.mpf("0.1"))))
        mu = exponents(alpha, B)
        assert mu.mu1.real == pytest.approx(expected.real, rel=1e-12)
        assert mu.mu1.imag == pytest.approx(expected.imag, rel=1e-12)
        assert abs(mu.mu1.imag) == pytest.approx(19.23, abs=0.01)
        assert mu.mu2 == mu.mu1.conjugate()

    def test_critical_point_double_root(self):
        B = 0.04
        alpha_c = 0.5 / math.sqrt(B)
        mu = exponents(alpha_c, B)
        assert mu.mu1 == mu.mu2 == complex(-0.5 / B, 0.0)

    @given(
        alpha=st.floats(min_value=0.1, max_value=300),
        B=st.floats(min_value=1e-6, max_value=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_vieta_identities(self, alpha, B):
        mu = exponents(alpha, B)
        prod = mu.mu1 * mu.mu2
        total = mu.mu1 + mu.mu2
        assert abs(prod - alpha**2 / B) <= 1e-10 * abs(prod)
        assert abs(total + 1.0 / B) <= 1e-10 * abs(total)

    @given(B=st.floats(min_value=1e-5, max_value=1.0), frac=st.floats(min_value=1.01, max_value=50))
    @settings(max_examples=100, deadline=None)
    def test_conjugate_above_critical(self, B, frac):
        alpha = frac * 0.5 / math.sqrt(B)
        mu = exponents(alpha, B)
        assert mu.mu2 == mu.mu1.conjugate()
        assert mu.mu1.real == -0.5 / B

    def test_nonpositive_real_part(self):
        for alpha, B in [(1.0, 0.5), (50.0, 1e-3), (3.0, 0.1)]:
            mu = exponents(alpha, B)
            assert mu.mu1.real < 0 and mu.mu2.real < 0

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInput):
            exponents(0.0, 0.1)
        with pytest.raises(InvalidInput):
            exponents(1.0, -0.1)


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
            prod = m.exponents.mu1 * m.exponents.mu2
            total = m.exponents.mu1 + m.exponents.mu2
            assert abs(prod - m.alpha**2 / p.B) <= 1e-10 * abs(prod)
            assert abs(total + 1.0 / p.B) <= 1e-10 * abs(total)

    def test_real_branch_count_matches_critical_point(self, secular_landmark_params):
        # only the anchors below alpha_c produce overdamped modes
        p = secular_landmark_params
        a_c = alpha_critical(p)
        modes = find_eigenvalues(p, 10)
        for m in modes:
            assert m.exponents.is_real == (m.alpha < a_c)
        assert sum(m.exponents.is_real for m in modes) == 2

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

    def test_bracketing_failure_reported(self, oscillatory_params, monkeypatch):
        # a scan that misses anchor interval 2 leaves it without a root
        scan = eigen._scan

        def without_second_interval(p, count):
            alpha = scan(p, count)
            return alpha[np.abs(alpha - 4 * math.pi) > math.pi]

        monkeypatch.setattr(eigen, "_scan", without_second_interval)
        with pytest.raises(BracketingError, match="m=2"):
            find_eigenvalues(oscillatory_params, 3)


def reference_roots(p, count):
    """(alpha, m) of the first ``count`` roots, one anchor interval at a time.

    The scan-and-bisect algorithm written out in scalar form: 601 points per
    interval plus refinement around the kinetic pole, then plain bisection
    of each bracket to 1e-12 with a Python-float loop.
    """
    A, B, L = p.A, p.B, p.L

    def re_E(a):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q = 4.0 * a**2 * B - 1.0
            den = (2.0 * B - A) ** 2 + A**2 * q
            return np.tan(0.5 * a) / a + L * 2.0 * B * (2.0 * B - A) / den

    def bisect(a, b, fa):
        while b - a > 1e-12:
            mid = 0.5 * (a + b)
            fm = re_E(np.asarray(mid)).item()
            if fm == 0.0:
                return mid
            if (fa < 0.0) != (fm < 0.0):
                b = mid
            else:
                a, fa = mid, fm
        return 0.5 * (a + b)

    pole = math.sqrt(A - B) / A if A > B else None
    a_c = 0.5 / math.sqrt(B)
    found, m = [], 0
    while len(found) < count:
        m += 1
        lo = (2 * m - 1) * math.pi + 1e-6 * math.pi
        hi = (2 * m + 1) * math.pi - 1e-6 * math.pi
        grid = np.linspace(lo, hi, 601)
        if pole is not None and lo < pole < hi:
            offsets = np.geomspace(1e-9, 0.5, 24)
            extra = np.concatenate([pole - offsets, pole + offsets])
            grid = np.sort(np.concatenate([grid, extra[(extra > lo) & (extra < hi)]]))
        values = re_E(grid)
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
                roots.append(bisect(a, b, fa))
        if not roots:
            raise BracketingError(f"anchor interval m={m} holds no root")
        for alpha in sorted(roots):
            if abs(alpha - a_c) < 1e-9:
                alpha = a_c + 1e-9
            found.append((alpha, m))
    return found[:count]


class TestBatchedRootFinder:
    @given(
        A=st.floats(min_value=1e-4, max_value=10.0),
        B=st.floats(min_value=1e-3, max_value=1.0),
        L=st.one_of(st.just(0.0), st.floats(min_value=1e-2, max_value=100.0)),
        count=st.integers(min_value=5, max_value=120),
    )
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
        for mode in modes:
            assert mode.exponents == exponents(mode.alpha, B)


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
