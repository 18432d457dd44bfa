"""Modal engine: Gram entries, orthogonalization, projection, evaluation."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import hypersorb.spectral as spectral
from hypersorb.eigen import find_eigenvalues
from hypersorb.errors import (
    BracketingError,
    DegenerateBasisError,
    DegenerateModeError,
    InvalidInput,
)
from hypersorb.params import (
    Params,
    cosine_moment,
    equilibrium,
    parabolic_ic,
    sample_initial,
    step_ic,
)
from hypersorb.spectral import (
    amplitudes,
    eval_density,
    eval_sigma,
    density_rate,
    gram_condition_bound,
    gram_matrix,
    imag_residue,
    modal_sums,
    orthogonality_residual,
    orthogonalize,
    phi_integral,
    project_initial,
    sigma_rate,
    solve_spectral,
    to_series,
    unit_upper_inverse,
)
from conftest import ACCEPTANCE_SETS, MODE_REGIMES, assert_conservation_is_three_sums, first_local_max


def minor_formula_coefficients(gram: np.ndarray, q: int) -> np.ndarray:
    """Reference: cofactor-of-Gram construction of the q-th orthogonal function.

    Classical small-n construction: coefficient a of the q-th function is
    the signed cofactor of Gram entry (a, q) in the leading (q+1) x (q+1)
    determinant, normalized by the diagonal cofactor.  Factorially
    expensive beyond a handful of modes.
    """
    sub = gram[: q + 1, : q + 1]
    cof = np.zeros(q + 1)
    for a in range(q + 1):
        minor = np.delete(np.delete(sub, a, axis=0), q, axis=1)
        det = np.linalg.det(minor) if minor.size else 1.0
        cof[a] = (-1.0) ** (a + q) * det
    return cof / cof[q]


class TestGram:
    def test_zero_mean_diagonal(self):
        # sin(2 pi) = 0: the diagonal entry collapses to 1/2
        assert gram_matrix([2 * math.pi])[0, 0] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize(
        "a,b", [(6.2, 12.5), (3.671, 9.631), (2.0, 2.0), (28.3, 9.63), (15.8, 15.9)]
    )
    def test_against_quadrature(self, a, b):
        oracle = quad(lambda z: math.cos(a * z) * math.cos(b * z), -0.5, 0.5, limit=200)[0]
        # a repeated alpha is one mode: its entry is the diagonal one
        assert gram_matrix(np.unique([a, b]))[0, -1] == pytest.approx(oracle, abs=1e-10)

    def test_modes_not_orthogonal(self, oscillatory_params):
        alphas = [m.alpha for m in find_eigenvalues(oscillatory_params, 6)]
        g = gram_matrix(alphas)
        off = g - np.diag(np.diag(g))
        assert np.max(np.abs(off)) > 1e-3

    def test_matrix_symmetric_positive_definite(self, oscillatory_params):
        alphas = [m.alpha for m in find_eigenvalues(oscillatory_params, 20)]
        g = gram_matrix(alphas)
        assert np.allclose(g, g.T, atol=1e-15)
        assert np.all(np.linalg.eigvalsh(g) > 0)
        assert np.all(np.diag(g) > 0) and np.all(np.diag(g) <= 1.0)

    @pytest.mark.parametrize("count", [200, 2000])
    @pytest.mark.parametrize("p", ACCEPTANCE_SETS, ids=lambda p: f"A{p.A:g}-B{p.B:g}-L{p.L:g}")
    def test_angle_addition_matches_two_sines(self, p, count):
        # sin((a -+ b)/2) by angle addition against the sines of the rounded
        # a -+ b themselves: the same entries to rounding, the same diagonal
        a = np.array([m.alpha for m in find_eigenvalues(p, count)])
        diff, total = np.subtract.outer(a, a), np.add.outer(a, a)
        with np.errstate(divide="ignore", invalid="ignore"):
            direct = np.sin(0.5 * diff) / diff + np.sin(0.5 * total) / total
        np.fill_diagonal(direct, 0.5 + np.sin(a) / (2.0 * a))
        g = gram_matrix(a)
        assert np.array_equal(g, g.T) and np.array_equal(np.diag(g), np.diag(direct))
        assert np.max(np.abs(g - direct)) <= 2.2e-16 * np.max(np.abs(direct))

    def test_invalid_frequency(self):
        with pytest.raises(InvalidInput):
            gram_matrix([-1.0, 2.0])
        with pytest.raises(InvalidInput):
            gram_matrix([math.nan, 2.0])


BASIS_DOMAIN = dict(
    A=st.floats(min_value=1e-4, max_value=10.0),
    B=st.floats(min_value=1e-3, max_value=1.0),
    L=st.one_of(st.just(0.0), st.floats(min_value=1e-2, max_value=100.0)),
    count=st.integers(min_value=5, max_value=120),
)


class TestOrthogonalize:
    def test_two_mode_projection_formula(self):
        alphas = np.array([3.7, 9.6])
        basis = orthogonalize(alphas)
        g = basis.gram
        assert basis.coeffs[:, 0] == pytest.approx([1.0, 0.0])
        assert basis.coeffs[:, 1] == pytest.approx([-g[0, 1] / g[0, 0], 1.0], rel=1e-14)
        assert orthogonality_residual(basis) < 1e-15

    def test_matches_cofactor_construction(self, secular_landmark_params):
        modes = find_eigenvalues(secular_landmark_params, 10)
        basis = orthogonalize([m.alpha for m in modes])
        g = basis.gram
        for q in range(10):
            mf = np.zeros(10)
            mf[: q + 1] = minor_formula_coefficients(g, q)
            for j in range(10):
                inner = mf @ g @ basis.coeffs[:, j]
                norm = math.sqrt((mf @ g @ mf) * basis.norms[j])
                if j != q:
                    assert abs(inner) / norm < 1e-8

    def test_residual_at_fifty_modes(self, oscillatory_params):
        basis = orthogonalize([m.alpha for m in find_eigenvalues(oscillatory_params, 50)])
        assert orthogonality_residual(basis) < 1e-8

    def test_degenerate_basis_rejected(self):
        with pytest.raises(DegenerateBasisError):
            orthogonalize(np.array([6.28, 6.28 + 1e-12, 12.57]))

    @pytest.mark.parametrize("alphas", [[2.0, 2.0], [6.0, 6.0, 12.0]])
    def test_repeated_alpha_rejected(self, alphas):
        # equal alphas put 0/0 off the Gram diagonal
        with pytest.raises(DegenerateBasisError, match="distinct"):
            orthogonalize(alphas)

    @pytest.mark.parametrize("count", [50, 200])
    def test_condition_matches_singular_values(self, oscillatory_params, count, monkeypatch):
        # the refusal bound brackets the guard's own bound within 1e-9, and
        # that bound is at least the singular-value condition
        alphas = [m.alpha for m in find_eigenvalues(oscillatory_params, count)]
        cond = gram_condition_bound(orthogonalize(alphas))
        assert cond >= np.linalg.cond(gram_matrix(alphas))
        monkeypatch.setattr(spectral, "MAX_GRAM_CONDITION", cond * (1.0 + 1e-9))
        orthogonalize(alphas)
        monkeypatch.setattr(spectral, "MAX_GRAM_CONDITION", cond * (1.0 - 1e-9))
        with pytest.raises(DegenerateBasisError, match="condition"):
            orthogonalize(alphas)

    @pytest.mark.parametrize("gram", [np.diag([1.0, 0.0]), np.zeros((2, 2))])
    def test_singular_gram_refused_without_warning(self, gram, monkeypatch):
        monkeypatch.setattr(spectral, "gram_matrix", lambda alphas: gram)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateBasisError, match="condition"):
                orthogonalize([3.7, 9.6])

    @pytest.mark.parametrize("count", [50, 200, 2000])
    @pytest.mark.parametrize("p", ACCEPTANCE_SETS, ids=lambda p: f"A{p.A:g}-B{p.B:g}-L{p.L:g}")
    def test_guard_bounds_the_condition(self, p, count):
        basis = orthogonalize([m.alpha for m in find_eigenvalues(p, count)])
        assert gram_condition_bound(basis) >= np.linalg.cond(basis.gram)

    @given(**BASIS_DOMAIN)
    @settings(max_examples=40, deadline=None)
    def test_guard_bounds_the_condition_on_the_domain(self, A, B, L, count):
        try:
            modes = find_eigenvalues(Params(A=A, B=B, L=L, N0=3.0), count)
        except BracketingError:
            reject()
        basis = orthogonalize([m.alpha for m in modes])
        assert gram_condition_bound(basis) >= np.linalg.cond(basis.gram)

    @pytest.mark.parametrize("n", [1, 2, spectral.INVERSE_BLOCK, spectral.INVERSE_BLOCK + 1,
                                   2 * spectral.INVERSE_BLOCK + 1, 200, 333])
    def test_block_inverse_inverts_the_unit_triangle(self, oscillatory_params, n):
        # sizes around the directly inverted block, and uneven splits
        gram = gram_matrix([m.alpha for m in find_eigenvalues(oscillatory_params, n)])
        upper = np.linalg.cholesky(gram).T
        unit = upper / np.diag(upper)[:, None]
        inv = unit_upper_inverse(unit)
        assert np.all(np.tril(inv, -1) == 0.0) and np.all(np.diag(inv) == 1.0)
        assert np.max(np.abs(inv @ unit - np.eye(n))) <= 1e-13

    @given(**BASIS_DOMAIN)
    @settings(max_examples=40, deadline=None)
    def test_companion_basis_inverts_gram(self, A, B, L, count):
        p = Params(A=A, B=B, L=L, N0=3.0)
        try:
            modes = find_eigenvalues(p, count)
        except BracketingError:
            reject()
        basis = orthogonalize([m.alpha for m in modes])
        V, g = basis.coeffs, basis.gram
        assert np.all(np.tril(V, -1) == 0.0) and np.all(np.diag(V) == 1.0)
        g_inv = V @ np.diag(1.0 / basis.norms) @ V.T
        assert np.max(np.abs(g_inv @ g - np.eye(count))) <= 1e-12
        n_eq, _ = equilibrium(p)
        moments = np.array([cosine_moment(step_ic(), p, a) for a in basis.alphas])
        expected = np.linalg.solve(g, moments - n_eq * phi_integral(basis.alphas))
        C = project_initial(spectral.departure_moments(step_ic(), p, basis.alphas), basis)
        assert np.max(np.abs(C - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestProjection:
    def test_coefficients_match_quadrature(self, oscillatory_params):
        p = oscillatory_params
        basis = orthogonalize([m.alpha for m in find_eigenvalues(p, 8)])
        n_eq, _ = equilibrium(p)
        C = project_initial(spectral.departure_moments(step_ic(), p, basis.alphas), basis)
        # oracle: R_j from its defining integral ratio, then map through the table
        R = np.empty(8)
        for j in range(8):
            psi = lambda z, j=j: sum(
                basis.coeffs[i, j] * math.cos(basis.alphas[i] * z) for i in range(8)
            )
            num = quad(lambda z: (3.0 - n_eq) * psi(z), -0.5, 0.5, limit=400)[0]
            den = quad(lambda z: psi(z) ** 2, -0.5, 0.5, limit=400)[0]
            R[j] = num / den
        assert C == pytest.approx(basis.coeffs @ R, abs=1e-8)

    def test_step_reconstruction_at_center(self, spectral_oscillatory_50, oscillatory_params):
        sol = spectral_oscillatory_50
        n_eq, _ = equilibrium(oscillatory_params)
        target = 3.0 - n_eq
        recon = float(np.real(np.sum(sol.C * np.cos(sol.alphas * 0.0))))
        assert abs(recon - target) < 0.02 * target

    def test_inert_wall_projection_vanishes(self):
        p = Params(A=0.5, B=1e-3, L=1e-13, N0=3.0)
        basis = orthogonalize([m.alpha for m in find_eigenvalues(p, 10)])
        C = project_initial(spectral.departure_moments(step_ic(), p, basis.alphas), basis)
        assert np.max(np.abs(C)) < 1e-10 * p.N0


class TestAmplitudes:
    def test_identities(self, spectral_oscillatory_50):
        sol = spectral_oscillatory_50
        mu1, mu2 = sol.mu1, sol.mu2
        zero_rate = mu1 * sol.S1 + mu2 * sol.S2
        assert np.max(np.abs(zero_rate)) <= 1e-12 * np.max(np.abs(mu1 * sol.S1))
        assert sol.S1 + sol.S2 == pytest.approx(sol.C, rel=1e-12)

    def test_conjugate_pair_on_oscillatory_branch(self, spectral_oscillatory_50):
        sol = spectral_oscillatory_50
        # every mode of this parameter set lies above the critical point
        assert np.max(np.abs(sol.S2 - np.conj(sol.S1))) <= 1e-13 * np.max(np.abs(sol.S1))

    def test_degenerate_mode_refused(self):
        mu = np.array([complex(-5.0)])
        with pytest.raises(DegenerateModeError):
            amplitudes(np.array([1.0]), mu, mu)


class TestEvaluation:
    def test_relaxes_to_equilibrium(self, spectral_oscillatory_50, oscillatory_params):
        n_eq, sigma_eq = equilibrium(oscillatory_params)
        sol = spectral_oscillatory_50
        assert eval_density(sol, 0.0, 50.0) == pytest.approx(n_eq, abs=1e-12)
        assert eval_sigma(sol, 50.0) == pytest.approx(sigma_eq, abs=1e-12)

    def test_even_in_z(self, spectral_oscillatory_50):
        z = np.linspace(0, 0.5, 11)
        t = 0.3
        left = eval_density(spectral_oscillatory_50, -z, t)
        right = eval_density(spectral_oscillatory_50, z, t)
        np.testing.assert_allclose(left, right, rtol=1e-14)

    def test_sigma_identity_at_zero(self, spectral_oscillatory_50):
        sol = spectral_oscillatory_50
        explicit = sol.sigma_eq - float(
            np.real(np.sum(sol.C * np.sin(0.5 * sol.alphas) / sol.alphas))
        )
        assert eval_sigma(sol, 0.0) == pytest.approx(explicit, rel=1e-12)
        assert abs(eval_sigma(sol, 0.0)) < 0.01 * sol.sigma_eq

    def test_first_maximum_landmark(self, spectral_oscillatory_50):
        # non-monotonic surface density with the first peak near t ~ 0.32
        t = np.linspace(0, 2, 2001)
        s = eval_sigma(spectral_oscillatory_50, t)
        t_max = first_local_max(t, s, 0.2 * spectral_oscillatory_50.sigma_eq)
        assert t_max == pytest.approx(0.32, abs=0.02)

    def test_zero_initial_velocity(self, spectral_oscillatory_50, oscillatory_params):
        sol = spectral_oscillatory_50
        z = np.linspace(-0.5, 0.5, 21)
        assert np.max(np.abs(density_rate(sol, z, 0.0))) < 1e-8 * oscillatory_params.N0

    def test_zero_initial_sigma_rate(self, spectral_oscillatory_50, oscillatory_params):
        c_star = 1.0 / math.sqrt(oscillatory_params.B)
        assert abs(sigma_rate(spectral_oscillatory_50, 0.0)) < 1e-6 * 3.0 * c_star

    def test_realness(self, spectral_oscillatory_50):
        z = np.linspace(-0.5, 0.5, 21)
        t = np.linspace(0, 2, 21)
        assert imag_residue(spectral_oscillatory_50, z, t) < 1e-8 * 3.0

    def test_wavefront_shields_center(self, wavefront_params):
        # N(0, t) holds its initial value until the front covers half the slab
        sol = solve_spectral(wavefront_params, step_ic(), 150)
        t_hold = np.linspace(0.0, 0.14, 141)
        assert np.max(np.abs(eval_density(sol, 0.0, t_hold) - 3.0)) < 0.01 * 3.0
        assert abs(eval_density(sol, 0.0, 0.18) - 3.0) > 0.05 * 3.0

    def test_conservation_of_evaluated_fields(self, spectral_oscillatory_50):
        # the field evaluated on demand keeps the slab's particles to 1 % of
        # N0, at a few times and at 201 even times over the horizon
        sol = spectral_oscillatory_50
        z = np.linspace(0, 0.5, 2001)
        t = np.union1d([0.1, 0.5, 2.0], np.linspace(0.0, 2.0, 201))
        mass = 2.0 * np.trapezoid(eval_density(sol, z, t), z, axis=1)
        assert mass.shape == t.shape
        assert np.max(np.abs(mass + 2.0 * eval_sigma(sol, t) - 3.0)) < 1e-2 * 3.0

    def test_mode_doubling_stability(
        self, spectral_oscillatory_50, spectral_oscillatory_100
    ):
        t = np.linspace(0.05, 2.0, 401)
        s50 = eval_sigma(spectral_oscillatory_50, t)
        s100 = eval_sigma(spectral_oscillatory_100, t)
        assert np.max(np.abs(s50 - s100)) < 0.01 * spectral_oscillatory_50.sigma_eq

    def test_negative_time_rejected(self, spectral_oscillatory_50):
        with pytest.raises(InvalidInput):
            eval_sigma(spectral_oscillatory_50, -0.1)
        with pytest.raises(InvalidInput):
            eval_sigma(spectral_oscillatory_50, math.nan)
        with pytest.raises(InvalidInput):
            eval_density(spectral_oscillatory_50, 0.1, math.nan)
        with pytest.raises(InvalidInput):
            to_series(spectral_oscillatory_50, [0.0, math.nan])

    def test_out_of_slab_rejected(self, spectral_oscillatory_50):
        with pytest.raises(InvalidInput):
            eval_density(spectral_oscillatory_50, 0.7, 0.1)
        with pytest.raises(InvalidInput):
            density_rate(spectral_oscillatory_50, 0.7, 0.1)
        with pytest.raises(InvalidInput):
            to_series(spectral_oscillatory_50, [0.0, 0.1], probes=[math.nan])

    def test_density_axes_are_times_then_positions(self, spectral_oscillatory_50):
        sol = spectral_oscillatory_50
        z = np.array([[0.0, 0.1, 0.2], [0.3, 0.4, 0.5]])
        at_one = eval_density(sol, z, 0.3)
        both = eval_density(sol, z, np.array([0.0, 0.3]))
        assert at_one.shape == (2, 3) and both.shape == (2, 2, 3)
        assert both[1] == pytest.approx(at_one, abs=1e-12)
        assert at_one[1, 2] == pytest.approx(eval_density(sol, 0.5, 0.3), abs=1e-12)


class TestSolveSpectral:
    def test_requires_wave_regime(self):
        with pytest.raises(InvalidInput):
            solve_spectral(Params(A=0.5, B=0.0, L=0.1, N0=1.0), step_ic())

    def test_diagnostics_reported(self, spectral_oscillatory_50):
        d = spectral_oscillatory_50.diagnostics
        assert d["mode_count"] == 50
        assert d["reconstruction_max_error"] < 0.5
        assert d["conservation_residual_t0"] < 1e-3
        assert d["solve_residual"] < 1e-8

    def test_solve_never_checks_orthogonality(self, oscillatory_params, monkeypatch):
        # the library check costs two n^3 products; a run reports the solve residual instead
        def no_check(basis):
            raise AssertionError("orthogonality_residual called")

        monkeypatch.setattr(spectral, "orthogonality_residual", no_check)
        diagnostics = solve_spectral(oscillatory_params, step_ic(), 50).diagnostics
        assert "orthogonality_residual" not in diagnostics

    def test_solve_forms_the_moments_once(self, oscillatory_params, monkeypatch):
        # b serves the projection and the solve residual alike: for sampled
        # data each departure_moments call integrates every segment per mode
        calls = {"departure_moments": 0, "project_initial": 0}
        for name in calls:
            def counted(*args, _original=getattr(spectral, name), _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(spectral, name, counted)
        solve_spectral(oscillatory_params, step_ic(), 50)
        assert calls == {"departure_moments": 1, "project_initial": 1}

    @pytest.mark.parametrize("count", [50, 200])
    @pytest.mark.parametrize("p", ACCEPTANCE_SETS)
    def test_solve_residual_on_acceptance_sets(self, p, count):
        # measured 1.8e-16 to 9.9e-16; norms off by 1e-6 in the projection read 1e-6
        sol = solve_spectral(p, step_ic(), count)
        b = spectral.departure_moments(step_ic(), p, sol.alphas)
        assert sol.diagnostics["solve_residual"] == spectral.solve_residual(sol.basis, sol.C, b)
        assert sol.diagnostics["solve_residual"] <= 1e-12

    def test_solve_residual_of_a_zero_right_side(self):
        # inert walls at N0 = 1: the step's moments equal N_eq's bit for bit, so b = 0 and C = 0
        p = Params(A=1e-3, B=0.1, L=0.0, N0=1.0)
        sol = solve_spectral(p, step_ic(), 50)
        assert not np.any(spectral.departure_moments(step_ic(), p, sol.alphas)) and not np.any(sol.C)
        assert sol.diagnostics["solve_residual"] == 0.0

    def test_adsorption_strength_shifts_peak_value_not_position(self):
        # stronger adsorption raises the first maximum but barely moves it
        t = np.linspace(0, 1, 1001)
        base = Params(A=1e-3, B=0.1, L=1.0, N0=3.0)
        strong = Params(A=1e-3, B=0.1, L=10.0, N0=3.0)
        s1 = solve_spectral(base, step_ic(), 50)
        s10 = solve_spectral(strong, step_ic(), 50)
        e1, e10 = eval_sigma(s1, t), eval_sigma(s10, t)
        t1 = first_local_max(t, e1, 0.2 * s1.sigma_eq)
        t10 = first_local_max(t, e10, 0.2 * s10.sigma_eq)
        assert abs(t1 - t10) < 0.05
        assert np.max(e10) > np.max(e1)

    def test_smooth_initial_condition(self, oscillatory_params):
        sol = solve_spectral(oscillatory_params, parabolic_ic(), 50)
        z = np.linspace(-0.45, 0.45, 19)
        recon = eval_density(sol, z, 0.0)
        target = sample_initial(parabolic_ic(), oscillatory_params, z)
        # smooth data reconstructs much more tightly than the step
        assert np.max(np.abs(recon - target)) < 5e-3 * 3.0

    def test_series_export(self, spectral_oscillatory_50):
        t = np.linspace(0, 2, 101)
        ser = to_series(spectral_oscillatory_50, t, probes=[0.0, 0.25])
        assert ser.engine == "spectral"
        assert ser.sigma.shape == (101,)
        assert set(ser.probes) == {0.0, 0.25}
        # the field is evaluated on demand, so no rows are stored
        assert ser.rows is None and ser.row_times is None and ser.row_z is None
        assert np.max(ser.conservation) < 1e-2 * 3.0


@pytest.fixture(scope="module", params=MODE_REGIMES)
def regime_solution(request):
    p, count, real_modes = request.param
    sol = solve_spectral(p, step_ic(), count)
    assert np.count_nonzero(sol.mu1.imag == 0.0) == real_modes
    return sol


def written_contraction(sol, t, rate, f):
    """S(f) written out: e^{-t/2B} (cosines . |P| f) plus (S1 e^{mu1 t} + S2 e^{mu2 t}) . f.

    The cosines cos(Im(mu1) t + arg P), P = S1 + conj(S2), are those of the
    oscillating modes, the real exponentials those of the modes with two
    real rates; the rate has mu S in place of S.  On a linspace t the
    value's cosine sum is split at coarse points t[qM] and fine offsets r dt,
    M the ceiling of sqrt(t.size), by cos(a + b) = cos a cos b - sin a sin b:
    (cos C g) cos F^T - (sin C g) sin F^T for each row g = |P| f.  Any other
    t, and the rate, take one cosine per entry.
    """
    pair = sol.mu2 == np.conj(sol.mu1)
    s1, s2 = (sol.mu1 * sol.S1, sol.mu2 * sol.S2) if rate else (sol.S1, sol.S2)
    p = (s1 + np.conj(s2))[pair]
    freq, phase = sol.mu1.imag[pair], np.angle(p)
    g = np.abs(p) * f[..., pair]
    tt = np.asarray(t, dtype=float)
    if not rate and tt.ndim == 1 and np.array_equal(tt, np.linspace(tt[0], tt[-1], tt.size)):
        m = math.ceil(math.sqrt(tt.size))
        coarse = tt[::m, None] * freq + phase
        fine = (np.arange(m) * ((tt[-1] - tt[0]) / (tt.size - 1)))[:, None] * freq
        rows = [((np.cos(coarse) * row) @ np.cos(fine).T
                 - (np.sin(coarse) * row) @ np.sin(fine).T).ravel()[: tt.size]
                for row in g.reshape(-1, g.shape[-1])]
        waves = np.array(rows).T.reshape(tt.shape + g.shape[:-1])
    else:
        waves = np.inner(np.cos(freq * tt[..., None] + phase), g)
    decay = np.exp(-0.5 / sol.params.B * tt)
    total = np.reshape(decay, decay.shape + (1,) * (f.ndim - 1)) * waves
    tr = tt[..., None]
    two_real = (s1.real[~pair] * np.exp(sol.mu1.real[~pair] * tr)
                + s2.real[~pair] * np.exp(sol.mu2.real[~pair] * tr))
    return total + np.inner(two_real, f[..., ~pair])


def contraction_grids():
    """A linspace, the same with one time nudged by an ulp, an uneven grid, two scalars."""
    grid = np.linspace(0.0, 2.0, 801)
    nudged = grid.copy()
    nudged[400] = np.nextafter(nudged[400], 3.0)
    uneven = np.sort(np.random.default_rng(1).uniform(0.0, 2.0, 300))
    return grid, nudged, uneven, 0.0, 0.7


def contraction_factors(sol):
    """The wall shares and, as a 2-d factor, the cosines of three probes."""
    return sol.wall, np.cos(np.multiply.outer(np.array([0.0, 0.25, 0.5]), sol.alphas))


def assert_contraction_near_complex_sum(sol, rate):
    # against Re(sum (S1 e^{mu1 t} + S2 e^{mu2 t}) f), one complex exponential
    # per entry, in units of sum |P f| (|S1| + |S2| for a mode with two real
    # rates): measured at most 4.6e-15 up to 200 modes and 2.0e-14 at 2000,
    # where both forms round phases Im(mu1) t of up to 4e4
    pair = sol.mu2 == np.conj(sol.mu1)
    s1, s2 = (sol.mu1 * sol.S1, sol.mu2 * sol.S2) if rate else (sol.S1, sol.S2)
    weight = np.where(pair, np.abs(s1 + np.conj(s2)), np.abs(s1) + np.abs(s2))
    for t in contraction_grids():
        contract = spectral._contraction(sol, t, rate=rate)
        tt = np.asarray(t)[..., None]
        complex_table = s1 * np.exp(sol.mu1 * tt) + s2 * np.exp(sol.mu2 * tt)
        for f in contraction_factors(sol):
            scale = np.sum(weight * np.abs(f), axis=-1)
            assert np.all(np.abs(contract(f) - np.inner(complex_table, f).real) <= 1e-13 * scale)


class TestModeRegimes:
    @pytest.mark.parametrize("rate", [False, True])
    def test_time_weights_bit_exact(self, regime_solution, rate):
        # the modal time weights as _contraction sums them against a factor:
        # the value on a linspace by angle addition, the rate, scalar t and
        # any other grid with one cosine per entry; both factor shapes
        sol = regime_solution
        for t in contraction_grids():
            contract = spectral._contraction(sol, t, rate=rate)
            for f in contraction_factors(sol):
                value = contract(f)
                expected = written_contraction(sol, t, rate, f)
                assert value.dtype == float and value.shape == expected.shape
                assert value.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rate", [False, True])
    def test_contraction_near_complex_sum(self, regime_solution, rate):
        assert_contraction_near_complex_sum(regime_solution, rate)

    @pytest.mark.parametrize("rate", [False, True])
    def test_contraction_near_complex_sum_at_2000_modes(self, spectral_oscillatory_2000, rate):
        assert_contraction_near_complex_sum(spectral_oscillatory_2000, rate)

    @pytest.mark.parametrize("regime", ["oscillating", "two-real-pole"])
    def test_infinite_time_is_equilibrium_without_warnings(self, regime):
        p = {"oscillating": Params(A=1e-3, B=0.1, L=1.0, N0=3.0),
             "two-real-pole": Params(A=0.5, B=1e-3, L=0.1, N0=3.0)}[regime]
        sol = solve_spectral(p, step_ic(), 50)
        z = np.linspace(-0.5, 0.5, 5)
        t = np.array([0.0, 0.5, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eval_sigma(sol, np.inf) == sol.sigma_eq
            assert sigma_rate(sol, np.inf) == 0.0
            assert np.all(eval_density(sol, z, np.inf) == sol.n_eq)
            assert np.all(density_rate(sol, z, np.inf) == 0.0)
            sigma = eval_sigma(sol, t)
            density = eval_density(sol, z, t)
        assert sigma[2] == sol.sigma_eq and sigma[:2].tobytes() == eval_sigma(sol, t[:2]).tobytes()
        assert np.all(density[2] == sol.n_eq) and np.all(np.isfinite(density))

    def test_imag_residue_sees_broken_conjugate_pair(self, spectral_oscillatory_50):
        # the real table drops the imaginary part; imag_residue evaluates the
        # complex one and must flag amplitudes that are not conjugate
        sol = spectral_oscillatory_50
        z = np.linspace(-0.5, 0.5, 21)
        t = np.linspace(0.0, 2.0, 21)
        assert imag_residue(sol, z, t) < 1e-8 * 3.0
        s2 = sol.S2.copy()
        s2[3] += 1e-6
        broken = dataclasses.replace(sol, S2=s2)
        assert imag_residue(broken, z, t) > 1e-8 * 3.0

    def test_wall_share_bit_exact(self, regime_solution):
        a = regime_solution.alphas
        assert regime_solution.wall.tobytes() == (np.sin(0.5 * a) / a).tobytes()

    def test_conservation_residual_closed_form(self, regime_solution):
        N0 = regime_solution.params.N0
        assert regime_solution.diagnostics["conservation_residual_t0"] <= 1e-14 * N0

    def test_conservation_is_three_sums_bit_for_bit(self, regime_solution, monkeypatch):
        # sigma and the mass share one sum of the wall shares; the residual is
        # that of summing S(wall) and S(2 wall) apart, bit for bit
        sol = regime_solution
        assert_conservation_is_three_sums(monkeypatch, spectral, lambda: (
            to_series(sol, np.linspace(0.0, 2.0, 801), probes=[0.0, 0.25]),
            eval_sigma(sol, np.array([0.0, 0.3, 7.0])),
            eval_sigma(sol, 0.3),
        ))

    def test_series_conservation_closed_form_every_sample(self, regime_solution):
        t = np.linspace(0.0, 2.0, 801)
        ser = to_series(regime_solution, t)
        assert ser.conservation.shape == t.shape
        assert np.max(ser.conservation) <= 1e-12 * regime_solution.params.N0

    def test_trapezoid_residual_is_quadrature_error(self, spectral_oscillatory_100):
        # the slab mass by the trapezoid rule misses conservation by an error
        # that quarters with each halving of the z step
        sol = spectral_oscillatory_100
        sigma0 = eval_sigma(sol, 0.0)
        residuals = []
        for steps in (2000, 4000, 8000, 16000):
            z = np.linspace(0.0, 0.5, steps + 1)
            mass = 2.0 * np.trapezoid(eval_density(sol, z, 0.0), z)
            residuals.append(abs(mass + 2.0 * sigma0 - sol.params.N0))
        assert residuals[0] > 1e-6
        assert np.divide(residuals[:-1], residuals[1:]) == pytest.approx(4.0, rel=0.01)


def test_modal_sums_fields():
    # three terms on a real table with amplitudes, contracted as the pole sum does
    freq = np.array([3.0, 7.5, 11.0])
    wall = np.sin(0.5 * freq) / freq
    amp = np.array([0.4, -0.2, 0.1])
    table = np.exp(np.multiply.outer(-np.array([0.01, 0.1, 0.3]), freq**2))
    z = np.array([0.0, 0.25, 0.5])
    sigma, (centre, grid), cons = modal_sums(lambda f: np.inner(table, amp * f), freq, wall,
                                             1.0, 0.5, 2.0, [0.0, z])
    assert sigma == pytest.approx(0.5 - table @ (amp * wall), abs=1e-15)
    assert centre == pytest.approx(1.0 + table @ amp, abs=1e-15)
    direct = 1.0 + table @ (amp * np.cos(np.multiply.outer(z, freq))).T
    assert grid.shape == (3, 3) and grid == pytest.approx(direct, abs=1e-15)
    # the mass 1 + S(2 wall) and 2 sigma = 1 - 2 S(wall) cancel against N0 = 2
    assert np.max(cons) <= 1e-15
