"""Modal engine: Gram entries, orthogonalization, projection, evaluation."""

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
    gram_matrix,
    imag_residue,
    orthogonality_residual,
    orthogonalize,
    phi_integral,
    project_initial,
    sigma_rate,
    solve_spectral,
    to_series,
)
from conftest import MODE_REGIMES, first_local_max


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

    def test_invalid_frequency(self):
        with pytest.raises(InvalidInput):
            gram_matrix([-1.0, 2.0])
        with pytest.raises(InvalidInput):
            gram_matrix([math.nan, 2.0])


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
        # the refusal bound brackets the guard's condition number within 1e-9
        alphas = [m.alpha for m in find_eigenvalues(oscillatory_params, count)]
        cond = np.linalg.cond(gram_matrix(alphas))
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

    @given(
        A=st.floats(min_value=1e-4, max_value=10.0),
        B=st.floats(min_value=1e-3, max_value=1.0),
        L=st.one_of(st.just(0.0), st.floats(min_value=1e-2, max_value=100.0)),
        count=st.integers(min_value=5, max_value=120),
    )
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
        C = project_initial(step_ic(), basis, p)
        assert np.max(np.abs(C - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestProjection:
    def test_coefficients_match_quadrature(self, oscillatory_params):
        p = oscillatory_params
        basis = orthogonalize([m.alpha for m in find_eigenvalues(p, 8)])
        n_eq, _ = equilibrium(p)
        C = project_initial(step_ic(), basis, p)
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
        C = project_initial(step_ic(), basis, p)
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
        sol = spectral_oscillatory_50
        z = np.linspace(0, 0.5, 2001)
        for t in (0.1, 0.5, 2.0):
            mass = 2.0 * np.trapezoid(eval_density(sol, z, t), z)
            assert abs(mass + 2.0 * eval_sigma(sol, t) - 3.0) < 1e-2 * 3.0

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


class TestSolveSpectral:
    def test_requires_wave_regime(self):
        with pytest.raises(InvalidInput):
            solve_spectral(Params(A=0.5, B=0.0, L=0.1, N0=1.0), step_ic())

    def test_diagnostics_reported(self, spectral_oscillatory_50):
        d = spectral_oscillatory_50.diagnostics
        assert d["mode_count"] == 50
        assert d["reconstruction_max_error"] < 0.5
        assert d["conservation_residual_t0"] < 1e-3
        assert d["orthogonality_residual"] < 1e-8

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
        assert ser.rows.shape[1] == ser.row_z.size
        assert np.max(ser.conservation) < 1e-2 * 3.0


@pytest.fixture(scope="module", params=MODE_REGIMES)
def regime_solution(request):
    p, count, real_modes = request.param
    sol = solve_spectral(p, step_ic(), count)
    assert np.count_nonzero(sol.mu1.imag == 0.0) == real_modes
    return sol


class TestModeRegimes:
    @pytest.mark.parametrize("rate", [False, True])
    def test_time_weights_bit_exact(self, regime_solution, rate):
        sol = regime_solution
        for t in (np.linspace(0.0, 2.0, 801), 0.0, 0.7):
            w1 = sol.S1 * np.exp(sol.mu1 * np.asarray(t)[..., None])
            w2 = sol.S2 * np.exp(sol.mu2 * np.asarray(t)[..., None])
            expected = sol.mu1 * w1 + sol.mu2 * w2 if rate else w1 + w2
            assert spectral._time_weights(sol, t, rate=rate).tobytes() == expected.tobytes()

    def test_conservation_residual_closed_form(self, regime_solution):
        N0 = regime_solution.params.N0
        assert regime_solution.diagnostics["conservation_residual_t0"] <= 1e-14 * N0

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
