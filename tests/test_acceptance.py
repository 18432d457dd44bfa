"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds (run with -s to see
them); a failed assertion marks the criterion FAIL.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hypersorb.eigen import eigen_grid, find_eigenvalues
from hypersorb.fdm import Grid, default_lambda, iterate, run_fdm
from hypersorb.params import Params, alpha_critical, equilibrium, step_ic
from hypersorb.spectral import (
    eval_density,
    eval_sigma,
    gram_matrix,
    imag_residue,
    orthogonality_residual,
    sigma_rate,
    solve_spectral,
    to_series,
)
from hypersorb.validate import compare_engines, run_parabolic
from conftest import first_local_max, interior_maxima


def report(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


class TestAcceptance:
    def test_1_equilibrium(self, wavefront_params):
        # sigma and N reach 1.000 +- 0.005 by T = 10 at N0=3, L=1, A=0.01, B=0.1
        p = wavefront_params
        grid = Grid.from_lambda(100, 10.0, default_lambda(p.B))
        fser = run_fdm(p, step_ic(), grid, probes=[0.0])
        assert fser.sigma[-1] == pytest.approx(1.0, abs=0.005)
        assert fser.probes[0.0][-1] == pytest.approx(1.0, abs=0.005)
        sol = solve_spectral(p, step_ic(), 50)
        assert eval_sigma(sol, 10.0) == pytest.approx(1.0, abs=0.005)
        assert eval_density(sol, 0.0, 10.0) == pytest.approx(1.0, abs=0.005)
        report(1, "equilibrium state")

    def test_2_first_maximum_timing(self, fdm_wavefront, spectral_wavefront_50):
        t_fdm = first_local_max(fdm_wavefront.t, fdm_wavefront.sigma, 0.2)
        assert t_fdm == pytest.approx(0.32, abs=0.05)
        t = np.linspace(0, 2, 4001)
        s = eval_sigma(spectral_wavefront_50, t)
        t_spec = first_local_max(t, s, 0.2)
        assert abs(t_spec - t_fdm) <= 0.03
        report(2, f"first maximum at t*={t_fdm:.3f}")

    def test_3_wavefront_arrival(self, fdm_wavefront):
        probe = fdm_wavefront.probes[0.0]
        t = fdm_wavefront.t
        early = t < 0.13
        assert np.max(np.abs(probe[early] - 3.0)) < 0.01 * 3.0
        before = t < 0.20
        assert np.max(np.abs(probe[before] - 3.0)) > 0.05 * 3.0
        report(3, "wavefront timing at the slab centre")

    def test_4_initial_slope_scaling(self, spectral_wavefront_50, wavefront_params):
        slopes = {}
        s0 = {}
        grids = {}
        for B in (1e-2, 1e-1):
            p = Params(A=0.01, B=B, L=1.0, N0=3.0)
            grid = Grid.from_lambda(200, 0.2, default_lambda(B))
            ser = run_fdm(p, step_ic(), grid)
            window = ser.t <= 0.05
            slopes[B] = np.max(np.diff(ser.sigma[window]) / np.diff(ser.t[window]))
            s0[B] = (ser.sigma[1] - ser.sigma[0]) / ser.t[1]
            grids[B] = grid
        ratio = slopes[1e-2] / slopes[1e-1]
        assert ratio == pytest.approx(math.sqrt(10.0), rel=0.20)
        # the derivative at t* = 0 itself vanishes within discretization error:
        # at the landmark grid it is a small fraction of the physical slope and
        # dies off when the step ratio is refined
        assert abs(s0[1e-1]) < 0.05 * slopes[1e-1]
        fine = run_fdm(
            Params(A=0.01, B=0.1, L=1.0, N0=3.0),
            step_ic(),
            Grid.from_lambda(200, 0.05, grids[1e-1].lam / 2),
        )
        s0_fine = (fine.sigma[1] - fine.sigma[0]) / fine.t[1]
        assert abs(s0_fine) < 0.6 * abs(s0[1e-1])
        # the modal solution satisfies the zero initial derivative identically
        c_star = 1.0 / math.sqrt(wavefront_params.B)
        assert abs(sigma_rate(spectral_wavefront_50, 0.0)) < 1e-6 * 3.0 * c_star
        report(4, f"initial slope scaling, ratio {ratio:.3f} vs sqrt(10)")

    def test_5_monotonicity_crossover(self, fdm_small_relaxation, fdm_oscillatory):
        _, sigma_eq = equilibrium(fdm_small_relaxation.params)
        assert interior_maxima(
            fdm_small_relaxation.t, fdm_small_relaxation.sigma, 1e-3 * sigma_eq
        ) == []
        hits = interior_maxima(fdm_oscillatory.t, fdm_oscillatory.sigma, 1e-3 * sigma_eq)
        assert len(hits) >= 1
        report(5, "monotonic at B=1e-3, oscillatory at B=0.1")

    def test_6_eigenvalue_landmarks(self, secular_landmark_params):
        p = secular_landmark_params
        modes = find_eigenvalues(p, 10)
        for m in modes:
            assert abs(m.alpha - 2 * m.index * math.pi) < 0.5
        a_c = alpha_critical(p)
        grid = np.arange(a_c + 1e-3, 100.0, 1e-3)
        pole_dist = np.abs(grid - (2 * np.round((grid / np.pi - 1) / 2) + 1) * np.pi)
        values = eigen_grid(p, grid[pole_dist > 1e-6])["im_E"]
        assert np.all(values > 0)  # sign-constant: no zeros above the critical point
        report(6, "ten roots near 2m*pi; Im part never vanishes")

    def test_7_diffusive_oracle_equivalence(self):
        p = Params(A=0.01, B=1e-4, L=1.0, N0=3.0)
        _, sigma_eq = equilibrium(p)
        fser = run_fdm(p, step_ic(), Grid.from_lambda(100, 2.0, default_lambda(p.B)))
        pser = run_parabolic(p, step_ic(), Grid.for_parabolic(100, 2.0, 0.4))
        rep = compare_engines(fser, pser, np.linspace(0.1, 2.0, 401),
                              sigma_tol=0.03 * sigma_eq)
        assert rep.passed, rep.summary()
        report(7, f"parabolic limit, max dev {rep.max_sigma_dev:.4f}")

    def test_8_engine_cross_validation(
        self, fdm_oscillatory, spectral_oscillatory_50, spectral_oscillatory_100
    ):
        _, sigma_eq = equilibrium(fdm_oscillatory.params)
        tgrid = np.linspace(0.05, 2.0, 401)
        s50 = to_series(spectral_oscillatory_50, np.linspace(0, 2, 1601))
        rep50 = compare_engines(s50, fdm_oscillatory, tgrid, sigma_tol=0.05 * sigma_eq)
        assert rep50.passed, rep50.summary()
        s100 = to_series(spectral_oscillatory_100, np.linspace(0, 2, 1601))
        rep100 = compare_engines(s100, fdm_oscillatory, tgrid, sigma_tol=0.03 * sigma_eq)
        assert rep100.passed, rep100.summary()
        report(8, f"cross-validation, {rep50.max_sigma_dev:.4f} (50) / "
                  f"{rep100.max_sigma_dev:.4f} (100)")

    def test_9_property_suite(self, fdm_wavefront, spectral_oscillatory_50,
                              oscillatory_params):
        # exact discrete conservation, every level
        assert np.max(fdm_wavefront.conservation) < 1e-12 * 3.0
        # realness of the modal evaluation
        z = np.linspace(-0.5, 0.5, 21)
        t = np.linspace(0.0, 2.0, 21)
        assert imag_residue(spectral_oscillatory_50, z, t) < 1e-8 * 3.0
        # orthogonalization residual
        assert orthogonality_residual(spectral_oscillatory_50.basis) < 1e-8
        # exponent identities on the production mode set
        p = oscillatory_params
        for m in spectral_oscillatory_50.modes:
            mu = m.exponents
            assert abs(mu.mu1 * mu.mu2 - m.alpha**2 / p.B) <= 1e-10 * abs(mu.mu1 * mu.mu2)
            assert abs(mu.mu1 + mu.mu2 + 1.0 / p.B) <= 1e-10 * abs(mu.mu1 + mu.mu2)
        # closed-form Gram entries against adaptive quadrature
        alphas = spectral_oscillatory_50.alphas[:6]
        gram = gram_matrix(alphas)
        for i, a in enumerate(alphas):
            for j, b in enumerate(alphas):
                oracle = quad(lambda zz: math.cos(a * zz) * math.cos(b * zz),
                              -0.5, 0.5, limit=200)[0]
                assert abs(gram[i, j] - oracle) < 1e-10
        # constant state with inert walls: bitwise exact on a dyadic grid
        dyadic = Params(A=0.25, B=0.25, L=0.0, N0=3.0)
        grid = Grid.from_lambda(128, 1.0, 0.25)
        row0 = np.full(grid.n_z + 1, 3.0)
        for j, row, sigma, wall, res in iterate(row0, grid, dyadic):
            assert sigma == 0.0 and np.all(row == 3.0)
        report(9, "property suite")
