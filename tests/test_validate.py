"""Parabolic reference solver, engine comparison and series audits."""

import numpy as np
import pytest

from hypersorb.errors import ConfigError, InvalidInput
from hypersorb.fdm import HEAT, LOCAL, NONLOCAL, Grid, default_lambda, march, run_fdm
from hypersorb.params import Params, equilibrium, parabolic_ic, sample_initial, step_ic
from hypersorb.series import thin_indices
from hypersorb.spectral import solve_spectral, to_series
from hypersorb.validate import (
    audit_conservation,
    audit_kinetics,
    compare_engines,
    run_parabolic,
)


def run_parabolic_nonlocal(p, ic, grid, probes=()):
    """The parabolic stencil under the conservation closure, stored as the runners store."""
    (ser,) = march([sample_initial(ic, p, grid.zgrid())], [p], grid, HEAT, NONLOCAL, {}, probes)
    return ser


@pytest.fixture(scope="module")
def diffusive_params():
    return Params(A=0.01, B=1e-4, L=1.0, N0=3.0)


@pytest.fixture(scope="module")
def parabolic_reference(diffusive_params):
    grid = Grid.for_parabolic(100, 2.0, 0.4)
    return run_parabolic(diffusive_params, step_ic(), grid)


class TestRunParabolic:
    def test_monotonic_for_step_data(self, parabolic_reference):
        assert np.all(np.diff(parabolic_reference.sigma) >= -1e-12)

    def test_approaches_equilibrium(self, parabolic_reference, diffusive_params):
        _, sigma_eq = equilibrium(diffusive_params)
        assert parabolic_reference.sigma[-1] > 0.9 * sigma_eq

    def test_equilibrium_value_conservative_closure(self, diffusive_params):
        # the conservation-based closure pins the final state exactly
        grid = Grid.for_parabolic(50, 10.0, 0.4)
        ser = run_parabolic_nonlocal(diffusive_params, step_ic(), grid)
        _, sigma_eq = equilibrium(diffusive_params)
        assert abs(ser.sigma[-1] - sigma_eq) < 0.005 * sigma_eq
        assert np.max(ser.conservation) < 1e-12 * 3.0

    def test_local_closure_first_order_drift(self, diffusive_params):
        # the flux closure leaks mass at O(h); halving h halves the defect
        _, sigma_eq = equilibrium(diffusive_params)
        devs = {}
        for n_z in (50, 100):
            grid = Grid.for_parabolic(n_z, 3.0, 0.4)
            ser = run_parabolic(diffusive_params, parabolic_ic(), grid)
            devs[n_z] = abs(ser.sigma[-1] - sigma_eq)
        assert devs[100] < 0.01 * sigma_eq
        assert devs[100] == pytest.approx(0.5 * devs[50], rel=0.2)

    def test_closure_variants_agree_and_converge(self, diffusive_params):
        # the local flux condition and the conservation closure are the same
        # boundary physics; their gap is discretization and shrinks with h
        _, sigma_eq = equilibrium(diffusive_params)
        gaps = {}
        for n_z in (64, 128):
            grid = Grid.for_parabolic(n_z, 1.0, 0.4)
            loc = run_parabolic(diffusive_params, step_ic(), grid)
            non = run_parabolic_nonlocal(diffusive_params, step_ic(), grid)
            gaps[n_z] = np.max(np.abs(loc.sigma - non.sigma))
        assert gaps[64] < 0.02 * sigma_eq
        assert gaps[128] < 0.7 * gaps[64]

    def test_inert_walls_adsorb_nothing(self):
        # L = 0: the surface never accumulates particles and the bulk relaxes
        # to the uniform state carrying the full mass
        p = Params(A=0.01, B=1e-4, L=0.0, N0=3.0)
        grid = Grid.for_parabolic(32, 1.0, 0.4)
        for run in (run_parabolic, run_parabolic_nonlocal):
            ser = run(p, step_ic(), grid, probes=[0.25])
            # sigma stays within the startup quadrature artifact and decays away
            assert np.max(np.abs(ser.sigma)) <= grid.h * 3.0
            assert abs(ser.sigma[-1]) < 1e-6
            assert ser.probes[0.25][-1] == pytest.approx(3.0, abs=2 * grid.h * 3.0)

    def test_stability_guard(self, diffusive_params):
        grid = Grid(n_z=32, n_t=10, h=0.5 / 32, k=0.01, lam=0.64, T=0.1)
        with pytest.raises(ConfigError):
            run_parabolic(diffusive_params, step_ic(), grid)

    def test_unknown_closure(self, diffusive_params):
        grid = Grid.for_parabolic(16, 0.1, 0.4)
        row0 = sample_initial(step_ic(), diffusive_params, grid.zgrid())
        with pytest.raises(InvalidInput):
            march([row0], [diffusive_params], grid, HEAT, "mystery", {})


class TestCompareEngines:
    def test_identical_series_zero_deviation(self, parabolic_reference):
        tg = np.linspace(0.1, 1.9, 101)
        rep = compare_engines(parabolic_reference, parabolic_reference, tg)
        assert rep.max_sigma_dev == 0.0
        assert rep.rms_sigma_dev == 0.0
        assert rep.passed

    def test_symmetric(self, diffusive_params, parabolic_reference):
        grid = Grid.from_lambda(100, 2.0, default_lambda(diffusive_params.B))
        fser = run_fdm(diffusive_params, step_ic(), grid)
        tg = np.linspace(0.1, 2.0, 201)
        ab = compare_engines(fser, parabolic_reference, tg)
        ba = compare_engines(parabolic_reference, fser, tg)
        assert ab.max_sigma_dev == ba.max_sigma_dev
        assert ab.rms_sigma_dev == ba.rms_sigma_dev

    def test_diffusive_limit_crossover(self, diffusive_params, parabolic_reference):
        # vanishing relaxation time reproduces the diffusive oracle
        grid = Grid.from_lambda(100, 2.0, default_lambda(diffusive_params.B))
        fser = run_fdm(diffusive_params, step_ic(), grid)
        _, sigma_eq = equilibrium(diffusive_params)
        rep = compare_engines(fser, parabolic_reference, np.linspace(0.1, 2.0, 401))
        assert rep.max_sigma_dev < 0.03 * sigma_eq

    def test_distance_to_oracle_shrinks_with_relaxation_time(self, parabolic_reference):
        tg = np.linspace(0.05, 2.0, 201)
        oracle = np.interp(tg, parabolic_reference.t, parabolic_reference.sigma)
        dist = []
        for B in (1e-1, 1e-2, 1e-3, 1e-4):
            p = Params(A=0.01, B=B, L=1.0, N0=3.0)
            ser = run_fdm(p, step_ic(), Grid.from_lambda(100, 2.0, default_lambda(B)))
            dist.append(np.max(np.abs(np.interp(tg, ser.t, ser.sigma) - oracle)))
        assert all(b < a for a, b in zip(dist, dist[1:]))

    def test_non_overlapping_ranges_rejected(self, parabolic_reference):
        with pytest.raises(InvalidInput):
            compare_engines(parabolic_reference, parabolic_reference, np.linspace(0, 5, 11))

    def test_report_serializes(self, parabolic_reference):
        rep = compare_engines(parabolic_reference, parabolic_reference,
                              np.linspace(0.1, 1.0, 11))
        d = rep.to_dict()
        assert d["passed"] is True
        assert "max_sigma_dev" in d
        assert "PASS" in rep.summary()


class TestAudits:
    def test_fdm_kinetics_machine_level(self, fdm_wavefront, wavefront_params):
        res = audit_kinetics(fdm_wavefront, wavefront_params)
        assert np.max(np.abs(res)) < 1e-10 * 3.0

    def test_fdm_conservation_machine_level(self, fdm_wavefront, wavefront_params):
        res = audit_conservation(fdm_wavefront, wavefront_params)
        assert np.max(res) < 1e-12 * 3.0
        assert res[0] < 1e-13 * 3.0  # pinned at t = 0 by construction

    def test_spectral_kinetics_residual_truncation_then_floor(self, oscillatory_params):
        # the residual falls with mode count until the secular-equation
        # approximation floor; it never grows materially past it
        t = np.linspace(0, 2, 801)
        res = {}
        for n in (10, 50, 100):
            ser = to_series(solve_spectral(oscillatory_params, step_ic(), n), t)
            res[n] = np.max(np.abs(audit_kinetics(ser, oscillatory_params)))
        assert res[50] < res[10]
        assert res[100] < 1.25 * res[50]
        assert res[50] < 2e-3 * 3.0

    def test_spectral_kinetics_equilibrium_tail(self, spectral_oscillatory_50,
                                                oscillatory_params):
        # every mode decays like exp(-t/(2B)); by t = 4 the residual is gone
        t = np.linspace(4.0, 8.0, 301)
        ser = to_series(spectral_oscillatory_50, t)
        res = audit_kinetics(ser, oscillatory_params)
        assert np.max(np.abs(res)) < 1e-10

    def test_spectral_conservation_bounded(self, spectral_oscillatory_50,
                                           oscillatory_params):
        ser = to_series(spectral_oscillatory_50, np.linspace(0, 2, 401))
        res = audit_conservation(ser, oscillatory_params)
        assert np.max(res) < 1e-2 * 3.0

    def test_conservation_requires_rows(self, parabolic_reference, diffusive_params):
        ser = parabolic_reference
        bare = type(ser)(t=ser.t, sigma=ser.sigma, surface=ser.surface)
        with pytest.raises(InvalidInput):
            audit_conservation(bare, diffusive_params)

    @pytest.mark.parametrize("max_rows", [1, 0, -1])
    def test_stored_rows_hold_both_endpoints(self, max_rows):
        # fewer than two rows cannot hold both ends, and none would leave
        # audit_conservation nothing to check
        with pytest.raises(InvalidInput, match="max_rows must be at least 2"):
            thin_indices(10, max_rows)
        p = Params(A=0.01, B=1e-3, L=1.0, N0=3.0)
        grid = Grid.for_parabolic(10, 0.01)
        row0 = sample_initial(step_ic(), p, grid.zgrid())
        with pytest.raises(InvalidInput, match="max_rows must be at least 2"):
            march([row0], [p], grid, HEAT, LOCAL, {}, max_rows=max_rows)

    def test_two_stored_rows_are_the_endpoints(self):
        assert thin_indices(10, 2).tolist() == [0, 9]
