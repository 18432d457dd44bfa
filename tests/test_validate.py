"""Engine comparison against the exact diffusive reference, and series audits."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hypersorb.errors import InvalidInput
from hypersorb.fdm import Grid, default_lambda, march, run_fdm
from hypersorb.params import Params, equilibrium, sample_initial, step_ic
from hypersorb.series import thin_indices
from hypersorb.seriesio import read_series_csv, write_series_csv
from hypersorb.spectral import solve_spectral, to_series
from hypersorb.validate import audit_conservation, audit_kinetics, compare_engines, run_parabolic


@pytest.fixture(scope="module")
def diffusive_params():
    return Params(A=0.01, B=1e-4, L=1.0, N0=3.0)


@pytest.fixture(scope="module")
def parabolic_reference(diffusive_params):
    # the exact B = 0 solution (the sum ignores B)
    return run_parabolic(diffusive_params, step_ic(), np.linspace(0.0, 2.0, 801))


class TestRunParabolic:
    """validate.run_parabolic, the name the exact B = 0 sum keeps in this module."""

    def test_monotonic_for_step_data(self, parabolic_reference):
        assert np.all(np.diff(parabolic_reference.sigma) >= -1e-12)

    def test_approaches_equilibrium(self, parabolic_reference, diffusive_params):
        _, sigma_eq = equilibrium(diffusive_params)
        assert parabolic_reference.sigma[-1] > 0.9 * sigma_eq

    def test_inert_walls_adsorb_nothing(self):
        # L = 0: the surface never accumulates particles and the bulk keeps
        # the uniform state carrying the full mass
        p = Params(A=0.01, B=1e-4, L=0.0, N0=3.0)
        ser = run_parabolic(p, step_ic(), np.linspace(0.0, 1.0, 201), probes=[0.25])
        assert np.all(ser.sigma == 0.0)
        assert ser.probes[0.25][-1] == pytest.approx(3.0, abs=1e-12)


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

    @pytest.mark.parametrize("tgrid", [
        pytest.param(np.array([]), id="empty"),
        pytest.param(np.linspace(0.1, 1.0, 10).reshape(2, 5), id="2-d"),
        pytest.param(np.array([0.1, np.nan, 1.0]), id="nan"),
    ])
    def test_bad_grid_refused(self, parabolic_reference, tgrid):
        with pytest.raises(InvalidInput, match="non-empty 1-d array of finite times"):
            compare_engines(parabolic_reference, parabolic_reference, tgrid)

    def test_tolerance_needs_parameters(self, parabolic_reference):
        # the default tolerance is 5 % of the parameter set's sigma_eq
        bare = replace(parabolic_reference, params=None)
        tgrid = np.linspace(0.1, 1.0, 11)
        with pytest.raises(InvalidInput, match="sigma_tol required"):
            compare_engines(bare, bare, tgrid)
        assert compare_engines(bare, bare, tgrid, sigma_tol=0.1).passed

    def test_series_without_residual_reports_nan(self, parabolic_reference, tmp_path):
        # a series read back from CSV carries no conservation residual, so the
        # report gives NaN for it, and the other series' largest residual
        path = tmp_path / "parabolic.csv"
        write_series_csv(parabolic_reference, path)
        a, b = read_series_csv(path), read_series_csv(path)
        assert a.conservation is None and b.conservation is None
        tgrid = np.linspace(0.1, 1.0, 11)
        rep = compare_engines(a, b, tgrid, sigma_tol=0.1)
        assert math.isnan(rep.conservation_a) and math.isnan(rep.conservation_b)
        assert rep.max_sigma_dev == 0.0 and rep.passed
        mixed = compare_engines(a, parabolic_reference, tgrid)
        assert math.isnan(mixed.conservation_a)
        assert mixed.conservation_b == float(np.max(parabolic_reference.conservation))

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

    def test_conservation_requires_rows(self, parabolic_reference, diffusive_params,
                                        spectral_oscillatory_50, oscillatory_params):
        # only an fdm series stores rows: a bare series and both sum engines'
        # series are refused
        ser = parabolic_reference
        bare = type(ser)(t=ser.t, sigma=ser.sigma, surface=ser.surface)
        modal = to_series(spectral_oscillatory_50, np.linspace(0, 2, 401))
        for series, p in ((bare, diffusive_params), (ser, diffusive_params),
                          (modal, oscillatory_params)):
            with pytest.raises(InvalidInput, match="no spatial rows"):
                audit_conservation(series, p)

    @pytest.mark.parametrize("max_rows", [1, 0, -1])
    def test_stored_rows_hold_both_endpoints(self, max_rows):
        # fewer than two rows cannot hold both ends, and none would leave
        # audit_conservation nothing to check
        with pytest.raises(InvalidInput, match="max_rows must be at least 2"):
            thin_indices(10, max_rows)
        p = Params(A=0.01, B=1e-3, L=1.0, N0=3.0)
        grid = Grid.from_lambda(10, 0.01, default_lambda(p.B))
        row0 = sample_initial(step_ic(), p, grid.zgrid())
        with pytest.raises(InvalidInput, match="max_rows must be at least 2"):
            march([row0], [p], grid, max_rows=max_rows)

    def test_two_stored_rows_are_the_endpoints(self):
        assert thin_indices(10, 2).tolist() == [0, 9]
