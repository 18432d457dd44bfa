"""Finite-difference engine: stencils, wall closure, full runs."""

import math

import numpy as np
import pytest

from hypersorb import fdm
from hypersorb.errors import ConfigError, InvalidInput, StabilityError
from hypersorb.fdm import (
    HEAT,
    LOCAL,
    MAX_RECORD,
    RING,
    NONLOCAL,
    WAVE,
    Grid,
    apply_surface,
    check_grid,
    default_lambda,
    march,
    run_fdm,
    step_interior,
)
from hypersorb.params import Params, equilibrium, parabolic_ic, sample_initial, step_ic
from conftest import first_local_max, interior_maxima


def interior_coefficients(grid: Grid, B: float) -> tuple[float, float, float]:
    """Reference: direct-form weights (neighbour, same-node, two-back) of the wave stencil.

    They sum to one, so constant states are preserved exactly.
    """
    lam, k = grid.lam, grid.k
    den = 2.0 * B + k
    a = 2.0 * lam * lam / den
    b = 4.0 * (B - lam * lam) / den
    c = -(2.0 * B - k) / den
    return a, b, c


class TestGrid:
    def test_from_lambda_respects_ratio(self):
        g = Grid.from_lambda(100, 2.0, 0.025)
        assert g.h == 0.005
        assert g.lam <= 0.025 + 1e-15
        assert g.n_t * g.k == pytest.approx(2.0, rel=1e-15)

    def test_grids_cover_domain(self):
        g = Grid.from_lambda(16, 1.0, 0.02)
        z = g.zgrid()
        t = g.tgrid()
        assert z[0] == 0.0 and z[-1] == 0.5 and z.size == 17
        assert t[0] == 0.0 and t[-1] == 1.0 and t.size == g.n_t + 1

    def test_validation(self):
        with pytest.raises(InvalidInput):
            Grid.from_lambda(4, 1.0, 0.02)  # too coarse
        with pytest.raises(InvalidInput):
            Grid.from_lambda(16, 0.0, 0.02)
        with pytest.raises(InvalidInput):
            Grid.from_lambda(16, 1.0, 0.0)
        with pytest.raises(InvalidInput):
            Grid.from_lambda(16, math.inf, 0.02)
        with pytest.raises(InvalidInput):
            Grid.for_parabolic(16, math.inf)

    @pytest.mark.parametrize("n_z", [0, -5, 7])
    def test_builders_refuse_a_coarse_grid_before_dividing(self, n_z):
        # no ZeroDivisionError at 0, no step-count message at a negative n_z
        for build in (lambda: Grid.from_lambda(n_z, 1.0, 0.02), lambda: Grid.for_parabolic(n_z, 1.0)):
            with pytest.raises(InvalidInput, match=f"n_z must be at least 8, got {n_z}"):
                build()

    def test_default_lambda(self):
        assert default_lambda(1e-3) == pytest.approx(0.5 * math.sqrt(1e-3))
        assert default_lambda(1e-3) <= 2.5e-2
        assert default_lambda(0.25) == 2.5e-2  # capped
        with pytest.raises(ConfigError):
            default_lambda(0.0)


class TestStencils:
    # dyadic parameters make every stencil weight exactly representable
    B, lam = 0.25, 0.25
    grid = Grid.from_lambda(128, 1.0, 0.25)

    def first_level(self, row):
        """Level 1 of a one-level wave march from row: the start-up stencil."""
        g = self.grid
        one = Grid(n_z=g.n_z, n_t=1, h=g.h, k=g.k, lam=g.lam, T=g.k)
        p = Params(A=0.25, B=self.B, L=1.0, N0=3.0)
        (ser,) = march([row], [p], one, WAVE, NONLOCAL, {}, max_rows=one.n_t + 1)
        return ser.rows[1]

    def test_first_step_preserves_constants_exactly(self):
        row = np.full(self.grid.n_z + 1, 3.0)
        out = self.first_level(row)
        assert np.array_equal(out[1:-1], row[1:-1])

    def test_first_step_against_direct_formula(self):
        # node next to an emptied wall: N0 (lam^2/2B + (B - lam^2)/B)
        row = np.full(self.grid.n_z + 1, 3.0)
        row[-1] = 0.0
        out = self.first_level(row)
        expected = 3.0 * (self.lam**2 / (2 * self.B) + (self.B - self.lam**2) / self.B)
        assert expected == 2.625
        assert out[-2] == expected
        assert np.array_equal(out[1:-2], row[1:-2])  # untouched away from the jump

    def test_interior_preserves_constants_exactly(self):
        row = np.full(self.grid.n_z + 1, 3.0)
        out = step_interior(row, row, self.grid, self.B)
        assert np.array_equal(out, row)

    def test_interior_coefficients_sum_to_one(self):
        for B, lam, n_z in [(0.1, 0.025, 100), (1e-3, 0.0158, 64), (0.25, 0.25, 16)]:
            g = Grid.from_lambda(n_z, 1.0, lam)
            a, b, c = interior_coefficients(g, B)
            assert 2 * a + b + c == pytest.approx(1.0, rel=1e-14)

    def test_increment_form_equals_direct_form(self):
        rng = np.random.default_rng(7)
        g = Grid.from_lambda(32, 0.5, 0.02)
        B = 1e-3
        prev = 3.0 + rng.standard_normal(33)
        prev2 = 3.0 + rng.standard_normal(33)
        out = step_interior(prev, prev2, g, B)
        a, b, c = interior_coefficients(g, B)
        direct = a * (prev[2:] + prev[:-2]) + b * prev[1:-1] + c * prev2[1:-1]
        np.testing.assert_allclose(out[1:-1], direct, rtol=1e-12)

    @pytest.mark.parametrize("q", [3, 9, 31])
    def test_plane_wave_amplification(self, q):
        # periodic harness: a discrete plane wave advances by the root of the
        # stencil's characteristic polynomial
        B, lam = 1e-3, 2.5e-2
        grid = Grid.from_lambda(20, 0.1, lam)
        a, b, c = interior_coefficients(grid, B)
        M = 64
        theta = 2 * math.pi * q / M
        g_root = np.roots([1.0, -(2 * a * math.cos(theta) + b), -c])[0]
        assert np.all(np.abs(np.roots([1.0, -(2 * a * math.cos(theta) + b), -c])) <= 1 + 1e-12)
        wave = np.exp(1j * theta * np.arange(M))
        prev2, prev = wave, g_root * wave

        def ring_step(p1, p2):
            pad1 = np.concatenate([p1[-1:], p1, p1[:1]])
            pad2 = np.concatenate([p2[-1:], p2, p2[:1]])
            out = step_interior(pad1.real, pad2.real, grid, B) + 1j * step_interior(
                pad1.imag, pad2.imag, grid, B
            )
            return out[1:-1]

        new = ring_step(prev, prev2)
        assert np.max(np.abs(new - g_root**2 * wave)) < 1e-12


class TestBoundaries:
    def test_equilibrium_fixed_point(self):
        p = Params(A=0.01, B=0.1, L=1.0, N0=3.0)
        n_eq, sigma_eq = equilibrium(p)
        g = Grid.from_lambda(64, 1.0, 0.025)
        row = np.full(g.n_z + 1, n_eq)
        wall, sigma = apply_surface(row, sigma_eq, g, p)
        assert wall == pytest.approx(n_eq, abs=1e-12)
        assert sigma == pytest.approx(sigma_eq, abs=1e-12)

    def test_conservation_identity_by_construction(self):
        rng = np.random.default_rng(3)
        p = Params(A=0.01, B=0.1, L=1.0, N0=3.0)
        g = Grid.from_lambda(64, 1.0, 0.025)
        row = 1.0 + rng.random(g.n_z + 1)
        _, sigma = apply_surface(row, 0.4, g, p)
        mass = np.trapezoid(row, g.zgrid())
        assert abs(2 * mass + 2 * sigma - 3.0) < 1e-14 * 3.0

    def test_apply_surface_writes_the_wall_node_only(self):
        # the nonlocal closure written out for one row: the row's own node 0
        # enters the mass, and only the wall node changes
        rng = np.random.default_rng(5)
        p = Params(A=0.01, B=0.1, L=1.0, N0=3.0)
        g = Grid.from_lambda(64, 1.0, 0.025)
        h, k, sigma_prev = g.h, g.k, 0.4
        row = 1.0 + rng.random(g.n_z + 1)
        before = row.copy()
        wall, sigma = apply_surface(row, sigma_prev, g, p)
        rhs_mass = 0.5 * p.N0 - h * (0.5 * before[0] + float(np.add.reduce(before[1:-1])))
        den = k * p.L + (p.A + k) * 0.5 * h
        expected_wall = ((p.A + k) * rhs_mass - p.A * sigma_prev) / den
        assert wall == expected_wall and row[-1] == wall
        assert sigma == rhs_mass - 0.5 * h * expected_wall
        assert row[:-1].tobytes() == before[:-1].tobytes()

    def test_degenerate_closure_rejected(self):
        p = Params(A=1e-10, B=0.1, L=0.0, N0=3.0)
        g = Grid(n_z=8, n_t=1, h=1e-15, k=1.0, lam=1e15, T=1.0)
        with pytest.raises(ConfigError):
            apply_surface(np.full(9, 1.0), 0.0, g, p)


class TestRunFdm:
    def test_first_maximum_landmark(self, fdm_wavefront):
        t_max = first_local_max(fdm_wavefront.t, fdm_wavefront.sigma, 0.2)
        assert t_max == pytest.approx(0.32, abs=0.05)

    def test_monotonic_in_small_relaxation_regime(self, fdm_small_relaxation):
        ser = fdm_small_relaxation
        assert interior_maxima(ser.t, ser.sigma, 1e-3) == []

    def test_exact_conservation_every_level(self, fdm_wavefront):
        assert np.max(fdm_wavefront.conservation) < 1e-12 * 3.0

    def test_finite_speed_holding_time(self, fdm_wavefront, wavefront_params):
        # the centre keeps its initial density until the front has covered
        # 80% of the half width
        hold = 0.8 * 0.5 * math.sqrt(wavefront_params.B)
        probe = fdm_wavefront.probes[0.0]
        window = fdm_wavefront.t < hold
        assert np.max(np.abs(probe[window] - 3.0)) < 1e-2 * 3.0

    def test_initial_sigma_is_quadrature_of_step(self, fdm_wavefront):
        # conservation pins sigma(0) to the trapezoidal defect of the jump, h N0/2
        g = fdm_wavefront.meta["grid"]
        assert fdm_wavefront.sigma[0] == pytest.approx(g["h"] * 3.0 / 2.0, abs=1e-15)

    def test_first_step_sigma_increment_small(self, fdm_wavefront, wavefront_params):
        s0, s1 = fdm_wavefront.sigma[:2]
        k = fdm_wavefront.t[1]
        c_star = 1.0 / math.sqrt(wavefront_params.B)
        assert s1 > 0
        assert abs(s1 - s0) < k * 3.0 * c_star  # well below the landmark slope scale

    def test_smooth_data_suppresses_bulk_oscillations(self, wavefront_params, fdm_wavefront):
        grid = Grid.from_lambda(200, 2.0, default_lambda(wavefront_params.B))
        smooth = run_fdm(wavefront_params, parabolic_ic(), grid, probes=[0.0])

        def total_rise(x):
            d = np.diff(x)
            return float(np.sum(d[d > 0]))

        rough = total_rise(fdm_wavefront.probes[0.0])
        gentle = total_rise(smooth.probes[0.0])
        assert gentle < 0.2 * rough

    def test_smooth_initial_sigma_second_order(self, wavefront_params):
        grid = Grid.from_lambda(100, 0.1, 0.025)
        ser = run_fdm(wavefront_params, parabolic_ic(), grid)
        assert abs(ser.sigma[0]) < grid.h**2 * 3.0

    def test_grid_refinement_converges(self, wavefront_params):
        _, sigma_eq = equilibrium(wavefront_params)
        lam = default_lambda(wavefront_params.B)
        coarse = run_fdm(wavefront_params, parabolic_ic(), Grid.from_lambda(100, 2.0, lam))
        fine = run_fdm(wavefront_params, parabolic_ic(), Grid.from_lambda(200, 2.0, lam))
        for tq in (0.5, 1.0, 2.0):
            a = np.interp(tq, coarse.t, coarse.sigma)
            b = np.interp(tq, fine.t, fine.sigma)
            assert abs(a - b) < 0.01 * sigma_eq

    def test_stability_at_documented_ratio(self):
        # lambda = 2.5e-2 runs stably at B = 1e-3 over the full window
        p = Params(A=0.01, B=1e-3, L=1.0, N0=3.0)
        grid = Grid.from_lambda(64, 2.0, 2.5e-2)
        ser = run_fdm(p, step_ic(), grid)
        assert np.all(np.isfinite(ser.sigma))
        assert np.max(ser.conservation) < 1e-12 * 3.0

    def test_unstable_ratio_detected(self):
        p = Params(A=0.01, B=1e-3, L=1.0, N0=3.0)
        grid = Grid.from_lambda(64, 2.0, 0.05)  # above sqrt(B) ~ 0.0316
        with pytest.raises(ConfigError):
            run_fdm(p, step_ic(), grid)
        row0 = sample_initial(step_ic(), p, grid.zgrid())
        with pytest.raises(StabilityError) as err:
            march([row0], [p], grid, WAVE, NONLOCAL, {})
        assert "lambda" in str(err.value)

    def test_divergence_and_overflow_in_one_ring_pass(self, monkeypatch):
        # lambda = 1000 sqrt(B): level 21 crosses the ceiling and, in the
        # same pass around the ring, level 63 overflows; the march names
        # level 21 and warns of nothing (warnings are errors here)
        p = Params(A=0.01, B=0.1, L=1.0, N0=3.0)
        n_z, lam = 16, 1000.0 * math.sqrt(p.B)
        h = 0.5 / n_z

        def grid(n_t):
            return Grid(n_z=n_z, n_t=n_t, h=h, k=lam * h, lam=lam, T=n_t * lam * h)

        row0 = sample_initial(step_ic(), p, grid(1).zgrid())
        with pytest.raises(StabilityError) as err:
            march([row0], [p], grid(100), WAVE, NONLOCAL, {})
        assert str(err.value) == (
            "density diverging at level j=21, node i=4 (lambda=316.2, B=0.1); reduce lambda"
        )
        # level 21 from the two levels before it: node 4 is the first past the ceiling
        (ser,) = march([row0], [p], grid(20), WAVE, NONLOCAL, {}, max_rows=21)
        assert np.max(np.abs(ser.rows)) < 1e100 * p.N0
        level = step_interior(ser.rows[20], ser.rows[19], grid(20), p.B)
        level[0] = level[1]
        assert int(np.argmax(np.abs(level[:-1]) >= 1e100 * p.N0)) == 4
        # unchecked, the first pass (levels 0 .. RING - 1) overflows
        monkeypatch.setattr(fdm, "_check_divergence", lambda *args: None)
        with np.errstate(over="ignore", invalid="ignore"):
            (ser,) = march([row0], [p], grid(RING - 1), WAVE, NONLOCAL, {}, max_rows=RING)
        assert not np.all(np.isfinite(ser.rows))

    def test_wave_batch_mixes_B(self):
        # each row of a wave batch meets its own B; a heat batch never reads B
        ps = [Params(A=0.01, B=0.1, L=1.0, N0=3.0), Params(A=0.01, B=0.5, L=1.0, N0=3.0)]
        for grid, stencil, closure in ((Grid.from_lambda(16, 0.05, 0.01), WAVE, NONLOCAL),
                                       (Grid.for_parabolic(16, 0.05), HEAT, LOCAL)):
            rows0 = [sample_initial(step_ic(), p, grid.zgrid()) for p in ps]
            batch = march(rows0, ps, grid, stencil, closure, {})
            for row0, p, ser in zip(rows0, ps, batch):
                (one,) = march([row0], [p], grid, stencil, closure, {})
                assert ser.params == p
                assert ser.sigma.tobytes() == one.sigma.tobytes()
                assert ser.rows.tobytes() == one.rows.tobytes()
            assert (batch[0].sigma.tobytes() != batch[1].sigma.tobytes()) == (stencil == WAVE)

    def test_wave_regime_required(self):
        p = Params(A=0.01, B=0.0, L=1.0, N0=3.0)
        with pytest.raises(ConfigError):
            run_fdm(p, step_ic(), Grid.from_lambda(16, 1.0, 0.02))

    @pytest.mark.parametrize("stencil, closure", [("Wave", NONLOCAL), (WAVE, "Nonlocal"), ("", "")])
    def test_march_refuses_unknown_names(self, wavefront_params, stencil, closure):
        grid = Grid.from_lambda(16, 0.01, 0.02)
        with pytest.raises(InvalidInput, match="march needs stencil 'wave' or 'heat'"):
            march([np.full(17, 3.0)], [wavefront_params], grid, stencil, closure, {})

    def test_record_bound_admits_the_oracle_march(self):
        # the heat march that acceptance criterion 7 takes as its reference, n_z = 100, T = 2
        oracle = Grid.for_parabolic(100, 2.0, 0.4)
        assert oracle.n_t + 1 == 200_001
        check_grid(oracle, HEAT, 0.0)
        h = 0.5 / 16
        at = Grid(n_z=16, n_t=MAX_RECORD // 2 - 1, h=h, k=h * h / 4, lam=h / 4, T=1.0)
        check_grid(at, HEAT, 0.0, n_points=2)
        with pytest.raises(ConfigError, match="record bound"):
            check_grid(at, HEAT, 0.0, n_points=3)

    def test_record_bound_counts_the_row_buffers(self):
        # a march holds RING + STORED_ROWS rows of n_z + 1 nodes a point: n_z <= 21,504 for one
        def grid(n_z):
            h = 0.5 / n_z
            return Grid(n_z=n_z, n_t=8000, h=h, k=0.02 * h, lam=0.02, T=8000 * 0.02 * h)

        assert (RING + fdm.STORED_ROWS) * 21_505 <= MAX_RECORD < (RING + fdm.STORED_ROWS) * 21_506
        check_grid(grid(21_504), WAVE, 0.1)
        with pytest.raises(ConfigError, match="rows of 21506 nodes x 1 point.* record bound"):
            check_grid(grid(21_505), WAVE, 0.1)
        check_grid(grid(10_751), WAVE, 0.1, n_points=2)
        with pytest.raises(ConfigError, match="rows of 10753 nodes x 2 point"):
            check_grid(grid(10_752), WAVE, 0.1, n_points=2)

    @pytest.mark.parametrize("make", [
        lambda: Grid.from_lambda(16, 1e300, 1e-10),
        lambda: Grid.from_lambda(16, 1.0, 5e-324),  # k = lam h underflows to 0
        lambda: Grid.for_parabolic(16, 1e300, 1e-10),
    ])
    def test_step_count_past_any_float_refused(self, make):
        with pytest.raises(ConfigError, match="exceeds the march record bound"):
            make()

    def test_probe_validation(self, wavefront_params):
        grid = Grid.from_lambda(16, 0.1, 0.02)
        with pytest.raises(InvalidInput):
            run_fdm(wavefront_params, step_ic(), grid, probes=[0.7])
        with pytest.raises(InvalidInput):
            run_fdm(wavefront_params, step_ic(), grid, probes=[math.nan])

    def test_probes_symmetric(self, wavefront_params):
        grid = Grid.from_lambda(32, 0.2, 0.025)
        ser = run_fdm(wavefront_params, step_ic(), grid, probes=[0.25, -0.25])
        np.testing.assert_array_equal(ser.probes[0.25], ser.probes[-0.25])


class TestConstantState:
    def test_exact_with_inert_walls_dyadic(self):
        # dyadic steps keep every operation exact: bitwise constant forever
        p = Params(A=0.25, B=0.25, L=0.0, N0=3.0)
        grid = Grid.from_lambda(128, 1.0, 0.25)
        row0 = np.full(grid.n_z + 1, 3.0)
        (ser,) = march([row0], [p], grid, WAVE, NONLOCAL, {}, max_rows=grid.n_t + 1)
        assert np.all(ser.sigma == 0.0)
        assert np.all(ser.rows == 3.0)

    def test_near_exact_generic_parameters(self):
        p = Params(A=0.013, B=0.07, L=0.0, N0=3.0)
        grid = Grid.from_lambda(100, 1.0, 0.02)
        row0 = np.full(grid.n_z + 1, 3.0)
        (ser,) = march([row0], [p], grid, WAVE, NONLOCAL, {}, max_rows=grid.n_t + 1)
        worst = max(float(np.max(np.abs(ser.rows - 3.0))), float(np.max(np.abs(ser.sigma))))
        assert worst < 1e-13 * 3.0
