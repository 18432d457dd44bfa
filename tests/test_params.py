"""Parameter mapping, equilibrium state and initial-condition handling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hypersorb.errors import InvalidInput
from hypersorb.params import (
    InitialCondition,
    Params,
    PhysicalInputs,
    alpha_critical,
    cosine_moment,
    equilibrium,
    from_physical,
    initial_mass,
    parabolic_ic,
    sample_initial,
    sampled_ic,
    step_ic,
    wave_speed,
)

positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestFromPhysical:
    def test_unit_values_identity(self):
        p = from_physical(PhysicalInputs(d=1, D=1, tau_r=0, tau_a=1, k_a=1, n0=1))
        assert p == Params(A=1.0, B=0.0, L=1.0, N0=1.0)

    def test_defining_ratios(self):
        p = from_physical(PhysicalInputs(d=2, D=1, tau_r=0, tau_a=2, k_a=1, n0=1))
        assert p.L == pytest.approx(1.0, rel=1e-15)
        assert p.A == pytest.approx(0.5, rel=1e-15)

    def test_relaxation_ratio(self):
        p = from_physical(PhysicalInputs(d=1, D=1, tau_r=0.1, tau_a=1, k_a=1, n0=1))
        assert p.B == pytest.approx(0.1, rel=1e-15)

    @pytest.mark.parametrize("field", ["d", "D", "tau_a", "k_a", "n0"])
    def test_nonpositive_rejected(self, field):
        values = dict(d=1.0, D=1.0, tau_r=0.0, tau_a=1.0, k_a=1.0, n0=1.0)
        values[field] = 0.0
        with pytest.raises(InvalidInput):
            PhysicalInputs(**values)

    def test_negative_tau_r_rejected(self):
        with pytest.raises(InvalidInput):
            PhysicalInputs(d=1, D=1, tau_r=-1, tau_a=1, k_a=1, n0=1)

    @pytest.mark.parametrize("field", ["d", "D", "tau_r", "tau_a", "k_a", "n0"])
    def test_non_finite_rejected(self, field):
        values = dict(d=1.0, D=1.0, tau_r=0.0, tau_a=1.0, k_a=1.0, n0=1.0)
        values[field] = math.inf
        with pytest.raises(InvalidInput, match=f"{field} must be finite"):
            PhysicalInputs(**values)

    @given(
        d=positive, D=positive, tau_r=positive, tau_a=positive,
        k_a=positive, n0=positive,
        gamma=st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]),
    )
    @settings(max_examples=50, deadline=None)
    def test_rescaling_invariance_dyadic(self, d, D, tau_r, tau_a, k_a, n0, gamma):
        # (d, D, tau_r, tau_a, k_a, n0) -> (d, gD, tau_r/g, tau_a/g, gk_a, n0)
        # leaves every group unchanged; bitwise for power-of-two g
        base = from_physical(PhysicalInputs(d, D, tau_r, tau_a, k_a, n0))
        scaled = from_physical(
            PhysicalInputs(d, gamma * D, tau_r / gamma, tau_a / gamma, gamma * k_a, n0)
        )
        assert base == scaled

    def test_rescaling_invariance_general(self):
        gamma = 3.7
        base = from_physical(PhysicalInputs(1.3, 0.7, 0.2, 1.1, 0.4, 2.0))
        scaled = from_physical(
            PhysicalInputs(1.3, gamma * 0.7, 0.2 / gamma, 1.1 / gamma, gamma * 0.4, 2.0)
        )
        assert scaled.A == pytest.approx(base.A, rel=1e-14)
        assert scaled.B == pytest.approx(base.B, rel=1e-14)
        assert scaled.L == pytest.approx(base.L, rel=1e-14)
        assert scaled.N0 == base.N0


class TestEquilibrium:
    def test_thirds(self):
        n_eq, s_eq = equilibrium(Params(A=1, B=0.1, L=1.0, N0=3.0))
        assert n_eq == 1.0
        assert s_eq == 1.0

    def test_strong_adsorption(self):
        n_eq, s_eq = equilibrium(Params(A=1, B=0.1, L=10.0, N0=3.0))
        assert n_eq == pytest.approx(3.0 / 21.0, rel=1e-15)
        assert s_eq == pytest.approx(30.0 / 21.0, rel=1e-15)

    @given(N0=positive, L=st.floats(min_value=0, max_value=1e4))
    @settings(max_examples=100, deadline=None)
    def test_mass_and_kinetics_fixed_point(self, N0, L):
        p = Params(A=1.0, B=0.1, L=L, N0=N0)
        n_eq, s_eq = equilibrium(p)
        assert n_eq + 2 * s_eq == pytest.approx(N0, rel=1e-14)
        assert L * n_eq - s_eq == pytest.approx(0.0, abs=1e-14 * max(1.0, s_eq))


class TestWaveSpeed:
    def test_landmark_value(self):
        # c = 1/sqrt(B) ~ 3.16 for B = 0.1
        assert wave_speed(Params(A=1, B=0.1, L=1, N0=1)) == pytest.approx(3.16227766, rel=1e-8)

    def test_unit(self):
        assert wave_speed(Params(A=1, B=1.0, L=1, N0=1)) == 1.0

    def test_small_relaxation(self):
        assert wave_speed(Params(A=1, B=1e-3, L=1, N0=1)) == pytest.approx(31.6227766, rel=1e-8)

    def test_parabolic_sentinel(self):
        assert wave_speed(Params(A=1, B=0.0, L=1, N0=1)) == math.inf


class TestAlphaCritical:
    @pytest.mark.parametrize(
        "B,expected", [(1e-3, 15.8113883), (0.25, 1.0), (0.1, 1.58113883)]
    )
    def test_values(self, B, expected):
        assert alpha_critical(Params(A=1, B=B, L=1, N0=1)) == pytest.approx(expected, rel=1e-8)

    def test_parabolic_sentinel(self):
        assert alpha_critical(Params(A=1, B=0.0, L=1, N0=1)) == math.inf


class TestSampleInitial:
    p = Params(A=0.01, B=0.1, L=1.0, N0=3.0)

    def test_step_values(self):
        out = sample_initial(step_ic(), self.p, np.array([0.0, 0.25, 0.5, -0.5]))
        assert out[0] == 3.0
        assert out[1] == 3.0
        assert out[2] == 0.0
        assert out[3] == 0.0

    def test_parabolic_values(self):
        out = sample_initial(parabolic_ic(), self.p, np.array([0.0, 0.5, -0.5]))
        assert out[0] == pytest.approx(4.5, rel=1e-15)
        assert out[1] == 0.0
        assert out[2] == 0.0

    def test_parabolic_mass_closed_form(self):
        # integral of (3 N0/2)(1 - 4 z^2) over [-1/2, 1/2] equals N0
        integral = quad(lambda z: 1.5 * 3.0 * (1 - 4 * z * z), -0.5, 0.5)[0]
        assert integral == pytest.approx(3.0, abs=1e-10)
        assert initial_mass(parabolic_ic(), self.p) == 3.0
        assert initial_mass(step_ic(), self.p) == 3.0

    @given(z=st.floats(min_value=0, max_value=0.5))
    @settings(max_examples=60, deadline=None)
    def test_even_in_z(self, z):
        for ic in (step_ic(), parabolic_ic()):
            left, right = sample_initial(ic, self.p, np.array([-z, z]))
            assert left == right

    def test_sampled_roundtrip(self):
        # fine enough that the piecewise-linear mass passes the 1e-6 gate
        z = np.linspace(0, 0.5, 1601)
        ic = sampled_ic(z, 1.5 * 3.0 * (1 - 4 * z * z))
        out = sample_initial(ic, self.p, np.array([0.1, -0.1, 0.5]))
        assert out[0] == pytest.approx(1.5 * 3.0 * (1 - 0.04), rel=1e-4)
        assert out[0] == out[1]
        assert out[2] == pytest.approx(0.0, abs=1e-9)

    def test_sampled_mass_violation(self):
        z = np.linspace(0, 0.5, 101)
        v = 1.5 * 3.0 * (1 - 4 * z * z) * 1.01  # 1% heavy
        with pytest.raises(InvalidInput, match="mass"):
            sample_initial(sampled_ic(z, v), self.p, np.array([0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_sampled_values_must_be_finite(self, bad):
        z = np.linspace(0, 0.5, 101)
        v = 1.5 * 3.0 * (1 - 4 * z * z)
        v[50] = bad
        with pytest.raises(InvalidInput, match="finite"):
            sampled_ic(z, v)

    def test_sampled_nonzero_wall(self):
        z = np.linspace(0, 0.5, 101)
        v = np.full(z.size, 3.0)
        with pytest.raises(InvalidInput, match="vanish"):
            sample_initial(sampled_ic(z, v), self.p, np.array([0.0]))

    def test_sampled_asymmetry(self):
        z = np.linspace(-0.5, 0.5, 201)
        v = 1.5 * 3.0 * (1 - 4 * z * z) * (1 + 0.1 * z)
        with pytest.raises(InvalidInput, match="even"):
            sample_initial(sampled_ic(z, v), self.p, np.array([0.0]))

    def test_full_slab_data_without_a_node_at_zero_folded_there(self):
        # 100 nodes of [-1/2, 1/2], none at z* = 0: the segment across 0 is split
        # at its interpolated value, so the half profile keeps the full mass
        z = np.linspace(-0.5, 0.5, 100)
        v = 1.5 * (1 - 4 * z * z)
        v *= 3.0 / np.trapezoid(v, z)
        ic = sampled_ic(z, v)
        keep = z > 0
        half = sampled_ic(np.r_[0.0, z[keep]], np.r_[np.interp(0.0, z, v), v[keep]])
        assert initial_mass(ic, self.p) == pytest.approx(3.0, rel=1e-14)
        assert initial_mass(ic, self.p) == initial_mass(half, self.p)
        zg = np.linspace(-0.5, 0.5, 41)
        out = sample_initial(ic, self.p, zg)
        assert out.tobytes() == sample_initial(half, self.p, zg).tobytes()
        np.testing.assert_allclose(out, np.interp(zg, z, v), rtol=1e-14, atol=1e-14)
        for alpha in (3.671, 17.3):
            assert cosine_moment(ic, self.p, alpha) == cosine_moment(half, self.p, alpha)

    def test_full_slab_data_with_a_node_at_zero_kept_as_given(self):
        z = np.linspace(-0.5, 0.5, 101)
        assert z[50] == 0.0
        v = 1.5 * (1 - 4 * z * z)
        v *= 3.0 / np.trapezoid(v, z)
        ic, half = sampled_ic(z, v), sampled_ic(z[50:], v[50:])
        assert initial_mass(ic, self.p) == initial_mass(half, self.p)
        zg = np.linspace(-0.5, 0.5, 41)
        assert sample_initial(ic, self.p, zg).tobytes() == sample_initial(half, self.p, zg).tobytes()
        assert cosine_moment(ic, self.p, 17.3) == cosine_moment(half, self.p, 17.3)

    def test_zgrid_out_of_range(self):
        with pytest.raises(InvalidInput):
            sample_initial(step_ic(), self.p, np.array([0.6]))

    def test_unknown_kind(self):
        with pytest.raises(InvalidInput):
            sample_initial(InitialCondition("triangular"), self.p, np.array([0.0]))


class TestCosineMoment:
    p = Params(A=0.01, B=0.1, L=1.0, N0=3.0)

    @pytest.mark.parametrize("alpha", [3.671, 2 * math.pi, 9.63, 28.3])
    def test_step_against_quadrature(self, alpha):
        oracle = quad(lambda z: 3.0 * math.cos(alpha * z), -0.5, 0.5, limit=200)[0]
        assert cosine_moment(step_ic(), self.p, alpha) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("alpha", [3.671, 2 * math.pi, 9.63, 28.3])
    def test_parabolic_against_quadrature(self, alpha):
        oracle = quad(
            lambda z: 4.5 * (1 - 4 * z * z) * math.cos(alpha * z), -0.5, 0.5, limit=200
        )[0]
        assert cosine_moment(parabolic_ic(), self.p, alpha) == pytest.approx(oracle, abs=1e-12)

    def test_sampled_exact_per_segment(self):
        # piecewise-linear integrand integrates exactly, independent of alpha
        z = np.linspace(0, 0.5, 6)
        v = np.array([2.0, 2.2, 2.1, 1.4, 0.7, 0.0])
        v = v * (3.0 / (2 * np.trapezoid(v, z)))  # normalize mass to N0
        ic = sampled_ic(z, v)
        alpha = 17.3
        fine = np.linspace(0, 0.5, 200001)
        oracle = 2 * np.trapezoid(np.interp(fine, z, v) * np.cos(alpha * fine), fine)
        assert cosine_moment(ic, self.p, alpha) == pytest.approx(oracle, abs=1e-8)


class TestParamsValidation:
    def test_invalid_groups(self):
        with pytest.raises(InvalidInput):
            Params(A=0.0, B=0.1, L=1.0, N0=1.0)
        with pytest.raises(InvalidInput):
            Params(A=1.0, B=-0.1, L=1.0, N0=1.0)
        with pytest.raises(InvalidInput):
            Params(A=1.0, B=0.1, L=-1.0, N0=1.0)
        with pytest.raises(InvalidInput):
            Params(A=1.0, B=0.1, L=1.0, N0=0.0)

    @pytest.mark.parametrize("field", ["A", "B", "L", "N0"])
    def test_non_finite_rejected(self, field):
        values = dict(A=1.0, B=0.1, L=1.0, N0=1.0)
        values[field] = math.inf
        with pytest.raises(InvalidInput, match=f"{field} must be finite"):
            Params(**values)

    def test_inert_walls_allowed(self):
        assert Params(A=1.0, B=0.1, L=0.0, N0=1.0).L == 0.0
