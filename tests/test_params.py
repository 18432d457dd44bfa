"""Parameter mapping, equilibrium state, initial-condition handling and the shared refusals."""

import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hypersorb import eigen, fdm, params, poles, spectral
from hypersorb.cli import main
from hypersorb.eigen import find_eigenvalues
from hypersorb.errors import ConfigError, InvalidInput
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

# a 401-point parabolic profile on the half slab, normalized to mass 3 below
SAMPLED_Z = np.linspace(0.0, 0.5, 401)
SAMPLED_V = 1.0 - 4.0 * SAMPLED_Z**2

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

    @pytest.mark.parametrize("d", [1e200, 1e-200])
    def test_d_whose_square_leaves_the_floats_rejected(self, d):
        # d**2 overflows at 1e200 and underflows to 0 at 1e-200
        with pytest.raises(InvalidInput, match=re.escape(f"at d = {d!r}")):
            from_physical(PhysicalInputs(d=d, D=1, tau_r=1, tau_a=1, k_a=1, n0=1))

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

    @pytest.mark.parametrize("kind, z, values, match", [
        ("sampled", np.linspace(0, 0.5, 3), [math.nan, 1.0, 0.0], "finite"),
        ("sampled", np.array([0.0, math.nan, 0.5]), [1.0, 1.0, 0.0], "increasing"),
        ("sampled", None, None, "matching 1-d"),
        ("sampled", np.linspace(0, 0.5, 3), None, "matching 1-d"),
        ("step", np.linspace(0, 0.5, 3), [9.0, 9.0, 9.0], "takes no z or values"),
        ("parabolic", None, [1.0], "takes no z or values"),
        ("triangular", None, None, "unknown initial condition kind 'triangular'"),
    ])
    def test_malformed_data_refused_when_built(self, kind, z, values, match):
        # the public constructor checks what sampled_ic checks, and refuses
        # data that its kind does not read
        with pytest.raises(InvalidInput, match=match):
            InitialCondition(kind, z, values)

    def test_built_data_is_float_arrays(self):
        ic = InitialCondition("sampled", [0, 0.25, 0.5], [6, 6, 0])
        assert ic.z.dtype == ic.values.dtype == np.float64
        assert ic.values.tolist() == sampled_ic([0, 0.25, 0.5], [6, 6, 0]).values.tolist()

    # wall values and evenness need no parameter set, so building the data refuses them
    def test_sampled_nonzero_wall(self):
        z = np.linspace(0, 0.5, 101)
        v = np.full(z.size, 3.0)
        with pytest.raises(InvalidInput, match="vanish"):
            sampled_ic(z, v)

    def test_sampled_asymmetry(self):
        z = np.linspace(-0.5, 0.5, 201)
        v = 1.5 * 3.0 * (1 - 4 * z * z) * (1 + 0.1 * z)
        with pytest.raises(InvalidInput, match="even"):
            sampled_ic(z, v)

    @pytest.mark.parametrize("values", [
        pytest.param(lambda z: np.full(z.size, 3.0), id="walls"),
        pytest.param(lambda z: np.r_[1.0, np.zeros(z.size - 1)], id="left-wall"),
    ])
    def test_full_slab_walls_checked_when_built(self, values):
        z = np.linspace(-0.5, 0.5, 201)
        with pytest.raises(InvalidInput, match=re.escape("must vanish at z* = +-1/2")):
            sampled_ic(z, values(z))

    def test_full_slab_data_without_a_node_at_zero_folded_there(self):
        # 100 nodes of [-1/2, 1/2], none at z* = 0: the segment across 0 is split
        # at its interpolated value, so the half profile keeps the full mass
        z = np.linspace(-0.5, 0.5, 100)
        v = 1.5 * (1 - 4 * z * z)
        v *= 3.0 / np.trapezoid(v, z)
        ic = sampled_ic(z, v)
        keep = z > 0
        fold = np.r_[0.0, z[keep]], np.r_[np.interp(0.0, z, v), v[keep]]
        # the data is stored folded, once, when it is built
        assert ic.z[0] == 0.0
        assert ic.z.tobytes() == fold[0].tobytes() and ic.values.tobytes() == fold[1].tobytes()
        half = sampled_ic(*fold)
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
        assert ic.z.tobytes() == z[50:].tobytes() and ic.values.tobytes() == v[50:].tobytes()
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


    @pytest.mark.parametrize("ic", [
        pytest.param(step_ic(), id="step"),
        pytest.param(parabolic_ic(), id="parabolic"),
        pytest.param(sampled_ic(SAMPLED_Z, SAMPLED_V * 3.0 / (2.0 * np.trapezoid(SAMPLED_V, SAMPLED_Z))),
                     id="sampled"),
    ])
    def test_array_form_is_the_scalar_form(self, ic):
        # the frequencies of both sum engines: paper modes and B = 0 roots
        p = Params(A=1e-3, B=0.1, L=1.0, N0=3.0)
        alphas = np.r_[[m.alpha for m in find_eigenvalues(p, 200)], poles.roots(p, 1e-4)]
        moments = cosine_moment(ic, p, alphas)
        assert moments.shape == alphas.shape
        assert moments.tobytes() == np.array([cosine_moment(ic, p, a) for a in alphas]).tobytes()
        assert cosine_moment(ic, p, alphas[:0]).shape == (0,)
        with pytest.raises(InvalidInput):
            cosine_moment(ic, p, np.r_[alphas[:3], math.nan])


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

    @pytest.mark.parametrize("N0, L, sigma_eq", [
        pytest.param(1.0, sys.float_info.max / 2, 0.5, id="2L"),
        pytest.param(4.0, sys.float_info.max / 4, 2.0, id="N0L"),
    ])
    def test_largest_accepted_L_has_its_equilibrium(self, N0, L, sigma_eq):
        # at this L, 2 L or N0 L is the largest float; one float up it overflows
        n_eq, s_eq = equilibrium(Params(A=1.0, B=0.1, L=L, N0=N0))
        assert s_eq == sigma_eq and 0 < n_eq < 1e-300
        assert n_eq + 2 * s_eq == N0
        with pytest.raises(InvalidInput, match="2 L and N0 L must be finite"):
            Params(A=1.0, B=0.1, L=math.nextafter(L, math.inf), N0=N0)

    @pytest.mark.parametrize("N0, L", [(3.0, 1e308), (1.0, 1e308), (4.0, 5e307)])
    def test_overflowing_equilibrium_refused(self, N0, L):
        # inf/inf = NaN at N0 = 3, sigma_eq = 0 in place of 1/2 at N0 = 1, N0 L alone at 5e307
        with pytest.raises(InvalidInput, match="2 L and N0 L must be finite"):
            Params(A=1.0, B=0.1, L=L, N0=N0)


WAVE = Params(A=0.01, B=0.1, L=1.0, N0=3.0)
DIFFUSIVE = replace(WAVE, B=0.0)
GRID = fdm.Grid.from_lambda(16, 0.05, 0.02)


def relaxation_refusal(what: str) -> str:
    return (f"{what} requires B > 0; B = 0 is classical diffusion, which the parabolic engine"
            " (hypersorb.poles) solves exactly")


class TestSharedRefusals:
    """A rule several engines share is stated once, in the module that owns it.

    The wave regime B > 0 (params.require_relaxation), the finite A^2 of the
    eigenvalue set (eigen.check_params) and the slab positions
    (params.check_positions) each refuse with one text wherever they apply.
    """

    @pytest.mark.parametrize("refused, text", [
        pytest.param(lambda: fdm.default_lambda(0.0), relaxation_refusal("the fdm engine"),
                     id="default_lambda"),
        pytest.param(lambda: fdm.check_grid(GRID, 0.0), relaxation_refusal("the fdm engine"),
                     id="check_grid"),
        pytest.param(lambda: fdm.march([sample_initial(step_ic(), WAVE, GRID.zgrid())] * 2,
                                       [WAVE, DIFFUSIVE], GRID),
                     relaxation_refusal("the fdm engine"), id="march-batch"),
        pytest.param(lambda: fdm.run_fdm(DIFFUSIVE, step_ic(), GRID),
                     relaxation_refusal("the fdm engine"), id="run_fdm"),
        pytest.param(lambda: find_eigenvalues(DIFFUSIVE, 5), relaxation_refusal("the eigenvalue set"),
                     id="find_eigenvalues"),
        pytest.param(lambda: spectral.solve_spectral(DIFFUSIVE, step_ic(), 5),
                     relaxation_refusal("the eigenvalue set"), id="solve_spectral"),
        pytest.param(lambda: eigen.check_params(replace(WAVE, A=1e300)),
                     "the eigenvalue set requires a finite A^2, got A = 1e+300", id="finite-A-squared"),
    ])
    def test_wave_regime_refusal(self, refused, text):
        # a configuration error, which is also invalid input, with the rule's one text
        with pytest.raises(ConfigError) as caught:
            refused()
        assert isinstance(caught.value, InvalidInput)
        assert str(caught.value) == text

    @pytest.mark.parametrize("evaluate", [
        pytest.param(lambda z: fdm.run_fdm(WAVE, step_ic(), GRID, probes=[z]), id="fdm-probes"),
        pytest.param(lambda z: sample_initial(step_ic(), WAVE, [z]), id="sample_initial"),
        pytest.param(lambda z: spectral.modal_sums(lambda f: f.sum(axis=-1), np.array([math.pi]),
                                                   np.array([0.1]), 1.0, 0.5, 2.0, [z]),
                     id="modal_sums"),
    ])
    def test_slab_position_rule(self, evaluate):
        # exact: both faces belong to the slab, and the next float out of either does not
        for face, text in ((0.5, "0.5000000000000001"), (-0.5, "-0.5000000000000001")):
            evaluate(face)
            with pytest.raises(ConfigError) as caught:
                evaluate(np.nextafter(face, 2 * face))
            assert isinstance(caught.value, InvalidInput)
            assert str(caught.value) == f"z* = {text} outside [-1/2, 1/2]"

    @pytest.mark.parametrize("face", [0.5, -0.5])
    def test_slab_position_rule_of_cli_probes(self, tmp_path, capsys, face):
        # the CLI applies the same rule, as a configuration error before the outdir is made
        def run(z, out):
            return main(["run", "--engine", "fdm", "--A", "0.01", "--B", "0.1", "--L", "1",
                         "--N0", "3", "--T", "0.05", "--n-z", "16", f"--probes={z!r}",
                         "--outdir", str(out)])

        assert run(face, tmp_path / "in") == 0
        outside = float(np.nextafter(face, 2 * face))
        capsys.readouterr()
        assert run(outside, tmp_path / "out") == 2
        assert capsys.readouterr().err == (f"configuration error: probe z* = {outside!r} outside"
                                           " [-1/2, 1/2]\n")
        assert not (tmp_path / "out").exists()

    def test_step_profile_walls_are_the_faces(self):
        # N0 one float inside either face, 0 on it
        inside = float(np.nextafter(0.5, 0))
        out = sample_initial(step_ic(), WAVE, [-0.5, -inside, 0.0, inside, 0.5])
        assert out.tolist() == [0.0, WAVE.N0, WAVE.N0, WAVE.N0, 0.0]

    def test_positions_name_the_first_outside(self):
        z = params.check_positions([0.25, -0.5, 0.5])
        assert z.dtype == float and z.tolist() == [0.25, -0.5, 0.5]
        with pytest.raises(InvalidInput, match=re.escape("z* = -0.7 outside [-1/2, 1/2]")):
            params.check_positions([[0.25, -0.7], [0.9, math.nan]])
