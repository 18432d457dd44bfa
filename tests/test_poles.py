"""The exact B = 0 solution: poles of sigma_hat(s), their roots, and the heat march's limit."""

import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from hypersorb import poles, spectral
from hypersorb.errors import ConfigError, InvalidInput
from hypersorb.fdm import Grid, default_lambda, run_fdm
from hypersorb.params import Params, equilibrium, parabolic_ic, sample_initial, sampled_ic, step_ic
from hypersorb.spectral import solve_spectral

from conftest import assert_conservation_is_three_sums

# (A, L) sets: a fast wall, a slow strong wall, a slow weak wall
DE_HOOG_SETS = [(0.01, 1.0), (1.0, 100.0), (0.5, 0.1)]
PROBES = [0.0, 0.25, 0.45]


def params(A, L, B=0.0):
    return Params(A=A, B=B, L=L, N0=3.0)


def sigma_de_hoog(p, t):
    """sigma(t) for step data from rest: de Hoog's inversion of sigma_hat at 30 digits.

    sigma_hat(s) = L N0 sinh(q/2) / (q s E(s)), q = sqrt(s),
    E(s) = (1 + A s) sinh(q/2)/q + L cosh(q/2).
    """
    mp = mpmath.mp.clone()
    mp.dps = 30
    A, L, N0 = mp.mpf(p.A), mp.mpf(p.L), mp.mpf(p.N0)

    def sigma_hat(s):
        q = mp.sqrt(s)
        E = (1 + A * s) * mp.sinh(q / 2) / q + L * mp.cosh(q / 2)
        return L * N0 * mp.sinh(q / 2) / (q * s * E)

    return float(mp.invertlaplace(sigma_hat, t, method="dehoog"))


def heat_march(p, ic, n_z, T, probes=(), r=0.4):
    """The explicit heat march at k/h^2 <= r, written out level by level.

    The wall is closed with the flux condition -dN/dz = dsigma/dt (a
    second-order one-sided gradient) plus backward-Euler kinetics; sigma
    starts at 0.  Every level is recorded.
    """
    h = 0.5 / n_z
    n_t = math.ceil(T / (r * h * h))
    k = T / n_t
    zgrid = np.linspace(0.0, 0.5, n_z + 1)
    row = sample_initial(ic, p, zgrid)
    s = 0.0
    sigma, rows = [s], [row]
    for _ in range(n_t):
        new = row.copy()
        new[1:-1] = row[1:-1] + k / (h * h) * (row[2:] - 2.0 * row[1:-1] + row[:-2])
        new[0] = new[1]
        w = ((p.A + k) * (4.0 * new[-2] - new[-3]) + 2.0 * h * s) / (
            2.0 * h * p.L + 3.0 * (p.A + k)
        )
        s = (p.A * s + k * p.L * w) / (p.A + k)
        new[-1] = w
        sigma.append(s)
        rows.append(new)
        row = new
    rows = np.array(rows)
    return SimpleNamespace(
        t=np.arange(n_t + 1) * k, sigma=np.array(sigma), surface=rows[:, -1],
        probes={z: _interp_rows(rows, zgrid, abs(z)) for z in probes},
    )


def _interp_rows(rows, zgrid, z):
    """Each row's linear interpolant at z."""
    i = min(int(z / (zgrid[1] - zgrid[0])), zgrid.size - 2)
    frac = (z - zgrid[i]) / (zgrid[i + 1] - zgrid[i])
    return (1.0 - frac) * rows[:, i] + frac * rows[:, i + 1]


def max_dev(series, exact, t):
    """Largest |series - exact| on t of sigma, the wall value and each probe, in that order."""
    quantities = [(series.sigma, exact.sigma), (series.surface, exact.surface)]
    quantities += [(series.probes[z], exact.probes[z]) for z in series.probes]
    return np.array([np.max(np.abs(np.interp(t, series.t, a) - b)) for a, b in quantities])


@pytest.mark.parametrize("A, L", DE_HOOG_SETS)
def test_agrees_with_de_hoog(A, L):
    p = params(A, L)
    t = np.array([0.0, 0.01, 0.1, 0.5, 1.5])
    series = poles.to_series(p, step_ic(), t)
    reference = [sigma_de_hoog(p, tq) for tq in t[1:]]
    _, sigma_eq = equilibrium(p)
    assert np.max(np.abs(series.sigma[1:] - reference)) <= 1e-12 * sigma_eq


@pytest.mark.parametrize("ic", [
    pytest.param(parabolic_ic(), id="parabolic"),
    # full-slab data with no node at z* = 0; mass 2 (0.3 + 0.1) 3.75 = 3
    pytest.param(sampled_ic([-0.5, -0.3, 0.3, 0.5], [0.0, 3.75, 3.75, 0.0]), id="sampled"),
    pytest.param(step_ic(), id="step"),
])
@pytest.mark.parametrize("A, L", [(0.01, 1.0), (0.5, 0.1), (0.01, 0.0)])
def test_is_the_limit_of_the_heat_march(ic, A, L):
    # sigma, the wall value and each probe: within 5 % of N0 at n_z = 64, and the
    # distance halves from n_z = 32 (sigma is exactly 0 in both at L = 0)
    p = params(A, L)
    t = np.linspace(0.0, 1.0, 201)
    exact = poles.to_series(p, ic, t, probes=PROBES)
    coarse, fine = (max_dev(heat_march(p, ic, n_z, 1.0, probes=PROBES), exact, t)
                    for n_z in (32, 64))
    assert np.all(fine <= 0.05 * p.N0)
    moving = coarse > 0
    assert np.all(coarse[moving] / fine[moving] >= 1.8)
    assert moving[1:].all() and moving[0] == (L > 0)


@pytest.mark.parametrize("ic", [
    pytest.param(parabolic_ic(), id="parabolic"),
    # full-slab data with no node at z* = 0; mass 2 (0.3 + 0.1) 3.75 = 3
    pytest.param(sampled_ic([-0.5, -0.3, 0.3, 0.5], [0.0, 3.75, 3.75, 0.0]), id="sampled"),
])
@pytest.mark.parametrize("A, L", [(0.01, 1.0), (0.5, 0.1)])
def test_non_step_data_is_the_limit_of_fdm(ic, A, L):
    # the projection of non-step data, checked against fdm at B = 1e-4: sigma and the
    # wall value within 5 % of N0 at n_z = 64, and the distance halves from n_z = 32
    # (the gap between B = 1e-4 and B = 0 is smaller than either grid's error)
    p = params(A, L, B=1e-4)
    t = np.linspace(0.0, 1.0, 201)
    exact = poles.to_series(p, ic, t)
    coarse, fine = (max_dev(run_fdm(p, ic, Grid.from_lambda(n_z, 1.0, default_lambda(p.B))), exact, t)
                    for n_z in (32, 64))
    assert np.all(fine <= 0.05 * p.N0)
    assert np.all(coarse / fine >= 1.8)


@pytest.mark.parametrize("A, L", DE_HOOG_SETS + [(0.01, 0.0)])
def test_conservation_is_rounding_only(A, L):
    p = params(A, L)
    series = poles.to_series(p, parabolic_ic(), np.linspace(0.0, 2.0, 801))
    assert series.conservation.size == 801
    assert np.max(series.conservation) <= 1e-14 * p.N0


@pytest.mark.parametrize("A, L", DE_HOOG_SETS)
def test_conservation_is_three_sums_bit_for_bit(monkeypatch, A, L):
    # the pole sum's residual through the single sum of the wall shares
    p = params(A, L)
    assert_conservation_is_three_sums(monkeypatch, poles, lambda: poles.to_series(
        p, parabolic_ic(), np.linspace(0.0, 2.0, 801), probes=PROBES))


def test_settles_at_sigma_eq():
    p = params(0.01, 1.0)
    n_eq, sigma_eq = equilibrium(p)
    # beta_1 = 3.61: at t_1 = 5 its exponent is 65, so every term is dropped
    far = poles.to_series(p, step_ic(), [0.0, 5.0, 50.0], probes=PROBES)
    assert far.meta["roots"] == 0
    assert far.sigma[1:].tolist() == [sigma_eq, sigma_eq]
    assert far.surface[1:].tolist() == [n_eq, n_eq]
    # from a near start sigma rises to sigma_eq, within e^(-beta_1^2 t) of it at t
    near = poles.to_series(p, step_ic(), np.linspace(0.0, 10.0, 801))
    beta_1 = poles.roots(p, 1.0)[0]
    assert near.meta["roots"] > 1 and 3.6 < beta_1 < 3.7
    assert np.all(np.diff(near.sigma) >= -1e-15)
    assert abs(near.sigma[-1] - sigma_eq) <= sigma_eq * math.exp(-beta_1**2 * 10.0)
    assert 0 < sigma_eq - near.sigma[80] <= sigma_eq * math.exp(-beta_1**2 * 1.0)


def test_inert_walls():
    # L = 0: the walls stay empty and the bulk is the Neumann series
    p = params(0.01, 0.0)
    t = np.linspace(0.0, 2.0, 401)
    series = poles.to_series(p, parabolic_ic(), t, probes=PROBES)
    assert np.all(series.sigma == 0.0) and series.surface[-1] == pytest.approx(p.N0, abs=1e-12)
    assert series.meta["roots"] == math.floor(math.sqrt(40.0 / t[1]) / (2.0 * math.pi))
    assert np.array_equal(poles.roots(p, 40.0 / 200.0**2), 2.0 * math.pi * np.arange(1, 32))
    # N(0, t) of the parabolic profile, (3 N0/2)(1 - 4 z^2) = N0 (1 - 6/pi^2 sum (-1)^k
    # cos(2 k pi z) / k^2): N0 (1 - 6/pi^2 sum (-1)^k e^(-4 k^2 pi^2 t) / k^2)
    k = np.arange(1, 200)
    for tq in (0.001, 0.01, 0.1):
        terms = (-1.0) ** k * np.exp(-4.0 * (k * math.pi) ** 2 * tq) / k**2
        centre = p.N0 * (1.0 - 6.0 / math.pi**2 * np.sum(terms))
        value = poles.to_series(p, parabolic_ic(), [0.0, tq], probes=[0.0]).probes[0.0][1]
        assert value == pytest.approx(centre, abs=1e-13)


@pytest.mark.parametrize("A, L", DE_HOOG_SETS + [(1e-4, 1.0), (0.01, 1e-6), (0.5, 1e3)])
def test_root_count(A, L):
    # below beta_max = 2 pi 48, a sign scan finds exactly one root in each
    # interval (2 k pi, 2(k+1) pi), and roots() returns each of them
    p = params(A, L)
    count = 48
    found = poles.roots(p, 40.0 / (2.0 * math.pi * count) ** 2)
    assert found.size == count
    scan = 2.0 * math.pi * (np.arange(count)[:, None] + np.linspace(0.0, 1.0, 4001))
    scan[0, 0] = 1e-9  # g(0+) = 1/2 + L
    change = np.sign(poles.secular(scan[:, 1:], p)) != np.sign(poles.secular(scan[:, :-1], p))
    assert change.sum(axis=1).tolist() == [1] * count
    cell = np.argmax(change, axis=1)
    rows = np.arange(count)
    assert np.all((scan[rows, cell] <= found) & (found <= scan[rows, cell + 1]))
    # a root past the first sample's reach is dropped
    assert poles.roots(p, 40.0 / found[10] ** 2).size == 11
    assert poles.roots(p, 40.0 / np.nextafter(found[10], 0.0) ** 2).size == 10


def test_interval_count():
    assert poles.interval_count(math.inf) == 0
    assert poles.interval_count(40.0 / (2.0 * math.pi) ** 2) == 1
    assert poles.interval_count(2.0 / 800) == 21  # 801 samples over T = 2
    with pytest.raises(ConfigError, match="infinitely many roots"):
        poles.interval_count(1e-320)


@pytest.mark.parametrize("tgrid, terms", [([1e-300], "1 x 1006584242"), ([0.0, 1e-16], "2 x 100658425")])
def test_sum_refuses_a_table_past_the_bound(monkeypatch, tgrid, terms):
    # refused before any root is sought, with the CLI's message
    def no_roots(*args, **kwargs):
        raise AssertionError("roots sought")

    monkeypatch.setattr(poles, "roots", no_roots)
    with pytest.raises(ConfigError, match=f"times x roots must be at most {spectral.MAX_MODAL_TERMS},"
                                          f" got {terms}"):
        poles.to_series(params(0.01, 1.0), step_ic(), tgrid)


def test_start_row_is_the_initial_data():
    p = params(0.5, 0.1)
    ic = sampled_ic([0.0, 0.3, 0.5], [3.75, 3.75, 0.0])
    series = poles.to_series(p, ic, [0.0, 0.1], probes=[0.0, -0.3, 0.45])
    assert series.sigma[0] == 0.0 and series.surface[0] == 0.0
    start = sample_initial(ic, p, np.array([0.0, -0.3, 0.45]))
    assert [series.probes[z][0] for z in (0.0, -0.3, 0.45)] == start.tolist()
    assert series.conservation[0] == abs(2.0 * (0.3 * 3.75 + 0.1 * 3.75) - p.N0)


def test_B_is_ignored_and_probes_are_even():
    t = np.linspace(0.0, 1.0, 51)
    a = poles.to_series(params(0.01, 1.0), step_ic(), t, probes=[0.25, -0.25])
    b = poles.to_series(params(0.01, 1.0, B=0.7), step_ic(), t, probes=[0.25])
    assert np.array_equal(a.sigma, b.sigma) and np.array_equal(a.probes[0.25], b.probes[0.25])
    assert np.array_equal(a.probes[0.25], a.probes[-0.25])
    assert a.engine == "parabolic" and b.params.B == 0.7


@pytest.mark.parametrize("tgrid", [[-0.1, 0.5], [0.0, math.nan], [[0.0, 0.5]]])
def test_bad_times_refused(tgrid):
    with pytest.raises(InvalidInput, match="finite times"):
        poles.to_series(params(0.01, 1.0), step_ic(), tgrid)


@pytest.mark.parametrize("tgrid", [0.5, [[0.0, 0.5]], [0.0, math.inf]])
def test_bad_times_refused_by_the_modal_series(tgrid):
    # the spectral engine shares the pole sum's time check
    sol = solve_spectral(params(0.01, 1.0, B=0.1), step_ic(), 8)
    with pytest.raises(InvalidInput, match="finite times"):
        spectral.to_series(sol, tgrid)
    with pytest.raises(InvalidInput, match="finite times"):
        poles.to_series(params(0.01, 1.0), step_ic(), tgrid)


def test_nan_probe_refused():
    p = params(0.01, 1.0)
    with pytest.raises(InvalidInput):
        sample_initial(step_ic(), p, np.array([math.nan]))
    for t in ([0.0, 0.5], [0.5, 1.0]):
        with pytest.raises(InvalidInput):
            poles.to_series(p, step_ic(), t, probes=[math.nan])


@pytest.mark.parametrize("A, L", DE_HOOG_SETS)
@pytest.mark.parametrize("t_first", [2.0 / 800, 1e-6])
def test_a_handful_of_evaluations(monkeypatch, A, L, t_first):
    # vectorized evaluations of g and of its phase form per call, for the
    # 20 or 21 roots of 801 samples over T = 2 and for 1,007; bisecting the
    # intervals to adjacent floats took 54 or 55 of g
    calls = []
    for name in ("secular", "_phase_form"):
        original = getattr(poles, name)
        monkeypatch.setattr(poles, name, lambda *args, f=original: calls.append(f) or f(*args))
    assert poles.roots(params(A, L), t_first).size >= 20
    assert len(calls) <= 16
