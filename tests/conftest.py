"""Shared fixtures: landmark parameter sets and the expensive solver runs."""

import numpy as np
import pytest

from hypersorb import Params, solve_spectral, step_ic, run_fdm
from hypersorb.fdm import Grid, default_lambda
from hypersorb.spectral import modal_sums

# (A, B, L) sets, each with its mode count and how many of those modes have
# two real rates: every mode oscillating; three real modes; two real modes
# with the kinetic pole below the first anchor interval
MODE_REGIMES = [
    pytest.param((Params(A=1e-3, B=0.1, L=1.0, N0=3.0), 200, 0), id="oscillating"),
    pytest.param((Params(A=0.01, B=1e-3, L=1.0, N0=3.0), 50, 3), id="three-real"),
    pytest.param((Params(A=0.5, B=1e-3, L=0.1, N0=3.0), 50, 2), id="two-real-pole"),
]

# the (A, B, L) sets of the acceptance fixtures, criterion 4's B = 1e-2 and
# the weak-wall wave set (L = 0.1), on which the root certificate and the
# Gram guard are checked
ACCEPTANCE_SETS = [
    Params(A=1e-3, B=0.1, L=1.0, N0=3.0),
    Params(A=0.01, B=0.1, L=1.0, N0=3.0),
    Params(A=0.5, B=1e-3, L=0.1, N0=3.0),
    Params(A=0.01, B=1e-3, L=1.0, N0=3.0),
    Params(A=0.01, B=1e-2, L=1.0, N0=3.0),
    Params(A=0.01, B=0.1, L=0.1, N0=3.0),
]


@pytest.fixture(scope="session")
def secular_landmark_params():
    """Root-structure landmark set: large A, small B (two real-branch modes)."""
    return Params(A=0.5, B=1e-3, L=0.1, N0=3.0)


@pytest.fixture(scope="session")
def oscillatory_params():
    """Strongly oscillatory set: every mode above the critical point."""
    return Params(A=1e-3, B=0.1, L=1.0, N0=3.0)


@pytest.fixture(scope="session")
def wavefront_params():
    """Wave-timing landmark set used for the probe and first-maximum checks."""
    return Params(A=0.01, B=0.1, L=1.0, N0=3.0)


@pytest.fixture(scope="session")
def fdm_wavefront(wavefront_params):
    grid = Grid.from_lambda(200, 2.0, default_lambda(wavefront_params.B))
    return run_fdm(wavefront_params, step_ic(), grid, probes=[0.0, 0.25])


@pytest.fixture(scope="session")
def fdm_oscillatory(oscillatory_params):
    grid = Grid.from_lambda(200, 2.0, default_lambda(oscillatory_params.B))
    return run_fdm(oscillatory_params, step_ic(), grid, probes=[0.0, 0.25])


@pytest.fixture(scope="session")
def fdm_small_relaxation():
    p = Params(A=0.01, B=1e-3, L=1.0, N0=3.0)
    grid = Grid.from_lambda(200, 2.0, default_lambda(p.B))
    return run_fdm(p, step_ic(), grid, probes=[0.0])


@pytest.fixture(scope="session")
def spectral_oscillatory_50(oscillatory_params):
    return solve_spectral(oscillatory_params, step_ic(), 50)


@pytest.fixture(scope="session")
def spectral_oscillatory_100(oscillatory_params):
    return solve_spectral(oscillatory_params, step_ic(), 100)


@pytest.fixture(scope="session")
def spectral_wavefront_50(wavefront_params):
    return solve_spectral(wavefront_params, step_ic(), 50)


@pytest.fixture(scope="session")
def spectral_oscillatory_2000(oscillatory_params):
    """The most modes a run allows (--modes 2000), on the all-oscillating set."""
    return solve_spectral(oscillatory_params, step_ic(), 2000)


def first_local_max(t, values, floor):
    """Time of the first interior local maximum above floor, or None."""
    v = np.asarray(values)
    for i in range(1, v.size - 1):
        if v[i] > v[i - 1] and v[i] >= v[i + 1] and v[i] > floor:
            return float(t[i])
    return None


def interior_maxima(t, values, prominence):
    """Interior maxima that later drop by more than prominence."""
    v = np.asarray(values)
    hits = []
    for i in range(1, v.size - 1):
        if v[i] > v[i - 1] and v[i] >= v[i + 1] and v[i] - v[i:].min() > prominence:
            hits.append(float(t[i]))
    return hits


def three_sum_conservation(contract, freq, wall, n_eq, sigma_eq, N0, probes=()):
    """sigma and the conservation residual as three separate sums give them.

    The mass is the sum S(2 wall) of its own, beside S(wall) for sigma, each
    through the engine's contraction S: the expression the single sum of
    spectral.modal_sums must match bit for bit.
    """
    sigma = sigma_eq - contract(wall)
    mass = n_eq + contract(2.0 * wall)
    return sigma, np.abs(mass + 2.0 * sigma - N0)


def assert_conservation_is_three_sums(monkeypatch, module, run):
    """Run run() with module.modal_sums recorded; each call must match the three sums' bits."""
    calls = []

    def recorded(*args, **kwargs):
        out = modal_sums(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(module, "modal_sums", recorded)
    run()
    assert calls
    for args, kwargs, (sigma, _, cons) in calls:
        want_sigma, want_cons = three_sum_conservation(*args, **kwargs)
        assert np.asarray(sigma).tobytes() == np.asarray(want_sigma).tobytes()
        assert np.asarray(cons).tobytes() == np.asarray(want_cons).tobytes()
