"""Memory held by the full-length series: the march record and the modal table.

Peaks are measured with tracemalloc, which numpy reports its array buffers
to, from the start to the end of one call.
"""

import tracemalloc

import numpy as np

from hypersorb import spectral
from hypersorb.fdm import HEAT, LOCAL, Grid, march
from hypersorb.params import Params, step_ic


def peak_bytes(call) -> int:
    """Largest traced allocation above the baseline while call runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_march_record_peak_per_level():
    # one row, three probes: the series keep t, sigma, surface, the residual
    # and three probes at 8 bytes a level each; the rest is transient
    n_z, n_t = 16, 100_000
    h = 0.5 / n_z
    k = 0.4 * h * h
    grid = Grid(n_z=n_z, n_t=n_t, h=h, k=k, lam=k / h, T=n_t * k)
    p = Params(A=0.01, B=1e-3, L=1.0, N0=3.0)
    rows0 = [np.full(n_z + 1, p.N0)]
    peak = peak_bytes(lambda: march(rows0, [p], grid, HEAT, LOCAL, {}, (0.0, 0.25, 0.45)))
    assert peak <= 96 * (n_t + 1)


def test_time_weights_peak_in_tables():
    # two complex (samples x modes) buffers, updated in place
    sol = spectral.solve_spectral(Params(A=1e-3, B=0.1, L=1.0, N0=3.0), step_ic(), 200)
    t = np.linspace(0.0, 2.0, 801)
    table = t.size * len(sol.modes) * 16
    for rate in (False, True):
        assert peak_bytes(lambda: spectral._time_weights(sol, t, rate=rate)) <= 2.5 * table
