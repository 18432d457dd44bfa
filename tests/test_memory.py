"""Memory held by the full-length series: the march record and the modal series.

Peaks are measured with tracemalloc, which numpy reports its array buffers
to, from the start to the end of one call.
"""

import tracemalloc

import numpy as np

from hypersorb import spectral
from hypersorb.fdm import Grid, default_lambda, march
from hypersorb.params import Params


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
    p = Params(A=0.01, B=1e-3, L=1.0, N0=3.0)
    n_z, n_t = 16, 100_000
    h = 0.5 / n_z
    k = default_lambda(p.B) * h
    grid = Grid(n_z=n_z, n_t=n_t, T=n_t * k)
    rows0 = [np.full(n_z + 1, p.N0)]
    peak = peak_bytes(lambda: march(rows0, [p], grid, (0.0, 0.25, 0.45)))
    assert peak <= 96 * (n_t + 1)


def test_time_weights_peak_in_tables(spectral_oscillatory_2000):
    # the even grid's contraction of the modal time weights forms no (samples
    # x modes) array: at 801 x 2000 the series peaks below one such table of
    # 12.8 MB
    t = np.linspace(0.0, 2.0, 801)
    table = t.size * spectral_oscillatory_2000.alphas.size * 8
    assert peak_bytes(lambda: spectral.to_series(spectral_oscillatory_2000, t, probes=[0.0, 0.25])) < table
