"""Common time-series container produced by every engine."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInput
from .params import Params


@dataclass(eq=False)
class TimeSeries:
    """Surface and bulk densities sampled over a run.

    t, sigma and surface cover every time level an engine computed; probes
    maps a z* position to the bulk density history there.  An fdm series
    also stores full spatial rows at row_times (thinned to keep memory
    bounded) on the half-domain grid row_z in [0, 1/2], its only view of the
    field; a sum engine's series has none, since its field is evaluated on
    demand (spectral.eval_density).  conservation holds the residual
    |integral(N) + 2 sigma - N0| at every level, for every engine (a series
    read back from CSV has none).  The CLI writes each series through
    thin_series: samples evenly spread levels including both ends, or every
    level when samples is at least the level count; conservation is left
    whole.
    """

    t: np.ndarray
    sigma: np.ndarray
    surface: np.ndarray
    probes: dict[float, np.ndarray] = field(default_factory=dict)
    rows: np.ndarray | None = None
    row_times: np.ndarray | None = None
    row_z: np.ndarray | None = None
    conservation: np.ndarray | None = None
    params: Params | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.all(np.diff(self.t) > 0):
            raise InvalidInput("time levels must be strictly increasing")

    @property
    def engine(self) -> str:
        return self.meta.get("engine", "unknown")


def thin_indices(n_levels: int, max_rows: int) -> np.ndarray:
    """Evenly spaced level indices including both endpoints, strictly increasing.

    Below n_levels rows the spacing (n_levels - 1)/(max_rows - 1) exceeds 1,
    so the rounded points never repeat.
    """
    if max_rows < 2:
        raise InvalidInput(f"max_rows must be at least 2 to hold both endpoints, got {max_rows}")
    if max_rows >= n_levels:
        return np.arange(n_levels)
    return np.linspace(0, n_levels - 1, max_rows).round().astype(int)


def thin_series(series: TimeSeries, samples: int) -> TimeSeries:
    """The series at thin_indices(levels, samples); itself when samples >= levels.

    t, sigma, surface and the probes are thinned; conservation, the stored
    rows, params and meta are kept as they are, so a check of the residual
    still covers every level.
    """
    n_levels = series.t.size
    if samples >= n_levels:
        return series
    idx = thin_indices(n_levels, samples)
    return replace(
        series,
        t=series.t[idx],
        sigma=series.sigma[idx],
        surface=series.surface[idx],
        probes={z: v[idx] for z, v in series.probes.items()},
    )
