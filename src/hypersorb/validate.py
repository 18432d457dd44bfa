"""Independent cross-checks: engine comparison and series audits.

The diffusive reference (B = 0) is the exact sum of hypersorb.poles, the
CLI's parabolic engine; compare_engines measures an engine against it, or
any two engines against each other, on a common time grid.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidInput
# validate.apply_surface and validate.run_parabolic (the exact B = 0 sum) stay
# bound: perfbench's tracer wraps both by these names.  Its measure of
# run_parabolic reads a Grid argument, so the CLI calls poles.to_series.
from .fdm import apply_surface  # noqa: F401
from .params import Params, equilibrium
from .poles import to_series as run_parabolic  # noqa: F401
from .series import TimeSeries


@dataclass(eq=False)
class ComparisonReport:
    """Deviations between two engines' series on a common time grid."""

    engine_a: str
    engine_b: str
    t_min: float
    t_max: float
    n_points: int
    max_sigma_dev: float
    rms_sigma_dev: float
    probe_devs: dict[float, float]
    max_probe_dev: float
    conservation_a: float
    conservation_b: float
    sigma_tol: float
    passed: bool
    params: Params | None = None
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The fields as plain JSON values; probe_devs keyed by z* as text."""
        d = asdict(self)
        d["probe_devs"] = {f"{z:g}": v for z, v in sorted(self.probe_devs.items())}
        return d

    def summary(self) -> str:
        lines = [
            f"engines: {self.engine_a} vs {self.engine_b}",
            f"time window: [{self.t_min:g}, {self.t_max:g}] ({self.n_points} points)",
            f"max |d sigma| = {self.max_sigma_dev:.6g}  (tolerance {self.sigma_tol:.6g})",
            f"rms |d sigma| = {self.rms_sigma_dev:.6g}",
        ]
        for z, v in sorted(self.probe_devs.items()):
            lines.append(f"max |d N| at z*={z:g}: {v:.6g}")
        lines.append(f"conservation residual: {self.conservation_a:.3g} / {self.conservation_b:.3g}")
        lines.append("RESULT: PASS" if self.passed else "RESULT: FAIL")
        return "\n".join(lines)


def compare_engines(
    series_a: TimeSeries,
    series_b: TimeSeries,
    tgrid,
    sigma_tol: float | None = None,
) -> ComparisonReport:
    """Interpolate both series onto tgrid and report their deviations.

    sigma_tol defaults to 5% of the equilibrium surface density of the
    first series' parameter set.  The report is symmetric in its inputs.
    """
    tgrid = np.asarray(tgrid, dtype=float)
    if tgrid.ndim != 1 or tgrid.size == 0 or not np.all(np.isfinite(tgrid)):
        raise InvalidInput(f"the comparison grid must be a non-empty 1-d array of finite times,"
                           f" got shape {tgrid.shape}")
    lo = max(series_a.t[0], series_b.t[0])
    hi = min(series_a.t[-1], series_b.t[-1])
    if lo > hi or np.any(tgrid < lo - 1e-12) or np.any(tgrid > hi + 1e-12):
        raise InvalidInput(
            f"comparison grid [{tgrid[0]:g}, {tgrid[-1]:g}] not covered by both series"
            f" (overlap [{lo:g}, {hi:g}])"
        )
    p = series_a.params or series_b.params
    if sigma_tol is None:
        if p is None:
            raise InvalidInput("sigma_tol required when the series carry no parameters")
        _, sigma_eq = equilibrium(p)
        sigma_tol = 0.05 * sigma_eq
    sa = np.interp(tgrid, series_a.t, series_a.sigma)
    sb = np.interp(tgrid, series_b.t, series_b.sigma)
    dev = np.abs(sa - sb)
    probe_devs = {}
    for z in sorted(set(series_a.probes) & set(series_b.probes)):
        pa = np.interp(tgrid, series_a.t, series_a.probes[z])
        pb = np.interp(tgrid, series_b.t, series_b.probes[z])
        probe_devs[z] = float(np.max(np.abs(pa - pb)))
    max_sigma = float(np.max(dev))
    return ComparisonReport(
        engine_a=series_a.engine,
        engine_b=series_b.engine,
        t_min=float(tgrid[0]),
        t_max=float(tgrid[-1]),
        n_points=int(tgrid.size),
        max_sigma_dev=max_sigma,
        rms_sigma_dev=float(math.sqrt(np.mean(dev**2))),
        probe_devs=probe_devs,
        max_probe_dev=float(max(probe_devs.values())) if probe_devs else 0.0,
        conservation_a=_max_conservation(series_a),
        conservation_b=_max_conservation(series_b),
        sigma_tol=float(sigma_tol),
        passed=max_sigma <= sigma_tol,
        params=p,
        meta={"engine_a_meta": series_a.meta, "engine_b_meta": series_b.meta},
    )


def _max_conservation(series: TimeSeries) -> float:
    if series.conservation is None or len(series.conservation) == 0:
        return float("nan")
    return float(np.max(series.conservation))


def audit_kinetics(series: TimeSeries, p: Params) -> np.ndarray:
    """Residual of the wall kinetics A dsigma/dt = L N_wall - sigma per level.

    Uses the same backward difference as the fdm wall closure, so fdm
    series return machine-level residuals; truncated modal series return
    small residuals that shrink with the mode count.
    """
    dt = np.diff(series.t)
    dsigma = np.diff(series.sigma)
    rhs = p.L * series.surface[1:] - series.sigma[1:]
    return p.A * dsigma / dt - rhs


def audit_conservation(series: TimeSeries, p: Params) -> np.ndarray:
    """Residual |integral(N) + 2 sigma - N0| recomputed from the stored rows.

    Only an fdm series stores rows; a sum engine's series carries its
    closed-form residual in series.conservation instead, and is refused here.
    """
    if series.rows is None or series.row_z is None:
        raise InvalidInput("series carries no spatial rows to audit")
    mass = 2.0 * np.trapezoid(series.rows, series.row_z, axis=1)
    sigma = np.interp(series.row_times, series.t, series.sigma)
    return np.abs(mass + 2.0 * sigma - p.N0)
