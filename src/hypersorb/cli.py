"""Command-line front end: run, sweep, compare, eigen-dump.

Configuration can come from a flat ``key = value`` file (# comments
allowed) with command-line flags taking precedence.  Artifacts are CSV
series plus JSON diagnostics; every artifact embeds the resolved
configuration, and identical configurations produce identical bytes.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import eigen, fdm, poles, spectral, validate
from .errors import ConfigError, HypersorbError
from .params import InitialCondition, Params, PhysicalInputs, from_physical, parabolic_ic, sampled_ic, step_ic
from .series import thin_series
from .seriesio import ensure_outdir, probe_column, write_csv, write_json, write_series_csv

OUTDIR_ENV = "HYPERSORB_OUTDIR"

SWEEP_AXES = ("A", "B", "L", "N0")
ENGINES = ("fdm", "spectral", "parabolic", "compare")

# ten times the largest mode count in use; the root scan holds
# eigen.SCAN_POINTS points per mode and the Gram matrix modes^2 doubles
MAX_MODES = 2000

# 250 times the default eigen-dump grid; the table costs ~85 bytes a point
MAX_GRID_POINTS = 10**6

# most samples x modes of a modal time evaluation; the (samples, modes)
# table of complex weights is built in one piece, at 16 bytes an entry and
# one buffer of the same size.  The largest in use is 801 x 2000.  It also
# bounds samples x roots of the parabolic pole sum, whose table holds one
# real exponential per sample and root (801 x 21 at T = 2).
MAX_MODAL_TERMS = 10**7

# eigen-dump's default secular-equation grid: alpha from ALPHA_MIN to
# ALPHA_MAX (twelve anchor intervals) in GRID_POINTS points
ALPHA_MIN, ALPHA_MAX, GRID_POINTS = 0.05, 2.0 * math.pi * 12, 4000

# most sweep workers a run may ask for; each one is a process of its own,
# and the pool starts all of them on the first point it is handed
MAX_WORKERS = 64


@dataclass
class RunConfig:
    """Resolved run configuration; exactly one engine, optional sweep axis.

    Each field's annotation is the one schema of its key: _coerce types
    the text of a flag or of a config file line by it.
    """

    engine: str = "fdm"
    A: float | None = None
    B: float | None = None
    L: float | None = None
    N0: float | None = None
    d: float | None = None
    D: float | None = None
    tau_r: float | None = None
    tau_a: float | None = None
    k_a: float | None = None
    n0: float | None = None
    ic: str = "step"
    ic_file: str | None = None
    T: float | None = None
    n_z: int = 200
    lam: float | None = None
    modes: int = 50
    samples: int = 801
    probes: list[float] = field(default_factory=lambda: [0.0, 0.25, 0.45])
    outdir: str | None = None
    name: str = "series"
    pair: list[str] = field(default_factory=lambda: ["spectral", "fdm"])
    axis: str | None = None
    values: list[float] = field(default_factory=list)
    workers: int = 1

    def resolved_params(self) -> Params:
        dimensionless = [self.A, self.B, self.L, self.N0]
        physical = [self.d, self.D, self.tau_r, self.tau_a, self.k_a, self.n0]
        if all(v is not None for v in dimensionless):
            return Params(A=self.A, B=self.B, L=self.L, N0=self.N0)
        if all(v is not None for v in physical):
            return from_physical(
                PhysicalInputs(
                    d=self.d, D=self.D, tau_r=self.tau_r,
                    tau_a=self.tau_a, k_a=self.k_a, n0=self.n0,
                )
            )
        missing = [n for n, v in zip("A B L N0".split(), dimensionless) if v is None]
        raise ConfigError(
            f"incomplete parameters: provide A,B,L,N0 (missing {missing}) or the full"
            " physical set d,D,tau_r,tau_a,k_a,n0"
        )

    def resolved_ic(self) -> InitialCondition:
        if self.ic == "step":
            return step_ic()
        if self.ic == "parabolic":
            return parabolic_ic()
        if self.ic == "sampled":
            if not self.ic_file:
                raise ConfigError("ic = sampled requires ic_file (two-column CSV: z,value)")
            try:
                data = np.loadtxt(self.ic_file, delimiter=",", comments="#", ndmin=2)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read ic_file {self.ic_file!r}: {exc}") from exc
            if data.shape[1] < 2:
                raise ConfigError(
                    f"ic_file {self.ic_file!r} has {data.shape[1]} column(s); it needs two: z,value"
                )
            return sampled_ic(data[:, 0], data[:, 1])
        raise ConfigError(f"ic must be step, parabolic or sampled, got {self.ic!r}")

    def horizon(self, p: Params) -> float:
        if self.T is not None:
            return self.T
        # default window 2; slow-wave runs (B >= 1) need the longer horizon
        return 10.0 if p.B >= 1.0 else 2.0

    def validate(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.axis is not None and self.axis not in SWEEP_AXES:
            raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        # a series keys its probes by z*, which holds 0 and -0 as one
        columns = [probe_column(z + 0.0) for z in self.probes]
        for i, (z, column) in enumerate(zip(self.probes, columns)):
            if not abs(z) <= 0.5:
                raise ConfigError(f"probe z* = {z} outside [-1/2, 1/2]")
            if column in columns[:i]:
                raise ConfigError(
                    f"probes {self.probes[columns.index(column)]!r} and {z!r} both name column"
                    f" {column}; give probes that differ in 6 significant digits"
                )
        if self.n_z < fdm.MIN_N_Z:
            raise ConfigError(f"n_z must be at least {fdm.MIN_N_Z}, got {self.n_z}")
        for key in ("T", "lam"):
            value = getattr(self, key)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"{key} must be finite and strictly positive, got {value!r}")
        if not 1 <= self.modes <= MAX_MODES:
            raise ConfigError(
                f"modes must be between 1 and {MAX_MODES}, got {self.modes}: the root scan"
                f" holds {eigen.SCAN_POINTS} points per mode and the Gram matrix modes^2 doubles"
            )
        if self.samples < 2:
            raise ConfigError("samples must be at least 2")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ConfigError(
                f"workers must be between 1 and {MAX_WORKERS}, got {self.workers}:"
                " each worker is a process"
            )
        if (len(self.pair) != 2 or self.pair[0] == self.pair[1]
                or any(e not in ("fdm", "spectral", "parabolic") for e in self.pair)):
            raise ConfigError(f"pair must name two different engines of fdm, spectral, parabolic,"
                              f" got {','.join(self.pair)}")
        modal = self.engine == "spectral" or (self.engine == "compare" and "spectral" in self.pair)
        if modal and self.samples * self.modes > MAX_MODAL_TERMS:
            raise ConfigError(
                f"samples x modes must be at most {MAX_MODAL_TERMS}, got {self.samples} x"
                f" {self.modes}: the modal time table holds one complex weight per sample and mode"
            )


def _names(text: str) -> list[str]:
    """A comma-separated list of names, each stripped, empty items dropped."""
    return [v.strip() for v in text.split(",") if v.strip()]


def _coerce(key: str, text: str):
    """text of a flag or the config file as field key's type; ConfigError if it cannot be.

    A list field splits text with _names; a float field takes a float
    literal, an int field an integer literal, and a str field text as written.
    """
    kind = RunConfig.__annotations__[key]
    scalar = float if "float" in kind else int if kind == "int" else str
    try:
        return [scalar(v) for v in _names(text)] if kind.startswith("list") else scalar(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from exc


def load_config_file(path) -> dict:
    """Flat key = value document of RunConfig fields, each value typed; '#' starts a comment."""
    out: dict = {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    unknown = sorted(set(out) - set(RunConfig.__annotations__))
    if unknown:
        raise ConfigError(f"unknown key(s) in config file {path}: {', '.join(unknown)}")
    return {key: _coerce(key, value) for key, value in out.items()}


def build_config(args: argparse.Namespace) -> RunConfig:
    """RunConfig from the --config file, then the flags set on the command line.

    Flags without a field (the command, --config, the eigen-dump range) are
    skipped.  The compare command sets the engine to compare.
    """
    values = load_config_file(args.config) if getattr(args, "config", None) else {}
    for key, text in vars(args).items():
        if text is not None and key in RunConfig.__annotations__:
            values[key] = _coerce(key, text)
    if getattr(args, "command", None) == "compare":
        values["engine"] = "compare"
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def _outdir(cfg: RunConfig) -> str:
    path = cfg.outdir or os.environ.get(OUTDIR_ENV) or "."
    return ensure_outdir(path)


def _grid(cfg: RunConfig, engine: str, p: Params, n_points: int = 1):
    """What engine evaluates p on, checked before any engine runs.

    fdm marches a Grid, checked for a march of n_points rows; spectral and
    parabolic evaluate --samples times over the horizon, and the parabolic
    pole sum's table of samples x roots is held to MAX_MODAL_TERMS (the
    spectral one is checked with the configuration).
    """
    T = cfg.horizon(p)
    if engine == "fdm":
        lam = cfg.lam if cfg.lam is not None else fdm.default_lambda(p.B)
        grid = fdm.Grid.from_lambda(cfg.n_z, T, lam)
        fdm.check_grid(grid, fdm.WAVE, p.B, n_points)
        return grid
    if engine == "parabolic":
        roots = poles.interval_count(T / (cfg.samples - 1))
        if cfg.samples * roots > MAX_MODAL_TERMS:
            raise ConfigError(
                f"samples x roots must be at most {MAX_MODAL_TERMS}, got {cfg.samples} x {roots}:"
                f" the parabolic sum keeps every root beta with beta^2 T/(samples - 1) <="
                f" {poles.DROP_EXPONENT:g}, one exponential per sample and root"
            )
    return np.linspace(0.0, T, cfg.samples)


def _solve_one(cfg: RunConfig, engine: str, p: Params, ic: InitialCondition, grid, sol=None):
    """Series of one engine on its grid from _grid; a spectral solution at hand is reused."""
    if engine == "fdm":
        return fdm.run_fdm(p, ic, grid, probes=cfg.probes)
    if engine == "parabolic":
        return poles.to_series(p, ic, grid, probes=cfg.probes)
    sol = sol or spectral.solve_spectral(p, ic, cfg.modes)
    return spectral.to_series(sol, grid, probes=cfg.probes)


def _series_diagnostics(series, cfg_echo: dict) -> dict:
    payload = {
        "config": cfg_echo,
        "engine": series.engine,
        "max_conservation_residual": validate._max_conservation(series),
        "sigma_final": float(series.sigma[-1]),
        "meta": series.meta,
    }
    if series.params is not None:
        payload["params"] = asdict(series.params)
    return payload


def cmd_run(cfg: RunConfig) -> int:
    p = cfg.resolved_params()
    # every grid is refused here if it is bad, before any engine runs
    engines = cfg.pair if cfg.engine == "compare" else [cfg.engine]
    grids = {e: _grid(cfg, e, p) for e in engines}
    ic = cfg.resolved_ic()
    outdir = _outdir(cfg)
    echo = asdict(cfg)
    if cfg.engine == "compare":
        return _emit_comparison(cfg, p, ic, grids, outdir, echo)
    sol = None
    if cfg.engine == "spectral":
        sol = spectral.solve_spectral(p, ic, cfg.modes)
    series = _solve_one(cfg, cfg.engine, p, ic, grids[cfg.engine], sol)
    csv_path = os.path.join(outdir, f"{cfg.name}.csv")
    write_series_csv(thin_series(series, cfg.samples), csv_path, config=echo)
    diag = _series_diagnostics(series, echo)
    if cfg.engine == "spectral":
        diag["eigenvalues"] = [m.alpha for m in sol.modes]
        diag["anchors"] = [m.index for m in sol.modes]
        diag["amplitudes_S1"] = [complex(v) for v in sol.S1]
        diag["amplitudes_S2"] = [complex(v) for v in sol.S2]
    write_json(diag, os.path.join(outdir, f"{cfg.name}.json"))
    print(csv_path)
    return 0


def _emit_comparison(
    cfg: RunConfig, p: Params, ic: InitialCondition, grids: dict, outdir: str, echo: dict
) -> int:
    name_a, name_b = cfg.pair
    series_a = _solve_one(cfg, name_a, p, ic, grids[name_a])
    series_b = _solve_one(cfg, name_b, p, ic, grids[name_b])
    T = min(series_a.t[-1], series_b.t[-1])
    tgrid = np.linspace(0.05 * T, T, 401)
    report = validate.compare_engines(series_a, series_b, tgrid)
    for name, series in ((name_a, series_a), (name_b, series_b)):
        path = os.path.join(outdir, f"{cfg.name}_{name}.csv")
        write_series_csv(thin_series(series, cfg.samples), path, config=echo)
    payload = report.to_dict()
    payload["config"] = echo
    write_json(payload, os.path.join(outdir, f"{cfg.name}_report.json"))
    txt_path = os.path.join(outdir, f"{cfg.name}_report.txt")
    with open(txt_path, "w", newline="") as fh:
        fh.write(report.summary() + "\n")
    print(report.summary())
    return 0 if report.passed else 1


def _solve_group(task) -> list:
    """Series of a sweep's fdm points on one grid as one batch, or of one other point."""
    cfg, ps, ic, grid = task
    if cfg.engine == "fdm":
        return fdm.run_fdm_batch(ps, ic, grid, probes=cfg.probes)
    return [_solve_one(cfg, cfg.engine, ps[0], ic, grid)]


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.axis is None or not cfg.values:
        raise ConfigError("sweep requires --axis and --values")
    if cfg.engine == "compare":
        raise ConfigError("sweep does not support the compare engine")
    stems = [f"{cfg.name}_{cfg.axis}{value:g}" for value in cfg.values]
    for i, stem in enumerate(stems):
        if stem in stems[:i]:
            raise ConfigError(
                f"sweep values {cfg.values[stems.index(stem)]!r} and {cfg.values[i]!r} both"
                f" name {stem}.csv; give values that differ in 6 significant digits"
            )
    # the axis value completes the dimensionless set when it is the one left out
    base = replace(cfg, **{cfg.axis: cfg.values[0]}).resolved_params()
    points = [replace(base, **{cfg.axis: v}) for v in cfg.values]
    # fdm points on one grid march as one batch whatever their B, any other point alone.
    # Every grid is checked before any engine runs, for all points: a sweep holds all their series
    groups: dict = {}
    for i, p in enumerate(points):
        grid = _grid(cfg, cfg.engine, p, len(points))
        groups.setdefault(grid if cfg.engine == "fdm" else i, (grid, []))[1].append(i)
    ic = cfg.resolved_ic()
    outdir = _outdir(cfg)
    echo = asdict(cfg)
    tasks = [(cfg, [points[i] for i in members], ic, grid) for grid, members in groups.values()]
    if cfg.workers > 1 and len(tasks) > 1:
        # looked up on the module: __getattr__ imports it on first use, and a
        # rebinding of cli.ProcessPoolExecutor takes effect
        pool_type = getattr(sys.modules[__name__], "ProcessPoolExecutor")
        with pool_type(max_workers=min(cfg.workers, len(tasks))) as pool:
            results = list(pool.map(_solve_group, tasks))
    else:
        results = list(map(_solve_group, tasks))
    paths = [os.path.join(outdir, f"{stem}.csv") for stem in stems]
    for (_, members), group in zip(groups.values(), results):
        for i, series in zip(members, group):
            point_echo = {**echo, cfg.axis: cfg.values[i]}
            write_series_csv(thin_series(series, cfg.samples), paths[i], config=point_echo)
    files = [os.path.basename(path) for path in paths]
    write_json(
        {"config": echo, "axis": cfg.axis, "values": list(cfg.values), "files": files},
        os.path.join(outdir, f"{cfg.name}_index.json"),
    )
    print("\n".join(os.path.join(outdir, f) for f in files))
    return 0


def __getattr__(name: str):
    """Import ProcessPoolExecutor on first use.

    concurrent.futures.process and multiprocessing add ~16 ms to every
    fresh interpreter, and only a sweep over two or more grids, or
    spectral points, on several workers starts a pool.
    """
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cmd_eigen_dump(cfg: RunConfig, alpha_min: float, alpha_max: float, points: int) -> int:
    if not 2 <= points <= MAX_GRID_POINTS or not 0 < alpha_min < alpha_max < math.inf:
        raise ConfigError(
            f"eigen-dump needs 2 <= points <= {MAX_GRID_POINTS} and"
            " 0 < alpha-min < alpha-max < inf, got"
            f" points = {points}, alpha-min = {alpha_min!r}, alpha-max = {alpha_max!r}"
        )
    p = cfg.resolved_params()
    outdir = _outdir(cfg)
    path = os.path.join(outdir, f"{cfg.name}_eigen_grid.csv")
    table = eigen.eigen_grid(p, np.linspace(alpha_min, alpha_max, points))
    write_csv(path, list(table), list(table.values()), config=asdict(cfg))
    print(path)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value configuration file")
    # every RunConfig flag stays text here: _coerce types it for flags and file alike
    for key in ("A", "B", "L", "N0", "d", "D", "tau-r", "tau-a", "k-a", "n0"):
        sub.add_argument(f"--{key}", dest=key.replace("-", "_"))
    sub.add_argument("--ic", choices=("step", "parabolic", "sampled"))
    sub.add_argument("--ic-file", dest="ic_file")
    sub.add_argument("--T")
    sub.add_argument("--n-z", dest="n_z")
    sub.add_argument("--lam", help="time/space step ratio for the fdm engine")
    sub.add_argument("--modes")
    sub.add_argument("--samples", help="rows of every written series: evenly spread times"
                     " including both ends (default 801); for fdm, at least the level count"
                     " (n_t + 1) writes every level; spectral and parabolic evaluate exactly"
                     " these times, samples x modes or x roots at most 10^7")
    sub.add_argument("--probes")
    sub.add_argument("--outdir")
    sub.add_argument("--name")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersorb",
        description="Finite-velocity diffusion with adsorbing walls: series and"
        " finite-difference solvers with CSV/JSON artifacts",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="single solve with one engine")
    _add_common(run)
    run.add_argument("--engine", choices=ENGINES)
    run.add_argument("--pair", help="engines for --engine compare, e.g. spectral,fdm")

    sweep = subs.add_parser("sweep", help="repeat a run along one parameter axis")
    _add_common(sweep)
    sweep.add_argument("--engine", choices=("fdm", "spectral", "parabolic"))
    sweep.add_argument("--axis", choices=SWEEP_AXES)
    sweep.add_argument("--values")
    sweep.add_argument("--workers")

    comp = subs.add_parser("compare", help="run two engines and report deviations")
    _add_common(comp)
    comp.add_argument("--pair", help="two of fdm, spectral, parabolic (default spectral,fdm)")

    dump = subs.add_parser("eigen-dump", help="tabulate the secular equations on an alpha grid")
    _add_common(dump)
    dump.add_argument("--alpha-min", type=float, default=ALPHA_MIN)
    dump.add_argument("--alpha-max", type=float, default=ALPHA_MAX)
    dump.add_argument("--points", type=int, default=GRID_POINTS)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "compare":
            return cmd_run(cfg)
        if args.command == "eigen-dump":
            return cmd_eigen_dump(cfg, args.alpha_min, args.alpha_max, args.points)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except HypersorbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
