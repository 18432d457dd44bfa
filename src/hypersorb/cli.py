"""Command-line front end: run, sweep, compare, eigen-dump.

Configuration can come from a flat ``key = value`` file (# comments
allowed) with command-line flags taking precedence.  Artifacts are CSV
series plus JSON diagnostics; every artifact embeds the resolved
configuration, and identical configurations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import eigen, fdm, spectral, validate
from .errors import ConfigError, HypersorbError
from .params import InitialCondition, Params, PhysicalInputs, from_physical, parabolic_ic, sampled_ic, step_ic
from .seriesio import ensure_outdir, write_csv, write_json, write_series_csv

OUTDIR_ENV = "HYPERSORB_OUTDIR"

SWEEP_AXES = ("A", "B", "L", "N0")
ENGINES = ("fdm", "spectral", "parabolic", "compare")


@dataclass
class RunConfig:
    """Resolved run configuration; exactly one engine, optional sweep axis."""

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
    r: float = 0.4
    modes: int = 50
    samples: int = 801
    probes: list[float] = field(default_factory=lambda: [0.0, 0.25, 0.45])
    outdir: str | None = None
    name: str = "series"
    diagnostics: bool = False
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
            data = np.loadtxt(self.ic_file, delimiter=",", comments="#")
            return sampled_ic(data[:, 0], data[:, 1])
        raise ConfigError(f"ic must be step, parabolic or sampled, got {self.ic!r}")

    def horizon(self, p: Params) -> float:
        if self.T is not None:
            return self.T
        # default window 2; slow-wave runs (B >= 1) need the longer horizon
        return 10.0 if p.B >= 1.0 else 2.0

    def echo(self) -> dict:
        d = asdict(self)
        d["probes"] = list(self.probes)
        d["values"] = list(self.values)
        d["pair"] = list(self.pair)
        return d

    def validate(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.axis is not None and self.axis not in SWEEP_AXES:
            raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        for z in self.probes:
            if abs(z) > 0.5:
                raise ConfigError(f"probe z* = {z} outside [-1/2, 1/2]")
        if self.modes < 1:
            raise ConfigError("modes must be at least 1")
        if self.samples < 2:
            raise ConfigError("samples must be at least 2")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if len(self.pair) != 2 or any(e not in ("fdm", "spectral", "parabolic") for e in self.pair):
            raise ConfigError("pair must name two of fdm, spectral, parabolic")


def _parse_scalar(text: str):
    text = text.strip()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def load_config_file(path) -> dict:
    """Flat key = value document; '#' starts a comment; lists are comma-split."""
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
        if key in ("probes", "values", "pair"):
            items = [v for v in value.split(",") if v.strip()]
            out[key] = [_parse_scalar(v) for v in items]
        else:
            out[key] = _parse_scalar(value)
    return out


_FLOAT_KEYS = ("A", "B", "L", "N0", "d", "D", "tau_r", "tau_a", "k_a", "n0", "T", "lam", "r")
_INT_KEYS = ("n_z", "modes", "samples", "workers")


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
    for source in (file_values, {k: v for k, v in vars(args).items() if v is not None}):
        for key, value in source.items():
            if not hasattr(cfg, key) or key == "config":
                continue
            if key in _FLOAT_KEYS and value is not None:
                value = float(value)
            if key in _INT_KEYS and value is not None:
                value = int(value)
            if key in ("probes", "values") and value is not None:
                value = [float(v) for v in value]
            if key == "pair" and value is not None:
                value = [str(v) for v in value]
            setattr(cfg, key, value)
    cfg.validate()
    return cfg


def _outdir(cfg: RunConfig) -> str:
    path = cfg.outdir or os.environ.get(OUTDIR_ENV) or "."
    return ensure_outdir(path)


def _grid(cfg: RunConfig, engine: str, p: Params) -> fdm.Grid:
    T = cfg.horizon(p)
    if engine == "fdm":
        lam = cfg.lam if cfg.lam is not None else fdm.default_lambda(p.B)
        return fdm.Grid.from_lambda(cfg.n_z, T, lam)
    return fdm.Grid.for_parabolic(cfg.n_z, T, cfg.r)


def _solve_one(cfg: RunConfig, engine: str, p: Params, sol=None):
    """Series of one engine; a spectral solution already at hand is reused."""
    ic = cfg.resolved_ic()
    if engine == "fdm":
        return fdm.run_fdm(p, ic, _grid(cfg, engine, p), probes=cfg.probes)
    if engine == "parabolic":
        return validate.run_parabolic(p, ic, _grid(cfg, engine, p), probes=cfg.probes)
    if engine == "spectral":
        sol = sol or spectral.solve_spectral(p, ic, cfg.modes)
        tgrid = np.linspace(0.0, cfg.horizon(p), cfg.samples)
        return spectral.to_series(sol, tgrid, probes=cfg.probes)
    raise ConfigError(f"unknown engine {engine!r}")


def _solve_batch(cfg: RunConfig, ps: list[Params]) -> list:
    """Series of points that share B, hence one grid, marched as one batch."""
    ic = cfg.resolved_ic()
    grid = _grid(cfg, cfg.engine, ps[0])
    if cfg.engine == "fdm":
        return fdm.run_fdm_batch(ps, ic, grid, probes=cfg.probes)
    return validate.run_parabolic_batch(ps, ic, grid, probes=cfg.probes)


def _series_diagnostics(series, cfg_echo: dict) -> dict:
    payload = {
        "config": cfg_echo,
        "engine": series.engine,
        "max_conservation_residual": validate._max_conservation(series),
        "sigma_final": float(series.sigma[-1]),
        "meta": series.meta,
    }
    if series.params is not None:
        payload["params"] = {
            "A": series.params.A, "B": series.params.B,
            "L": series.params.L, "N0": series.params.N0,
        }
    return payload


def cmd_run(cfg: RunConfig) -> int:
    p = cfg.resolved_params()
    outdir = _outdir(cfg)
    echo = cfg.echo()
    if cfg.engine == "compare":
        return _emit_comparison(cfg, p, outdir, echo)
    sol = None
    if cfg.engine == "spectral":
        sol = spectral.solve_spectral(p, cfg.resolved_ic(), cfg.modes)
    series = _solve_one(cfg, cfg.engine, p, sol)
    csv_path = os.path.join(outdir, f"{cfg.name}.csv")
    write_series_csv(series, csv_path, config=echo)
    diag = _series_diagnostics(series, echo)
    if cfg.engine == "spectral":
        diag["eigenvalues"] = [m.alpha for m in sol.modes]
        diag["anchors"] = [m.index for m in sol.modes]
        diag["amplitudes_S1"] = [complex(v) for v in sol.S1]
        diag["amplitudes_S2"] = [complex(v) for v in sol.S2]
        diag["spectral_diagnostics"] = sol.diagnostics
        if cfg.diagnostics:
            _write_eigen_grid(p, os.path.join(outdir, f"{cfg.name}_eigen_grid.csv"), echo)
    write_json(diag, os.path.join(outdir, f"{cfg.name}.json"))
    print(csv_path)
    return 0


def _emit_comparison(cfg: RunConfig, p: Params, outdir: str, echo: dict) -> int:
    name_a, name_b = cfg.pair
    series_a = _solve_one(cfg, name_a, p)
    series_b = _solve_one(cfg, name_b, p)
    T = min(series_a.t[-1], series_b.t[-1])
    tgrid = np.linspace(0.05 * T, T, 401)
    report = validate.compare_engines(series_a, series_b, tgrid)
    write_series_csv(series_a, os.path.join(outdir, f"{cfg.name}_{name_a}.csv"), config=echo)
    write_series_csv(series_b, os.path.join(outdir, f"{cfg.name}_{name_b}.csv"), config=echo)
    payload = report.to_dict()
    payload["config"] = echo
    write_json(payload, os.path.join(outdir, f"{cfg.name}_report.json"))
    txt_path = os.path.join(outdir, f"{cfg.name}_report.txt")
    with open(txt_path, "w", newline="") as fh:
        fh.write(report.summary() + "\n")
    print(report.summary())
    return 0 if report.passed else 1


def _sweep_point(payload):
    cfg_dict, p = payload
    cfg = RunConfig(**cfg_dict)
    return _solve_one(cfg, cfg.engine, p)


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.axis is None or not cfg.values:
        raise ConfigError("sweep requires --axis and --values")
    if cfg.engine == "compare":
        raise ConfigError("sweep does not support the compare engine")
    outdir = _outdir(cfg)
    echo = cfg.echo()
    # the axis value completes the dimensionless set when it is the one left out
    base = replace(cfg, **{cfg.axis: cfg.values[0]}).resolved_params()
    points = [replace(base, **{cfg.axis: v}) for v in cfg.values]
    if cfg.engine != "spectral" and cfg.axis != "B":
        # A, L and N0 leave the grid alone: one batched march, no pool
        series_list = _solve_batch(cfg, points)
    elif cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            series_list = list(pool.map(_sweep_point, [(echo, p) for p in points]))
    else:
        series_list = [_sweep_point((echo, p)) for p in points]
    files = []
    for value, series in zip(cfg.values, series_list):
        stem = f"{cfg.name}_{cfg.axis}{value:g}"
        path = os.path.join(outdir, f"{stem}.csv")
        point_echo = dict(echo)
        point_echo[cfg.axis] = value
        write_series_csv(series, path, config=point_echo)
        files.append(os.path.basename(path))
    write_json(
        {"config": echo, "axis": cfg.axis, "values": list(cfg.values), "files": files},
        os.path.join(outdir, f"{cfg.name}_index.json"),
    )
    print("\n".join(os.path.join(outdir, f) for f in files))
    return 0


def _write_eigen_grid(p: Params, path: str, echo: dict, alpha_min=0.05, alpha_max=None, points=4000):
    if alpha_max is None:
        alpha_max = 2.0 * np.pi * 12
    grid = np.linspace(alpha_min, alpha_max, points)
    table = eigen.eigen_grid(p, grid)
    names = ("alpha", "f1", "f2", "re_E", "im_E")
    write_csv(path, names, [table[c] for c in names], config=echo)


def cmd_eigen_dump(cfg: RunConfig, alpha_min: float, alpha_max: float, points: int) -> int:
    p = cfg.resolved_params()
    outdir = _outdir(cfg)
    path = os.path.join(outdir, f"{cfg.name}_eigen_grid.csv")
    _write_eigen_grid(p, path, cfg.echo(), alpha_min, alpha_max, points)
    print(path)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value configuration file")
    for key in ("A", "B", "L", "N0"):
        sub.add_argument(f"--{key}", type=float)
    for key in ("d", "D", "tau-r", "tau-a", "k-a", "n0"):
        sub.add_argument(f"--{key}", type=float, dest=key.replace("-", "_"))
    sub.add_argument("--ic", choices=("step", "parabolic", "sampled"))
    sub.add_argument("--ic-file", dest="ic_file")
    sub.add_argument("--T", type=float)
    sub.add_argument("--n-z", type=int, dest="n_z")
    sub.add_argument("--lam", type=float, help="time/space step ratio for the fdm engine")
    sub.add_argument("--r", type=float, help="k/h^2 for the parabolic engine")
    sub.add_argument("--modes", type=int)
    sub.add_argument("--samples", type=int)
    sub.add_argument("--probes", type=lambda s: [float(v) for v in s.split(",") if v.strip()])
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
    run.add_argument("--diagnostics", action="store_true", default=None,
                     help="also dump the secular-equation grid (spectral engine)")
    run.add_argument("--pair", type=lambda s: s.split(","),
                     help="engines for --engine compare, e.g. spectral,fdm")

    sweep = subs.add_parser("sweep", help="repeat a run along one parameter axis")
    _add_common(sweep)
    sweep.add_argument("--engine", choices=("fdm", "spectral", "parabolic"))
    sweep.add_argument("--axis", choices=SWEEP_AXES)
    sweep.add_argument("--values", type=lambda s: [float(v) for v in s.split(",") if v.strip()])
    sweep.add_argument("--workers", type=int)

    comp = subs.add_parser("compare", help="run two engines and report deviations")
    _add_common(comp)
    comp.add_argument("--pair", type=lambda s: s.split(","),
                      help="two of fdm, spectral, parabolic (default spectral,fdm)")

    dump = subs.add_parser("eigen-dump", help="tabulate the secular equations on an alpha grid")
    _add_common(dump)
    dump.add_argument("--alpha-min", type=float, default=0.05)
    dump.add_argument("--alpha-max", type=float, default=float(2.0 * np.pi * 12))
    dump.add_argument("--points", type=int, default=4000)
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
            cfg.engine = "compare"
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
