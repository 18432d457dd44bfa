"""Measurement loop, correctness checks and metrics of the benchmark.

Every operation is one CLI command, run in this process through
``hypersorb.cli.main(argv)``.  Its wall time includes writing its
artifacts.  The checks run between operations and after the timed loop,
outside the timed region.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hypersorb import cli, fdm, seriesio, spectral
from hypersorb.params import Params, equilibrium, step_ic

import spans

OUT = Path(".perfbench_out")
NAME = "bench"
T_END = 2.0
# fresh interpreters started to time set-up; also the number of warm probes
SETUP_REPEATS = 5
SIGMA_TOL = 0.05  # share of sigma_eq; the compare_engines default
SWEEP_SIGMA_T_TOL = 1e-3  # share of sigma_eq allowed between sigma(T) and sigma_eq
CONSERVATION_TOL = 1e-12
WINDOW = np.linspace(0.05 * T_END, T_END, 401)  # where sigma_err is taken, as in cli compare

# On a shared 2-vCPU Xeon VM the speed of the host drifts: a fixed kernel's
# time varied 2x within seconds, and the medians of 20-second runs of
# modal_200 spread by 40 % (quartile distance over median).  Every timing is
# therefore scaled to a fixed reference speed: multiplied by CAL_REF_S over
# the mean time of calibrate() sampled around and during it (see Gauge).
# Raw times are kept in the run record.
CAL_REF_S = 0.0015
EDGE_SAMPLES = 5
SAMPLE_INTERVAL_S = 0.25


@dataclass(frozen=True)
class Workload:
    """One CLI command; A, L and N0 are scaled by the seed unless fixed."""

    command: tuple[str, ...]
    A: float
    B: float
    N0: float
    L: float | None  # None: L is the sweep axis and stays on its grid
    extra: tuple[str, ...] = ()
    # overrides that turn the command into a small probe with the same code
    # path, on which a cold start's extra cost is not lost in timing noise
    probe: tuple[str, ...] = ("--T", "0.02")


SWEEP_L = (0.1, 1.0, 10.0, 100.0)
SWEEP_WORKERS = 2
WORKLOADS = {
    "wave_fdm": Workload(("run", "--engine", "fdm"), A=0.01, B=0.1, N0=3.0, L=1.0,
                         extra=("--probes", "0,0.25,0.45")),
    "modal_200": Workload(("run", "--engine", "spectral"), A=1e-3, B=0.1, N0=3.0, L=1.0,
                          extra=("--modes", "200"), probe=("--T", "0.02", "--modes", "8")),
    "oracle_compare": Workload(("compare", "--pair", "parabolic,fdm"), A=0.01, B=1e-3, N0=3.0, L=1.0,
                               extra=("--n-z", "100")),
    "L_sweep": Workload(("sweep", "--engine", "fdm", "--axis", "L"), A=0.01, B=0.1, N0=3.0, L=None,
                        extra=("--values", ",".join(f"{v:g}" for v in SWEEP_L), "--n-z", "100",
                               "--workers", str(SWEEP_WORKERS))),
}


def resolve_inputs(wl: Workload, seed: int) -> dict:
    """A, L and N0 times seeded factors in [0.9, 1.1]; the work size is seed-free."""
    rng = random.Random(seed)
    fa, fl, fn = (rng.uniform(0.9, 1.1) for _ in range(3))
    return {
        "A": wl.A * fa, "B": wl.B, "L": None if wl.L is None else wl.L * fl,
        "N0": wl.N0 * fn, "T": T_END,
    }


def command_argv(wl: Workload, inputs: dict, outdir: Path) -> list[str]:
    argv = list(wl.command)
    for key in ("A", "B", "L", "N0", "T"):
        if inputs[key] is not None:
            argv += [f"--{key}", repr(inputs[key])]
    return argv + list(wl.extra) + ["--outdir", str(outdir), "--name", NAME]


@dataclass
class OpRecord:
    """What one operation returned, wrote and computed."""

    rc: int | None
    seconds: float  # wall time of cli.main
    scaled: float  # the same at the reference speed
    stdout: str
    error: str = ""
    artifacts: dict[str, str] = field(default_factory=dict)  # file -> sha256 of its bytes
    series: list[dict] = field(default_factory=list)  # one entry per CSV written
    failures: list[str] = field(default_factory=list)


class SeriesCapture:
    """Records each series the CLI writes, from cli's binding of write_series_csv.

    The sigma array is kept as a sha256 of its bytes, so nothing large
    outlives the operation.
    """

    def __init__(self):
        self.records: list[dict] = []

    def wrap(self, write):
        def capture(series, path, config=None):
            write(series, path, config=config)
            cons = series.conservation
            self.records.append({
                "file": os.path.basename(path),
                "engine": series.engine,
                "sigma_sha256": hashlib.sha256(np.ascontiguousarray(series.sigma).tobytes()).hexdigest(),
                "sigma_T": float(series.sigma[-1]),
                "conservation": None if cons is None else float(np.max(cons)),
                "params": None if series.params is None else [
                    series.params.A, series.params.B, series.params.L, series.params.N0],
            })

        return capture


def calibrate() -> float:
    """Seconds taken by a fixed mix of the kinds of work hypersorb does.

    Small-array numpy updates, float formatting, an interpreted float loop
    and a streaming pass over 2 MB; about 1.5 ms on a quiet host.  Of the
    mixes tried, a broad one tracked the drift of every workload about as
    well as the best single choice for any one of them.
    """
    t0 = time.perf_counter()
    row = np.linspace(0.0, 1.0, 201)
    for _ in range(80):
        new = row.copy()
        new[1:-1] = row[1:-1] + 0.25 * (row[2:] - 2.0 * row[1:-1] + row[:-2])
        row = new
    ",".join(f"{v:.17g}" for v in np.tile(row, 2))
    acc = 0.0
    for i in range(8_000):
        acc += i * 0.5
    block = np.ones(250_000) * 1.0001
    return time.perf_counter() - t0


@dataclass
class Timing:
    raw: float = math.nan  # wall seconds, the gauge's own samples taken out
    scaled: float = math.nan  # seconds at the reference speed


class Gauge:
    """Samples the host's speed around and during timed work.

    The speed is the time of calibrate(): run EDGE_SAMPLES times before and
    after the timed block, and from a SIGALRM handler every
    SAMPLE_INTERVAL_S inside it, so that a long operation is scaled by the
    speed it actually ran at.
    """

    def __init__(self):
        self.history: list[tuple[float, int]] = []  # (mean sample s, samples) per block
        self._window: list[float] = []
        self._sampling_s = 0.0

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self._window.append(calibrate())
        self._sampling_s += time.perf_counter() - t0

    @contextlib.contextmanager
    def timing(self):
        """Time the block; the yielded Timing is filled in when it ends."""
        self._window = []
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self._sampling_s = 0.0
        timing = Timing()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield timing
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            timing.raw = elapsed - self._sampling_s
            for _ in range(EDGE_SAMPLES):
                self._sample()
            speed = statistics.mean(self._window)
            timing.scaled = timing.raw * CAL_REF_S / speed
            self.history.append((speed, len(self._window)))


def file_hashes(outdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.iterdir())}


def run_op(argv: list[str], outdir: Path, capture: SeriesCapture, gauge: Gauge) -> OpRecord:
    gc.collect()
    capture.records = []
    out, err = io.StringIO(), io.StringIO()
    with gauge.timing() as timing:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:  # an operation that raises is counted as failed; the run goes on
            rc = None
            err.write(traceback.format_exc())
    rec = OpRecord(rc=rc, seconds=timing.raw, scaled=timing.scaled, stdout=out.getvalue(),
                   error=err.getvalue(), series=capture.records)
    rec.artifacts = file_hashes(outdir)
    return rec


def check_op(name: str, rec: OpRecord, first: OpRecord) -> None:
    """Per-operation gates; failures are appended to rec.failures."""
    if rec.rc != 0:
        rec.failures.append(f"exit code {rec.rc}: {rec.error.strip()[-300:]}")
    if name == "oracle_compare" and "RESULT: PASS" not in rec.stdout:
        rec.failures.append("compare did not print RESULT: PASS")
    for s in rec.series:
        if s["engine"] == "fdm" and not (s["conservation"] is not None and s["conservation"] <= CONSERVATION_TOL):
            rec.failures.append(f"{s['file']}: fdm conservation residual {s['conservation']} > {CONSERVATION_TOL}")
        if name == "L_sweep":
            _, sigma_eq = equilibrium(Params(*s["params"]))
            if not abs(s["sigma_T"] - sigma_eq) <= SWEEP_SIGMA_T_TOL * sigma_eq:
                rec.failures.append(f"{s['file']}: sigma(T) = {s['sigma_T']!r} not within"
                                    f" {SWEEP_SIGMA_T_TOL} sigma_eq of sigma_eq = {sigma_eq!r}")
    if rec.artifacts != first.artifacts:
        rec.failures.append("artifact bytes differ from the first operation's")


def _dev_from_spectral(series, p: Params, modes: int) -> float:
    """max |sigma - sigma_ref| / sigma_eq on [0.05 T, T], sigma_ref spectral at ``modes``."""
    ref = spectral.solve_spectral(p, step_ic(), modes)
    dev = np.abs(np.interp(WINDOW, series.t, series.sigma) - spectral.eval_sigma(ref, WINDOW))
    return float(np.max(dev)) / ref.sigma_eq


def sigma_error(name: str, inputs: dict, outdir: Path, readback: dict) -> tuple[float, list[str]]:
    """sigma_err of the workload and the run-level accuracy gates it feeds."""
    failures = []
    if name == "L_sweep":
        errs = []
        for L in SWEEP_L:
            p = Params(A=inputs["A"], B=inputs["B"], L=L, N0=inputs["N0"])
            errs.append(_dev_from_spectral(readback[f"{NAME}_L{L:g}.csv"], p, 200))
        # reported, not gated: step data at n_z = 100 leaves the O(h) start-up
        # defect of the fdm engine at ~5 % for L = 0.1
        return max(errs), failures
    p = Params(A=inputs["A"], B=inputs["B"], L=inputs["L"], N0=inputs["N0"])
    if name == "oracle_compare":
        report = json.loads((outdir / f"{NAME}_report.json").read_text())
        err = report["max_sigma_dev"] / equilibrium(p)[1]
    elif name == "wave_fdm":
        err = _dev_from_spectral(readback[f"{NAME}.csv"], p, 200)
    else:  # modal_200: mode doubling is the reference, fdm the independent cross-check
        series = readback[f"{NAME}.csv"]
        err = _dev_from_spectral(series, p, 400)
        grid = fdm.Grid.from_lambda(200, T_END, fdm.default_lambda(p.B))
        march = fdm.run_fdm(p, step_ic(), grid)
        cross = float(np.max(np.abs(np.interp(WINDOW, series.t, series.sigma)
                                    - np.interp(WINDOW, march.t, march.sigma)))) / equilibrium(p)[1]
        if not cross <= SIGMA_TOL:
            failures.append(f"spectral sigma deviates {cross:.4g} sigma_eq from fdm (> {SIGMA_TOL})")
    if not err <= SIGMA_TOL:
        failures.append(f"sigma_err {err:.4g} > {SIGMA_TOL}")
    return err, failures


def probe_seconds(argv: list[str], gauge: Gauge) -> float:
    """Median scaled time of the probe command run warm, in this process."""
    times = []
    for _ in range(SETUP_REPEATS):
        with gauge.timing() as timing, contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
        times.append(timing.scaled)
    return statistics.median(times)


def setup_seconds(argv: list[str], gauge: Gauge) -> list[float]:
    """Wall time of fresh interpreters that import hypersorb.cli and run the probe.

    main() builds the parser, so each time covers interpreter start, import,
    parser construction and one cold operation.
    """
    code = "import sys, hypersorb.cli as c; sys.exit(c.main(sys.argv[1:]))"
    times = []
    for _ in range(SETUP_REPEATS):
        with gauge.timing() as timing:
            subprocess.run([sys.executable, "-c", code, *argv], check=True, stdout=subprocess.DEVNULL)
        times.append(timing.scaled)
    return times


def tail(samples: list[float]) -> dict:
    """Highest nearest-rank percentile with at least 10 samples beyond it.

    Below 11 samples no percentile has 10 beyond it; the maximum is
    reported then, with 0 samples beyond.
    """
    xs = sorted(samples)
    n = len(xs)
    if n >= 11:
        return {"value": xs[n - 11], "percentile": 100.0 * (n - 10) / n, "beyond": 10, "n": n}
    return {"value": xs[-1], "percentile": 100.0, "beyond": 0, "n": n}


def peak_rss_mb(name: str) -> float:
    """Peak RSS of this process; for the sweep plus each pool worker's peak.

    getrusage reports the largest peak among waited-for children, so the
    pool's share is counted as workers x that peak.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if name == "L_sweep":
        kib += SWEEP_WORKERS * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _git_sha() -> str | None:
    head = Path(".git/HEAD")
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = Path(".git") / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = Path(".git/packed-refs")
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def metadata(pinned: dict) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read_lines("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor() or None)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    src = hashlib.sha256()
    for path in sorted(Path("src/hypersorb").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pinning": {k: os.environ.get(k) for k in pinned},
        "git_sha": _git_sha(),
        "source_sha256": src.hexdigest(),
    }


def _read_lines(path: str) -> list[str]:
    try:
        with open(path) as fh:
            return fh.read().splitlines()
    except OSError:
        return []


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(name: str, seed: int, seconds: int, trace: bool, pinned: dict) -> int:
    wl = WORKLOADS[name]
    inputs = resolve_inputs(wl, seed)
    outdir = OUT / name
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    argv = command_argv(wl, inputs, outdir)
    probe_argv = command_argv(wl, inputs, OUT / f"{name}_probe") + list(wl.probe)
    capture = SeriesCapture()
    records: list[OpRecord] = []

    def loop(budget: float) -> list[float]:
        samples = []
        t_end = time.perf_counter() + budget
        while not samples or time.perf_counter() < t_end:
            tracer.op = len(records)
            rec = run_op(argv, outdir, capture, gauge)
            check_op(name, rec, records[0] if records else rec)
            records.append(rec)
            samples.append(rec.scaled)
        return samples

    tracer = spans.Tracer()
    gauge = Gauge()
    with spans.patched(cli, "write_series_csv", capture.wrap(cli.write_series_csv)):
        cold = loop(0)[0]  # the warm-up operation, first in this interpreter
        samples = loop(seconds / 2 if trace else seconds)
        if trace:
            traced_from = len(records)
            with tracer.installed():
                # the capture stays outermost, so its hashing is not in a seriesio span
                with spans.patched(cli, "write_series_csv", capture.wrap(cli.write_series_csv)):
                    traced = loop(seconds / 2)
    rss = peak_rss_mb(name)
    setup, warm_probe = [], None
    if not trace:
        # a fresh interpreter's cost beyond what the probe costs warm
        warm_probe = probe_seconds(probe_argv, gauge)
        setup = [t - warm_probe for t in setup_seconds(probe_argv, gauge)]

    # run-level checks: read every CSV back and compare sigma bit for bit
    readback = {p.name: seriesio.read_series_csv(p) for p in sorted(outdir.glob("*.csv"))}
    read_sha = {f: hashlib.sha256(np.ascontiguousarray(s.sigma).tobytes()).hexdigest()
                for f, s in readback.items()}
    for rec in records:
        for s in rec.series:
            if read_sha.get(s["file"]) != s["sigma_sha256"]:
                rec.failures.append(f"{s['file']}: sigma read back differs from the sigma computed")
    try:
        sigma_err, run_failures = sigma_error(name, inputs, outdir, readback)
    except Exception:  # a failing reference is a failed check, not a crashed run
        sigma_err, run_failures = math.nan, [traceback.format_exc(limit=3)]
    for rec in records:
        rec.failures.extend(run_failures)

    failed = sum(1 for rec in records if rec.failures)
    wall = statistics.median(samples)
    t = tail(samples)
    result = {
        "workload": name, "seed": seed, "trace": trace, "inputs": inputs, "argv": argv,
        "meta": metadata(pinned), "samples": len(samples), "op_seconds_scaled": samples,
        "op_seconds_raw": [rec.seconds for rec in records], "speed_samples": gauge.history,
        "cold_op_s": cold, "setup_s_samples": setup, "warm_probe_s": warm_probe, "sigma_err": sigma_err,
        "wall_s_tail": t, "error_rate": failed / len(records),
        "artifact_sha256": records[0].artifacts,
        "failures": sorted({f for rec in records for f in rec.failures}),
        "untimed_layers": spans.UNTIMED_LAYERS,
    }
    if trace:
        ops = list(range(traced_from, len(records)))
        metrics = spans.layer_metrics(tracer, {k: records[k].scaled / records[k].seconds for k in ops})
        metrics["trace.overhead_s"] = statistics.median(traced) - wall
        tracer.write(OUT / f"spans_{name}_seed{seed}.npz")
        result["traced_op_seconds_scaled"] = traced
    else:
        metrics = {
            "wall_s": wall,
            "wall_s_tail": t["value"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
            "sigma_err": sigma_err,
        }
    units = metric_units()
    result["metrics"] = metrics
    (OUT / f"result_{name}_seed{seed}_trace{int(trace)}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {name} seed {seed} trace {int(trace)}: {len(records)} operations, "
          f"{len(samples)} timed untraced; inputs {json.dumps(inputs)}")
    print(f"error_rate {failed / len(records):.6g} ({failed}/{len(records)} failed)")
    if not trace:
        print(f"wall_s_tail is p{t['percentile']:.4g} of n={t['n']} ({t['beyond']} samples beyond)")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    for layer, why in spans.UNTIMED_LAYERS.items():
        print(f"  {layer}: not timed ({why})")
    for f in result["failures"]:
        print(f"FAILED CHECK: {f}")
    print("meta " + json.dumps(result["meta"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0

