"""Spans recorded from outside the program, around its public functions.

Tracing replaces module attributes of hypersorb with wrappers, so the
program itself is unchanged.  Each wrapper records one span (name, start,
end, parent span, operation id) and, where a layer does countable work,
two numbers ``a`` and ``b`` read from the call's arguments or result.
Spans are kept in flat arrays in memory and written once at the end.

The sweep's process pool is replaced by a subclass that runs each task
through ``_run_in_worker``, which returns the worker's spans with the
result; the parent re-parents them under its ``cli.pool_wait`` span.
"""

from __future__ import annotations

import functools
import os
from array import array
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, contextmanager
from time import perf_counter

import numpy as np

from hypersorb import cli, eigen, fdm, seriesio, spectral, validate

# Layers with no public function worth a span: params builds frozen
# parameter objects and initial data, series is a container, errors holds
# exception types.
UNTIMED_LAYERS = {
    "params": "parameter groups and initial data; too thin to time",
    "series": "time-series container; too thin to time",
    "errors": "exception types only; nothing to time",
}

# The tracer installed in this process.  A forked pool worker inherits it
# together with the wrapped module attributes.
_ACTIVE: "Tracer | None" = None


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _roots(args, kwargs, modes):
    return len(modes), (modes[-1].index if modes else 0)


def _gram_cond(args, kwargs, basis):
    return float(np.linalg.cond(basis.gram)), 0.0


def _grid_work(args, kwargs, series):
    grid = _arg(args, kwargs, 2, "grid")
    return grid.n_t, grid.n_z + 1


def _csv_size(args, kwargs, result):
    series = _arg(args, kwargs, 0, "series")
    return series.t.size, os.path.getsize(_arg(args, kwargs, 1, "path"))


def _sweep_points(args, kwargs, result):
    return len(_arg(args, kwargs, 0, "cfg").values), 0.0


# span name, the module attributes bound to that function, what a and b count
TARGETS = (
    ("cli.main", [(cli, "main")], None),
    ("cli.build_config", [(cli, "build_config")], None),
    ("cli.cmd_run", [(cli, "cmd_run")], None),
    ("cli.cmd_sweep", [(cli, "cmd_sweep")], _sweep_points),
    ("eigen.find_eigenvalues", [(eigen, "find_eigenvalues"), (spectral, "find_eigenvalues")], _roots),
    ("spectral.solve_spectral", [(spectral, "solve_spectral")], None),
    ("spectral.orthogonalize", [(spectral, "orthogonalize")], _gram_cond),
    ("spectral.project_initial", [(spectral, "project_initial")], None),
    ("spectral.amplitudes", [(spectral, "amplitudes")], None),
    ("spectral.to_series", [(spectral, "to_series")], None),
    ("fdm.run_fdm", [(fdm, "run_fdm")], _grid_work),
    ("fdm.step_interior", [(fdm, "step_interior")], None),
    ("fdm.apply_surface", [(fdm, "apply_surface"), (validate, "apply_surface")], None),
    ("validate.run_parabolic", [(validate, "run_parabolic")], _grid_work),
    ("validate.compare_engines", [(validate, "compare_engines")], None),
    ("seriesio.write_series_csv", [(seriesio, "write_series_csv"), (cli, "write_series_csv")], _csv_size),
    ("seriesio.write_json", [(seriesio, "write_json"), (cli, "write_json")], None),
)


@contextmanager
def patched(module, attr, value):
    """Bind module.attr to value for the duration of the block."""
    original = getattr(module, attr)
    setattr(module, attr, value)
    try:
        yield original
    finally:
        setattr(module, attr, original)


class Tracer:
    """In-memory span store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._clear()

    def _clear(self):
        self.name, self.parent, self.ops = array("l"), array("l"), array("l")
        self.start, self.end, self.a, self.b = array("d"), array("d"), array("d"), array("d")
        self._stack.clear()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.end.append(0.0)
        self.a.append(0.0)
        self.b.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, measure):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if measure is not None:
                self.a[sid], self.b[sid] = measure(args, kwargs, result)
            return result

        return traced

    def export(self) -> dict:
        return {
            "names": list(self.names), "name": self.name, "parent": self.parent,
            "start": self.start, "end": self.end, "a": self.a, "b": self.b,
        }

    def adopt(self, spans: dict, parent: int) -> None:
        """Append spans recorded in a worker, rooting them under ``parent``."""
        offset = len(self.start)
        ids = [self.name_id(n) for n in spans["names"]]
        self.name.extend(ids[i] for i in spans["name"])
        self.parent.extend(parent if q < 0 else q + offset for q in spans["parent"])
        self.ops.extend([self.op] * len(spans["start"]))
        for key in ("start", "end", "a", "b"):
            getattr(self, key).extend(spans[key])

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        global _ACTIVE
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def map(self, fn, *iterables, timeout=None, chunksize=1):
                sid = tracer.open(tracer.name_id("cli.pool_wait"))
                try:
                    futures = [self.submit(_run_in_worker, fn, *args) for args in zip(*iterables)]
                    outcomes = [f.result(timeout) for f in futures]
                finally:
                    tracer.close(sid)
                for _, spans in outcomes:
                    tracer.adopt(spans, sid)
                return iter([result for result, _ in outcomes])

        with ExitStack() as stack:
            for name, bindings, measure in TARGETS:
                traced = self.wrap(name, getattr(*bindings[0]), measure)
                for module, attr in bindings:
                    stack.enter_context(patched(module, attr, traced))
            stack.enter_context(patched(cli, "ProcessPoolExecutor", TracedPool))
            _ACTIVE = self
            try:
                yield self
            finally:
                _ACTIVE = None

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names), "name": np.array(self.name), "parent": np.array(self.parent),
            "op": np.array(self.ops), "start": np.array(self.start), "end": np.array(self.end),
            "a": np.array(self.a), "b": np.array(self.b),
        }

    def write(self, path) -> None:
        np.savez(path, **self.arrays())


def _run_in_worker(fn, *args):
    """Pool task: run fn and hand back the spans it recorded in this worker."""
    tracer = _ACTIVE
    tracer._clear()  # drop the parent's spans copied in by fork
    return fn(*args), tracer.export()


def layer_metrics(tracer: Tracer, scale: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics: the median over the traced operations.

    ``scale`` maps each traced operation to the factor that brings its
    times to the reference speed.
    """
    s = tracer.arrays()
    factor = np.zeros(max(scale) + 1)
    factor[list(scale)] = list(scale.values())
    dur = (s["end"] - s["start"]) * factor[s["op"]]
    n = dur.size
    has_parent = s["parent"] >= 0
    child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=n)
    own = dur - child  # self time: direct children of one process never overlap
    names = list(s["names"])
    per_op = []
    for op in scale:
        sel = s["op"] == op

        def pick(name, values):
            if name not in names:
                return np.zeros(0)
            return values[sel & (s["name"] == names.index(name))]

        def total(name, values=dur):
            return float(np.sum(pick(name, values)))

        def calls(name):
            return pick(name, dur).size

        def ratio(x, y):
            return x / y if y else 0.0

        fdm_s, levels = total("fdm.run_fdm"), total("fdm.run_fdm", s["a"])
        par_s, par_levels = total("validate.run_parabolic"), total("validate.run_parabolic", s["a"])
        csv_s, csv_bytes = total("seriesio.write_series_csv"), total("seriesio.write_series_csv", s["b"])
        cond = pick("spectral.orthogonalize", s["a"])
        per_op.append({
            "eigen.find_eigenvalues_s": total("eigen.find_eigenvalues"),
            "eigen.find_eigenvalues_calls": calls("eigen.find_eigenvalues"),
            "eigen.roots": total("eigen.find_eigenvalues", s["a"]),
            "eigen.anchor_intervals": total("eigen.find_eigenvalues", s["b"]),
            "spectral.solve_spectral_s": total("spectral.solve_spectral"),
            "spectral.solve_spectral_calls": calls("spectral.solve_spectral"),
            "spectral.orthogonalize_s": total("spectral.orthogonalize"),
            "spectral.gram_cond": float(np.max(cond)) if cond.size else 0.0,
            "spectral.project_initial_s": total("spectral.project_initial"),
            "spectral.amplitudes_s": total("spectral.amplitudes"),
            "spectral.solve_self_s": total("spectral.solve_spectral", own),
            "spectral.to_series_s": total("spectral.to_series"),
            "fdm.run_fdm_s": fdm_s,
            "fdm.levels": levels,
            "fdm.step_us": 1e6 * ratio(fdm_s, levels),
            "fdm.node_updates_per_s": ratio(total("fdm.run_fdm", s["a"] * s["b"]), fdm_s),
            "fdm.step_interior_s": total("fdm.step_interior"),
            "fdm.step_interior_calls": calls("fdm.step_interior"),
            "fdm.apply_surface_s": total("fdm.apply_surface"),
            "fdm.apply_surface_calls": calls("fdm.apply_surface"),
            "fdm.run_fdm_self_s": total("fdm.run_fdm", own),
            "validate.run_parabolic_s": par_s,
            "validate.parabolic_levels": par_levels,
            "validate.parabolic_step_us": 1e6 * ratio(par_s, par_levels),
            "validate.compare_engines_s": total("validate.compare_engines"),
            "seriesio.write_series_csv_s": csv_s,
            "seriesio.csv_rows": total("seriesio.write_series_csv", s["a"]),
            "seriesio.csv_bytes": csv_bytes,
            "seriesio.csv_mb_per_s": ratio(csv_bytes / 1e6, csv_s),
            "seriesio.write_json_s": total("seriesio.write_json"),
            "cli.build_config_s": total("cli.build_config"),
            "cli.self_s": sum(total(k, own) for k in ("cli.main", "cli.cmd_run", "cli.cmd_sweep")),
            "cli.sweep_points": total("cli.cmd_sweep", s["a"]),
            "cli.pool_wait_s": total("cli.pool_wait"),
        })
    return {key: float(np.median([row[key] for row in per_op])) for key in per_op[0]}
