"""CSV and JSON emission with a bit-exact round trip.

Series CSV contract: optional leading comment lines starting with '#'
(one of which echoes the resolved run configuration), then the header
``t_star,sigma,N_at_<z1>,...`` and one row per time level of the series
handed in, with floats printed to 17 significant digits (lossless for
float64).  The CLI hands in ``samples`` evenly spread levels including
both ends (series.thin_series); a ``--samples`` at or above the level count
writes every level.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import InvalidInput
from .series import TimeSeries


FLOAT_FORMAT = "%.17g"


def format_float(x: float) -> str:
    return FLOAT_FORMAT % x


def probe_column(z: float) -> str:
    return f"N_at_{z:g}"


def write_series_csv(series: TimeSeries, path, config: dict | None = None) -> None:
    """Emit the series; probe columns appear in increasing z* order."""
    zs = sorted(series.probes)
    names = ["t_star", "sigma"] + [probe_column(z) for z in zs]
    write_csv(path, names, [series.t, series.sigma] + [series.probes[z] for z in zs], config)


# rows formatted and written per block: bounded memory for long series
CSV_BLOCK_ROWS = 4096


def write_csv(path, names, columns, config: dict | None = None) -> None:
    """Columns of equal length as CSV, floats to 17 significant digits.

    An optional first line echoes config; then the header of names.  The
    rows are formatted a block at a time, with one % on the row format
    repeated for the block, and each block is written as it is done.
    """
    row_format = ",".join([FLOAT_FORMAT] * len(columns)) + "\n"
    n_rows = len(columns[0])
    try:
        with open(path, "w", newline="") as fh:
            if config is not None:
                echo = json.dumps(config, sort_keys=True, separators=(",", ":"))
                fh.write(f"# config: {echo}\n")
            fh.write(",".join(names) + "\n")
            for a in range(0, n_rows, CSV_BLOCK_ROWS):
                block = np.column_stack([np.asarray(col)[a:a + CSV_BLOCK_ROWS] for col in columns])
                fh.write(row_format * len(block) % tuple(block.ravel().tolist()))
    except OSError as exc:
        raise InvalidInput(f"cannot write CSV to {path!r}: {exc}") from exc


def read_series_csv(path) -> TimeSeries:
    """Parse a series CSV back into a (rows-free) TimeSeries.

    The config echo, when present, lands in meta["config"].
    """
    try:
        with open(path, "r") as fh:
            raw = fh.read().splitlines()
    except OSError as exc:
        raise InvalidInput(f"cannot read series from {path!r}: {exc}") from exc
    meta: dict = {"engine": "csv"}
    body = []
    for line in raw:
        if line.startswith("#"):
            stripped = line[1:].strip()
            if stripped.startswith("config:"):
                meta["config"] = json.loads(stripped[len("config:"):])
            continue
        if line:
            body.append(line)
    if len(body) < 2:
        raise InvalidInput(f"{path!r} contains no series data")
    names = body[0].split(",")
    if names[:2] != ["t_star", "sigma"]:
        raise InvalidInput(f"{path!r} is not a series CSV (header {body[0]!r})")
    try:
        data = np.array([[float(v) for v in line.split(",")] for line in body[1:]])
    except ValueError as exc:
        raise InvalidInput(f"{path!r} has ragged rows or a value that is no number: {exc}") from exc
    if data.shape[1] != len(names):
        raise InvalidInput(f"{path!r} has ragged rows")
    probes = {}
    for j, name in enumerate(names[2:], start=2):
        if not name.startswith("N_at_"):
            raise InvalidInput(f"unexpected column {name!r} in {path!r}")
        try:
            z = float(name[len("N_at_"):])
        except ValueError:
            z = math.nan
        if not abs(z) <= 0.5:
            raise InvalidInput(f"column {name!r} in {path!r} names no probe position in [-1/2, 1/2]")
        if z in probes:
            raise InvalidInput(f"column {name!r} in {path!r} repeats the probe at z* = {z:g}")
        probes[z] = data[:, j]
    return TimeSeries(
        t=data[:, 0],
        sigma=data[:, 1],
        surface=probes.get(0.5, np.full(data.shape[0], np.nan)),
        probes=probes,
        meta=meta,
    )


def write_json(payload: dict, path) -> None:
    """Deterministic JSON artifact (sorted keys, trailing newline)."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=2, default=_encode))
            fh.write("\n")
    except OSError as exc:
        raise InvalidInput(f"cannot write JSON to {path!r}: {exc}") from exc


def _encode(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.complexfloating):
        return [obj.real.item(), obj.imag.item()]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def ensure_outdir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return str(path)
