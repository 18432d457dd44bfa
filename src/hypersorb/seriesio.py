"""CSV and JSON emission with a bit-exact round trip.

Artifacts hold plain values: a JSON payload of anything else (numpy
integers, complex numbers, arrays) raises TypeError before its file is
opened.  write_text writes a whole file; write_csv streams blocks of rows,
and refuses a header or columns that would not read back before it opens
its file.

JSON layout contract: the bytes of ``json.dumps(payload, sort_keys=True,
indent=2)`` and a trailing newline.  The stdlib takes its pure-Python
encoder whenever indent is set, so write_json lays the payload out with
its own small encoder, _indented: dicts with str keys, lists and tuples
are walked in the same layout, plain scalars are printed inline, and a
list of plain numbers (floats and ints), or of equal-length rows of them,
is printed by one call of the C encoder in the compact form, split on its
commas and spliced into the layout: the C encoder spells each number as
the stdlib's indented form does.  Anything else (empty containers,
non-str keys, float subclasses such as np.float64, non-plain values) is
handed to json.dumps itself, so the stdlib still decides the bytes or the
TypeError.

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
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import InvalidInput
from .series import TimeSeries


FLOAT_FORMAT = "%.17g"


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
    Names and columns that would not read back as this header and these
    rows are refused with InvalidInput, and a config echo that is not plain
    JSON raises TypeError, all before the file is opened.
    """
    if len(names) != len(columns):
        raise InvalidInput(f"CSV header of {len(names)} names for {len(columns)} columns")
    if not columns:
        raise InvalidInput("a CSV needs at least one column")
    for name in names:
        # a line break is any boundary str.splitlines knows, as read_series_csv splits
        if "," in name or "".join(name.splitlines()) != name:
            raise InvalidInput(f"CSV column name {name!r} holds a comma or a line break")
    shapes = sorted({np.shape(col) for col in columns})
    if len(shapes) > 1 or (shapes and len(shapes[0]) != 1):
        raise InvalidInput(f"CSV columns of shapes {shapes}: each must be 1-D, all of one length")
    header = ",".join(names) + "\n"
    if config is not None:
        echo = json.dumps(config, sort_keys=True, separators=(",", ":"))
        header = f"# config: {echo}\n" + header
    row_format = ",".join([FLOAT_FORMAT] * len(columns)) + "\n"
    n_rows = len(columns[0])
    try:
        with open(path, "w", newline="") as fh:
            fh.write(header)
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
    """Deterministic JSON artifact (sorted keys, trailing newline) of plain values.

    The bytes are json.dumps(payload, sort_keys=True, indent=2) + "\\n".
    """
    try:
        text = _indented(payload, "\n")
    except RecursionError:
        # a circular (or too deep) payload: the stdlib names the cycle
        text = json.dumps(payload, sort_keys=True, indent=2)
    write_text(text + "\n", path, "JSON")


_compact = json.JSONEncoder(separators=(",", ":")).encode
_SPELLED = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_NUMBERS = {float, int}
_ARRAYS = {list, tuple}


def _indented(v, ind: str) -> str:
    """v as json.dumps(v, sort_keys=True, indent=2) prints it where ind is a newline and its indent."""
    t = type(v)
    if t is float:
        text = float.__repr__(v)
        return _SPELLED.get(text, text)
    if t is str:
        return encode_basestring_ascii(v)
    if t is int:
        return int.__repr__(v)
    if v is None:
        return "null"
    if t is bool:
        return "true" if v else "false"
    inner = ind + "  "
    if t is dict and v and all(type(k) is str for k in v):
        items = [encode_basestring_ascii(k) + ": " + _indented(v[k], inner) for k in sorted(v)]
        return "{" + inner + ("," + inner).join(items) + ind + "}"
    if t in _ARRAYS and v:
        types = set(map(type, v))
        if types <= _NUMBERS:
            # "[a,b]": no number holds a comma
            return "[" + inner + _compact(v)[1:-1].replace(",", "," + inner) + ind + "]"
        if types <= _ARRAYS and len(set(map(len, v))) == 1 and v[0]:
            flat = list(chain.from_iterable(v))
            if set(map(type, flat)) <= _NUMBERS:
                # the numbers of "[a,b,c,d]" into the "%s" slots of the rows' layout
                row = inner + "  "
                form = "[" + row + ("," + row).join(["%s"] * len(v[0])) + inner + "]"
                layout = "[" + inner + ("," + inner).join([form] * len(v)) + ind + "]"
                return layout % tuple(_compact(flat)[1:-1].split(","))
        return "[" + inner + ("," + inner).join([_indented(x, inner) for x in v]) + ind + "]"
    # empty containers, non-str keys, subclasses and non-plain values: the stdlib decides
    return json.dumps(v, sort_keys=True, indent=2).replace("\n", ind)


def write_text(text: str, path, kind: str) -> None:
    """Write text as the whole file at path; an OSError becomes InvalidInput naming kind."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInput(f"cannot write {kind} to {path!r}: {exc}") from exc
