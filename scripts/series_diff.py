#!/usr/bin/env python3
"""Print how far the series of two artifact trees lie apart.

Usage, from the root of a checkout:

    python3 scripts/series_diff.py OUT_A OUT_B

OUT_A and OUT_B are output trees of scripts/artifact_hashes.py, one
directory per workload, for example the trees that two checkouts wrote.
For every series CSV at the same relative path in both trees one line is
printed: the path, then for sigma and for each probe column the largest
|B - A| over the rows divided by the largest |value| of that column in
either tree (0 when the columns are equal).  A last line gives the
largest of these over every file.

For every JSON artifact at the same relative path in both trees one line
is printed too: the path, the largest relative change over its numeric
leaves (largest=...), then that change for each leaf path that moved, list
indices folded into [] so that an array reads as one path.  String leaves
are skipped (the config echo holds the outdir); the last line covers the
series alone.

The exit code is 1 if a series CSV is in one tree only, if two series
differ in their header, their row count or their t column (bit for bit),
or if two JSON artifacts differ in their keys, their list lengths or a leaf
that is neither a number nor a string; each such file gets a line that
says so.  Other files, JSON artifacts in one tree only, and CSVs that are
no series, are skipped.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from hypersorb.errors import InvalidInput  # noqa: E402
from hypersorb.seriesio import probe_column, read_series_csv  # noqa: E402


def relative_change(a: np.ndarray, b: np.ndarray) -> float:
    """max |b - a| over max(|a|, |b|); 0 for equal columns, NaN where one has a NaN."""
    if np.array_equal(a, b, equal_nan=True):
        return 0.0
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(b - a))) / scale


def series_csvs(tree: Path) -> dict:
    """The series CSVs under tree, by their path relative to it."""
    found = {}
    for path in sorted(tree.rglob("*.csv")):
        try:
            found[path.relative_to(tree).as_posix()] = read_series_csv(path)
        except InvalidInput:
            continue
    return found


def compare(name: str, a, b) -> tuple[str, float | None]:
    """One line for series a and b of file name, and their largest relative change.

    The change is None when the two differ in their header, row count or t.
    """
    header_a, header_b = ([probe_column(z) for z in s.probes] for s in (a, b))
    if header_a != header_b:
        return f"{name}: header differs: {header_a} against {header_b}", None
    if a.t.size != b.t.size:
        return f"{name}: row count differs: {a.t.size} against {b.t.size}", None
    if a.t.tobytes() != b.t.tobytes():
        return f"{name}: t column differs", None
    changes = {"sigma": relative_change(a.sigma, b.sigma)}
    changes.update((probe_column(z), relative_change(a.probes[z], b.probes[z])) for z in a.probes)
    line = " ".join(f"{col}={value:.3g}" for col, value in changes.items())
    return f"{name} {line}", float(np.max(list(changes.values())))


def json_artifacts(tree: Path) -> dict:
    """The parsed JSON artifacts under tree, by their path relative to it."""
    return {path.relative_to(tree).as_posix(): json.loads(path.read_text())
            for path in sorted(tree.rglob("*.json"))}


def json_leaves(node, path: str = ""):
    """(path, value) for each leaf of a JSON document, list indices written []."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from json_leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for value in node:
            yield from json_leaves(value, path + "[]")
    else:
        yield path, node


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_json(name: str, a, b) -> tuple[str, float | None]:
    """One line for JSON documents a and b of file name, and their largest relative change.

    The change is None when the two differ in their keys, list lengths or a
    leaf that is neither a number nor a string.
    """
    leaves_a, leaves_b = list(json_leaves(a)), list(json_leaves(b))
    if len(leaves_a) != len(leaves_b):
        return f"{name}: structure differs: {len(leaves_a)} against {len(leaves_b)} leaves", None
    changes = {}
    for (path, x), (path_b, y) in zip(leaves_a, leaves_b):
        if path != path_b:
            return f"{name}: structure differs: {path} against {path_b}", None
        if is_number(x) and is_number(y):
            change = relative_change(np.array([x], dtype=float), np.array([y], dtype=float))
            if change != 0.0:  # NaN included
                changes[path] = float(np.maximum(changes.get(path, 0.0), change))
        elif not (isinstance(x, str) and isinstance(y, str)) and x != y:
            return f"{name}: {path} differs: {x!r} against {y!r}", None
    largest = float(np.max(list(changes.values()), initial=0.0))
    line = " ".join([f"largest={largest:.3g}"] + [f"{path}={c:.3g}" for path, c in changes.items()])
    return f"{name} {line}", largest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("OUT_A", help="an output tree of scripts/artifact_hashes.py")
    parser.add_argument("OUT_B", help="another such tree, compared against OUT_A")
    args = parser.parse_args(argv)
    dirs = [args.OUT_A, args.OUT_B]
    trees = [series_csvs(Path(arg)) for arg in dirs]
    documents = [json_artifacts(Path(arg)) for arg in dirs]
    failed, largest = False, 0.0
    for name in sorted(set(trees[0]) | set(trees[1]) | (set(documents[0]) & set(documents[1]))):
        if name in documents[0]:
            line, change = compare_json(name, documents[0][name], documents[1][name])
            print(line)
            failed = failed or change is None
            continue
        if name not in trees[0] or name not in trees[1]:
            print(f"{name}: only in {dirs[0] if name in trees[0] else dirs[1]}")
            failed = True
            continue
        line, change = compare(name, trees[0][name], trees[1][name])
        print(line)
        if change is None:
            failed = True
        elif not change <= largest:  # a NaN change is the largest
            largest = change
    print(f"largest relative change: {largest:.3g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
