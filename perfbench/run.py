"""Benchmark entry point for hypersorb.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload wave_fdm --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# BLAS and OpenMP run single-threaded so that timings do not depend on how
# many cores a shared machine happens to leave free.  Set before numpy is
# imported, and only in this process and the processes it starts.
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOAD_NAMES = ("wave_fdm", "modal_200", "oracle_compare", "L_sweep")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="hypersorb CLI benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "hypersorb" / "cli.py").is_file():
        print(f"perfbench: no hypersorb sources under {src}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_THREADS)
    os.environ["PYTHONPATH"] = str(src)
    sys.path.insert(0, str(src))
    os.chdir(root)
    import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), PINNED_THREADS)


if __name__ == "__main__":
    sys.exit(main())
