#!/usr/bin/env python3
"""Print the sha256 of every artifact the four benchmark commands write.

Usage, from the root of a checkout:

    python3 scripts/artifact_hashes.py [OUTDIR] [SEED]

Each workload of perfbench runs once through ``hypersorb.cli.main``, with
the argv the benchmark builds for it (``WORKLOADS``, ``resolve_inputs`` and
``command_argv`` of perfbench/harness.py, SEED 1 by default).  Workload w
writes into OUTDIR/w (default out/artifact_hashes/w), which is emptied
first.  One line ``w/file sha256`` is printed per artifact, in sorted order.

The CLI echoes its outdir into each artifact's config header, so two
checkouts compare byte for byte when each runs this with the same relative
OUTDIR from its own root: diff the two listings.  The exit code is 1 if a
command fails.
"""

import contextlib
import hashlib
import io
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT / "perfbench", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from run import PINNED_THREADS  # noqa: E402

if __name__ == "__main__":
    # single-threaded BLAS, as in the benchmark, set before numpy is imported
    os.environ.update(PINNED_THREADS)

from harness import WORKLOADS, command_argv, resolve_inputs  # noqa: E402

from hypersorb import cli  # noqa: E402


def main():
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else os.path.join("out", "artifact_hashes"))
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    failed = False
    for name, workload in WORKLOADS.items():
        target = outdir / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        argv = command_argv(workload, resolve_inputs(workload, seed), target)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            print(f"{name}: exit code {rc} from {' '.join(argv)}", file=sys.stderr)
            failed = True
        for path in sorted(target.iterdir()):
            print(f"{name}/{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
