#!/usr/bin/env python3
"""Print the sha256 of every artifact of the benchmark commands and of five fixed ones.

Usage, from the root of a checkout:

    python3 scripts/artifact_hashes.py [OUTDIR] [SEED]

Each workload of perfbench runs once through ``hypersorb.cli.main``, with
the argv the benchmark builds for it (``WORKLOADS``, ``resolve_inputs`` and
``command_argv`` of perfbench/harness.py, SEED 1 by default).  Then
``eigen-dump`` tabulates the secular functions on its default alpha grid at
the secular-landmark set A = 0.5, B = 1e-3, L = 0.1, and the README's
``compare --pair spectral,fdm`` runs: the one command that evaluates the
modal series twice, at ``--samples`` and at the report's times.  Then an
``fdm`` run takes the wave-timing set in laboratory units (A = 0.01,
B = 0.1, L = 1, N0 = 3 through ``params.from_physical``), and another
marches that set from the parabolic initial profile (``--ic parabolic``).
Last, ``sampled_ic`` writes a fixed full-slab profile into its own outdir
(``write_profile``: even, of mass N0 = 3, no node at z* = 0, 17
significant digits) and runs the README's compare from it (``--ic sampled
--ic-file``), so that folding sampled data, its cosine moments and its
interpolation are covered; the profile is listed with its artifacts.
These five are ``EXTRA``, and none reads SEED.
Command w writes into OUTDIR/w (default out/artifact_hashes/w), which is
emptied first.  One line ``w/file sha256`` is printed per artifact, in
sorted order; the benchmark's lines come first.

The CLI echoes its outdir into each artifact's config header, so two
checkouts compare byte for byte when each runs this with the same relative
OUTDIR from its own root: diff the two listings.  The exit code is 1 if a
command fails.
"""

import argparse
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

import numpy as np  # noqa: E402
from harness import WORKLOADS, command_argv, resolve_inputs  # noqa: E402

from hypersorb import cli  # noqa: E402

# the commands beside the benchmark's, by name: the secular-equation table at
# the secular-landmark set, the README's cross-validation of two engines, one
# run from physical inputs, one from the parabolic initial profile, and that
# cross-validation from sampled data (its --ic-file is added by command)
EXTRA = {
    "eigen_dump": ["eigen-dump", "--A", "0.5", "--B", "1e-3", "--L", "0.1", "--N0", "3",
                   "--name", "landmark"],
    "compare": ["compare", "--pair", "spectral,fdm", "--A", "1e-3", "--B", "0.1", "--L", "1",
                "--N0", "3", "--T", "2"],
    "physical": ["run", "--engine", "fdm", "--d", "1e-4", "--D", "1e-9", "--tau-r", "1",
                 "--tau-a", "0.1", "--k-a", "1e-3", "--n0", "3e4", "--T", "2"],
    "parabolic_ic": ["run", "--engine", "fdm", "--ic", "parabolic", "--A", "0.01", "--B", "0.1",
                     "--L", "1", "--N0", "3", "--T", "2"],
    "sampled_ic": ["compare", "--pair", "spectral,fdm", "--ic", "sampled", "--A", "1e-3",
                   "--B", "0.1", "--L", "1", "--N0", "3", "--T", "2"],
}


def write_profile(path):
    """sampled_ic's initial data, as z,value rows of 17 significant digits.

    1 - 4 z*^2 on 40 evenly spaced nodes of the full slab, none at z* = 0,
    scaled to trapezoidal mass N0 = 3.
    """
    z = np.linspace(-0.5, 0.5, 40)
    v = 1.0 - 4.0 * z * z
    v *= 3.0 / np.trapezoid(v, z)
    np.savetxt(path, np.column_stack((z, v)), fmt="%.17g", delimiter=",")


def command(name, target, seed):
    """The argv of command name, writing into target (sampled_ic's profile is written first)."""
    if name == "sampled_ic":
        write_profile(target / "profile.csv")
        return [*EXTRA[name], "--ic-file", str(target / "profile.csv"), "--outdir", str(target)]
    if name in EXTRA:
        return [*EXTRA[name], "--outdir", str(target)]
    workload = WORKLOADS[name]
    return command_argv(workload, resolve_inputs(workload, seed), target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("outdir", nargs="?", type=Path,
                        default=Path("out", "artifact_hashes"),
                        help="directory of one subdirectory per command (default"
                        " out/artifact_hashes)")
    parser.add_argument("seed", nargs="?", type=int, default=1,
                        help="seed of the benchmark's inputs (default 1)")
    args = parser.parse_args()
    outdir, seed = args.outdir, args.seed
    failed = False
    for name in [*WORKLOADS, *EXTRA]:
        target = outdir / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        argv = command(name, target, seed)
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
