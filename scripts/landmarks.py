#!/usr/bin/env python3
"""Reproduce the headline behaviors of the model as CSV families.

Writes into out/landmarks (or the directory given as the first argument):

  surface_oscillation_L*.csv   non-monotonic sigma(t*) at B=0.1, A=1e-3
                               for two adsorption strengths, modal engine
  sigma_zoom.csv               zoomed start of the same curve: zero slope
  sigma_vs_A_*.csv             role of the desorption/diffusion ratio
  sigma_vs_L_*.csv             role of the adsorption length
  sigma_vs_B_*.csv             monotonic-to-oscillatory crossover
  bulk_probes.csv              N(z*, t*) at several positions; step data
  bulk_probes_smooth.csv       same with the smooth initial profile
  secular_grid.csv             f1 / f2 / Re / Im of the secular equations

Run time is a couple of minutes on a laptop; every file is deterministic.
"""

import os
import sys

import numpy as np

from hypersorb import Params, parabolic_ic, run_fdm, solve_spectral, step_ic
from hypersorb.eigen import eigen_grid
from hypersorb.fdm import Grid, default_lambda, run_fdm_batch
from hypersorb.seriesio import write_csv, write_series_csv
from hypersorb.spectral import to_series


def fdm_series(p, ic, T=2.0, n_z=200, probes=()):
    grid = Grid.from_lambda(n_z, T, default_lambda(p.B))
    return run_fdm(p, ic, grid, probes=probes)


def main():
    outdir = sys.argv[1] if len(sys.argv) > 1 else os.path.join("out", "landmarks")
    os.makedirs(outdir, exist_ok=True)

    def emit(name, series, config):
        path = os.path.join(outdir, name)
        write_series_csv(series, path, config=config)
        print(path)

    # oscillating surface density, modal engine, two adsorption strengths
    for L in (1.0, 10.0):
        p = Params(A=1e-3, B=0.1, L=L, N0=3.0)
        sol = solve_spectral(p, step_ic(), 50)
        ser = to_series(sol, np.linspace(0.0, 2.0, 1601))
        emit(f"surface_oscillation_L{L:g}.csv", ser,
             {"engine": "spectral", "A": 1e-3, "B": 0.1, "L": L, "N0": 3.0, "modes": 50})
        if L == 1.0:
            zoom = to_series(sol, np.linspace(0.0, 0.02, 201))
            emit("sigma_zoom.csv", zoom,
                 {"engine": "spectral", "A": 1e-3, "B": 0.1, "L": L, "N0": 3.0,
                  "modes": 50, "window": "startup"})

    # parameter studies with the finite-difference engine; the A and L
    # families share B, so each marches as one batch
    grid = Grid.from_lambda(200, 2.0, default_lambda(0.1))
    A_values = (0.005, 0.01, 0.1, 1.0)
    family = run_fdm_batch([Params(A=A, B=0.1, L=1.0, N0=3.0) for A in A_values], step_ic(), grid)
    for A, ser in zip(A_values, family):
        emit(f"sigma_vs_A_{A:g}.csv", ser,
             {"engine": "fdm", "A": A, "B": 0.1, "L": 1.0, "N0": 3.0})
    L_values = (0.1, 0.5, 1.0, 5.0)
    family = run_fdm_batch([Params(A=0.01, B=0.1, L=L, N0=3.0) for L in L_values], step_ic(), grid)
    for L, ser in zip(L_values, family):
        emit(f"sigma_vs_L_{L:g}.csv", ser,
             {"engine": "fdm", "A": 0.01, "B": 0.1, "L": L, "N0": 3.0})
    for B in (1e-3, 1e-2, 0.1, 1.0):
        T = 10.0 if B >= 1.0 else 2.0
        p = Params(A=0.01, B=B, L=1.0, N0=3.0)
        emit(f"sigma_vs_B_{B:g}.csv", fdm_series(p, step_ic(), T=T),
             {"engine": "fdm", "A": 0.01, "B": B, "L": 1.0, "N0": 3.0, "T": T})

    # bulk density at several positions: sharp versus smooth initial data
    p = Params(A=0.01, B=0.1, L=1.0, N0=3.0)
    probes = [0.0, 0.25, 0.45]
    emit("bulk_probes.csv", fdm_series(p, step_ic(), probes=probes),
         {"engine": "fdm", "A": 0.01, "B": 0.1, "L": 1.0, "N0": 3.0, "ic": "step"})
    emit("bulk_probes_smooth.csv", fdm_series(p, parabolic_ic(), probes=probes),
         {"engine": "fdm", "A": 0.01, "B": 0.1, "L": 1.0, "N0": 3.0, "ic": "parabolic"})

    # secular-equation grid for the root-structure plots
    p = Params(A=0.5, B=1e-3, L=0.1, N0=3.0)
    table = eigen_grid(p, np.linspace(0.05, 70.0, 7000))
    path = os.path.join(outdir, "secular_grid.csv")
    write_csv(path, list(table), list(table.values()),
              config={"A": 0.5, "B": 1e-3, "L": 0.1, "N0": 3.0})
    print(path)


if __name__ == "__main__":
    main()
