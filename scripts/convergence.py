#!/usr/bin/env python3
"""Convergence study: grid refinement, mode doubling, engine agreement, heat march.

Prints a small table per study; no files are written.
"""

import numpy as np

from hypersorb import (
    Params, equilibrium, eval_sigma, poles, run_fdm, run_parabolic, solve_spectral, step_ic,
)
from hypersorb.fdm import Grid, default_lambda
from hypersorb.params import parabolic_ic
from hypersorb.spectral import to_series
from hypersorb.validate import compare_engines


def grid_refinement():
    p = Params(A=0.01, B=0.1, L=1.0, N0=3.0)
    lam = default_lambda(p.B)
    print("== spatial refinement (fixed step ratio, smooth initial data) ==")
    reference = None
    for n_z in (50, 100, 200, 400):
        ser = run_fdm(p, parabolic_ic(), Grid.from_lambda(n_z, 2.0, lam))
        probe = tuple(np.interp(tq, ser.t, ser.sigma) for tq in (0.5, 1.0, 2.0))
        if reference is not None:
            deltas = [abs(a - b) for a, b in zip(probe, reference)]
            print(f"n_z={n_z:4d}  sigma(0.5,1,2) shift vs previous: "
                  + "  ".join(f"{d:.2e}" for d in deltas))
        else:
            print(f"n_z={n_z:4d}  (baseline)")
        reference = probe


def mode_doubling():
    p = Params(A=1e-3, B=0.1, L=1.0, N0=3.0)
    t = np.linspace(0.05, 2.0, 401)
    print("== mode doubling of the series engine ==")
    prev = None
    for n in (25, 50, 100, 200):
        s = eval_sigma(solve_spectral(p, step_ic(), n), t)
        if prev is not None:
            print(f"modes={n:4d}  max |d sigma| vs previous: {np.max(np.abs(s - prev)):.3e}")
        else:
            print(f"modes={n:4d}  (baseline)")
        prev = s


def engine_agreement():
    p = Params(A=1e-3, B=0.1, L=1.0, N0=3.0)
    _, sigma_eq = equilibrium(p)
    fser = run_fdm(p, step_ic(), Grid.from_lambda(200, 2.0, default_lambda(p.B)))
    print("== series engine versus finite differences ==")
    for n in (25, 50, 100):
        sser = to_series(solve_spectral(p, step_ic(), n), np.linspace(0, 2, 1601))
        rep = compare_engines(sser, fser, np.linspace(0.05, 2.0, 401))
        print(f"modes={n:4d}  max |d sigma| = {rep.max_sigma_dev:.4f}"
              f"  ({100 * rep.max_sigma_dev / sigma_eq:.2f}% of equilibrium)")


def heat_march_against_exact_sum():
    t = np.linspace(0.05, 2.0, 391)
    print("== explicit heat march (r = 0.4, step data) versus the exact B = 0 sum ==")
    for A, L in ((0.01, 1.0), (0.5, 0.1)):
        p = Params(A=A, B=0.0, L=L, N0=3.0)
        _, sigma_eq = equilibrium(p)
        exact = poles.to_series(p, step_ic(), t)
        previous = None
        for n_z in (25, 50, 100):
            march = run_parabolic(p, step_ic(), Grid.for_parabolic(n_z, 2.0))
            err = np.max(np.abs(np.interp(t, march.t, march.sigma) - exact.sigma)) / sigma_eq
            ratio = "" if previous is None else f"  ratio to previous {previous / err:.2f}"
            print(f"A={A:g} L={L:g} n_z={n_z:4d}  max |d sigma| = {err:.3e} sigma_eq{ratio}")
            previous = err


if __name__ == "__main__":
    grid_refinement()
    mode_doubling()
    engine_agreement()
    heat_march_against_exact_sum()
